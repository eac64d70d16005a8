"""Cosmos-like block store: placement, datasets, evacuation."""

import hashlib
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.workload.blockstore import Block, BlockStore, _pick
from repro.workload.generator import WorkloadConfig
from repro.util.units import MB


@dataclass
class OracleDataset:
    """A dataset as a list of block objects."""

    dataset_id: int
    name: str
    blocks: list = field(default_factory=list)


class OracleStore:
    """The per-block store that :class:`BlockStore` batches and stores
    as rows.

    ``choose_replicas``, ``create_dataset``, ``add_block`` and
    ``evacuate`` as they were before placement drew once per run of
    blocks and blocks became rows: one scalar draw per replica, every
    candidate list built in Python, one :class:`Block` object per block
    in an id dict, and one set of block ids per server.  The columnar
    store must give the same blocks, datasets and moves, and leave the
    generator in the same state.  One line differs from that code: a
    block that an evacuation cannot move (every server already holds
    it) stays in its server's set, as it stays in the block's replicas;
    that code dropped the whole set.
    """

    def __init__(self, topology, rng, replication_factor=3):
        self.topology = topology
        self.replication_factor = min(replication_factor, topology.num_servers)
        self._rng = rng
        self._datasets = {}
        self._blocks = {}
        self._blocks_by_server = {server: set() for server in range(topology.num_servers)}
        self._next_dataset_id = 0
        self._next_block_id = 0

    def choose_replicas(self, writer: int | None = None) -> tuple[int, ...]:
        topo = self.topology
        first = writer if writer is not None else int(self._rng.integers(topo.num_servers))
        if not 0 <= first < topo.num_servers:
            raise ValueError(f"writer {writer} is not an in-cluster server")
        replicas = [first]
        if self.replication_factor >= 2:
            # Second replica beside the writer (cheap, fast to write and
            # the copy most reads hit), third in a remote rack for
            # failure-domain diversity.  Keeping two of three replicas in
            # the writer's rack is what keeps a job's working set — and
            # therefore its traffic — concentrated (work-seeks-bandwidth).
            rack_peers = [
                s for s in topo.servers_in_rack(topo.rack_of(first)) if s != first
            ]
            if rack_peers:
                replicas.append(_pick(self._rng, rack_peers))
        if self.replication_factor >= 3 and topo.num_racks > 1:
            used_racks = {topo.rack_of(server) for server in replicas}
            other_racks = [r for r in range(topo.num_racks) if r not in used_racks]
            while len(replicas) < self.replication_factor and other_racks:
                rack = _pick(self._rng, other_racks)
                other_racks.remove(rack)
                candidates = [s for s in topo.servers_in_rack(rack) if s not in replicas]
                if candidates:
                    replicas.append(_pick(self._rng, candidates))
        # Fill any shortfall (tiny clusters) from arbitrary distinct servers.
        while len(replicas) < self.replication_factor:
            candidate = int(self._rng.integers(topo.num_servers))
            if candidate not in replicas:
                replicas.append(candidate)
        return tuple(replicas)

    def create_dataset(self, name, total_bytes, block_size, writer=None,
                       home_servers=None, home_bias=0.0):
        dataset = OracleDataset(dataset_id=self._next_dataset_id, name=name)
        self._next_dataset_id += 1
        remaining = float(total_bytes)
        while remaining > 0:
            size = min(block_size, remaining)
            remaining -= size
            block_writer = writer
            if block_writer is None and home_servers and self._rng.random() < home_bias:
                block_writer = _pick(self._rng, home_servers)
            self.add_block(dataset, size, writer=block_writer)
        self._datasets[dataset.dataset_id] = dataset
        return dataset

    def add_block(self, dataset, size, writer=None):
        block = Block(
            block_id=self._next_block_id,
            dataset_id=dataset.dataset_id,
            size=float(size),
            replicas=self.choose_replicas(writer),
        )
        self._next_block_id += 1
        dataset.blocks.append(block)
        self._blocks[block.block_id] = block
        for server in block.replicas:
            self._blocks_by_server[server].add(block.block_id)
        return block

    @property
    def num_blocks(self):
        return len(self._blocks)

    def dataset(self, dataset_id):
        return self._datasets[dataset_id]

    def block(self, block_id):
        return self._blocks[block_id]

    def blocks_on(self, server):
        return [self._blocks[block_id] for block_id in sorted(self._blocks_by_server[server])]

    def evacuate(self, server):
        transfers = []
        topo = self.topology
        for block_id in sorted(self._blocks_by_server[server]):
            block = self._blocks[block_id]
            survivors = tuple(s for s in block.replicas if s != server)
            exclude = set(block.replicas)
            used_racks = {topo.rack_of(s) for s in survivors}
            preferred = [
                s
                for s in range(topo.num_servers)
                if s not in exclude and topo.rack_of(s) not in used_racks
            ]
            fallback = [s for s in range(topo.num_servers) if s not in exclude]
            pool = preferred or fallback
            if not pool:
                continue  # degenerate cluster: nowhere to go
            new_server = _pick(self._rng, pool)
            source = server
            replacement = Block(
                block_id=block.block_id,
                dataset_id=block.dataset_id,
                size=block.size,
                replicas=survivors + (new_server,),
            )
            self._blocks[block_id] = replacement
            dataset = self._datasets.get(block.dataset_id)
            if dataset is not None:
                dataset.blocks[:] = [
                    replacement if b.block_id == block_id else b for b in dataset.blocks
                ]
            self._blocks_by_server[new_server].add(block_id)
            self._blocks_by_server[server].discard(block_id)
            transfers.append((replacement, source, new_server))
        return transfers


@st.composite
def placement_cases(draw):
    """A small fabric, a replication factor and a run of placements.

    Returns ``(spec, replication_factor, seed, standing, dataset,
    singles, evacuated)``: ``standing`` is a list of ``(blocks,
    writer)`` datasets created together, ``dataset`` one ``(blocks,
    writer, home_servers, home_bias)`` dataset, ``singles`` the writers
    of lone ``choose_replicas`` calls and ``evacuated`` the servers
    evacuated after them, in order; a writer of ``None`` draws the
    first replica.
    """
    kind = draw(st.sampled_from(["tree", "fat_tree", "leaf_spine"]))
    servers = draw(st.integers(min_value=1, max_value=8))
    if kind == "fat_tree":
        spec = ClusterSpec.fat_tree(k=draw(st.sampled_from([2, 4])),
                                    servers_per_rack=servers, external_hosts=0)
    elif kind == "leaf_spine":
        spec = ClusterSpec.leaf_spine(
            racks=draw(st.integers(min_value=1, max_value=8)),
            spines=draw(st.integers(min_value=1, max_value=2)),
            servers_per_rack=servers, external_hosts=0,
        )
    else:
        racks = draw(st.integers(min_value=1, max_value=8))
        spec = ClusterSpec(
            racks=racks, servers_per_rack=servers,
            racks_per_vlan=draw(st.integers(min_value=1, max_value=racks)),
            external_hosts=0,
        )
    server = st.integers(min_value=0, max_value=spec.num_servers - 1)
    writer = st.one_of(st.none(), server)
    blocks = st.integers(min_value=1, max_value=40)
    standing = draw(st.lists(st.tuples(blocks, writer), max_size=3))
    mode = draw(st.sampled_from(["fixed", "none", "homed"]))
    home_servers, home_bias = None, 0.0
    if mode == "homed":
        home_servers = draw(st.lists(server, min_size=1, max_size=6))
        home_bias = draw(st.sampled_from([0.0, 0.5, 1.0]))
    dataset = (
        draw(blocks),
        draw(server) if mode == "fixed" else None,
        home_servers,
        home_bias,
    )
    singles = draw(st.lists(writer, max_size=4))
    evacuated = draw(st.lists(server, max_size=2))
    return (spec, draw(st.integers(min_value=1, max_value=5)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)),
            standing, dataset, singles, evacuated)


def _block_row(block):
    return (block.block_id, block.dataset_id, block.size, block.replicas)


def _placement_state(store, rng):
    """Blocks, datasets and per-server blocks of a store, read through
    its public calls, and the generator's next draw."""
    blocks = [store.block(block_id) for block_id in range(store.num_blocks)]
    datasets = {}
    for dataset_id in sorted({block.dataset_id for block in blocks}):
        dataset = store.dataset(dataset_id)
        datasets[dataset_id] = (dataset.name, [_block_row(b) for b in dataset.blocks])
    return (
        [_block_row(block) for block in blocks],
        datasets,
        {server: [block.block_id for block in store.blocks_on(server)]
         for server in range(store.topology.num_servers)},
        int(rng.integers(1 << 30)),
    )


@pytest.fixture()
def store(tiny_topology, rng):
    return BlockStore(tiny_topology, rng=rng)


class TestBlock:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Block(block_id=0, dataset_id=0, size=0, replicas=(0,))

    def test_rejects_duplicate_replicas(self):
        with pytest.raises(ValueError):
            Block(block_id=0, dataset_id=0, size=1, replicas=(0, 0))

    def test_rejects_empty_replicas(self):
        with pytest.raises(ValueError):
            Block(block_id=0, dataset_id=0, size=1, replicas=())


class TestPlacement:
    def test_replica_count(self, store):
        replicas = store.choose_replicas(writer=0)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_writer_is_first_replica(self, store):
        assert store.choose_replicas(writer=7)[0] == 7

    def test_second_replica_same_rack(self, store, tiny_topology):
        for writer in range(tiny_topology.num_servers):
            replicas = store.choose_replicas(writer=writer)
            assert tiny_topology.rack_of(replicas[1]) == tiny_topology.rack_of(writer)

    def test_third_replica_remote_rack(self, store, tiny_topology):
        for writer in range(tiny_topology.num_servers):
            replicas = store.choose_replicas(writer=writer)
            assert tiny_topology.rack_of(replicas[2]) != tiny_topology.rack_of(writer)

    def test_rejects_external_writer(self, store, tiny_topology):
        with pytest.raises(ValueError):
            store.choose_replicas(writer=tiny_topology.num_servers)

    @settings(max_examples=150)
    @given(placement_cases())
    def test_batched_placement_matches_per_block_oracle(self, case):
        """Every placement path, then evacuations of drawn servers, give
        the per-block oracle's blocks, datasets, per-server blocks and
        moves, and the same next draw."""
        spec, replication_factor, seed, standing, dataset, singles, evacuated = case
        topo = ClusterTopology(spec)
        states, single_replicas, moves = [], [], []
        for cls in (BlockStore, OracleStore):
            rng = np.random.default_rng(seed)
            store = cls(topo, rng=rng, replication_factor=replication_factor)
            specs = [(f"standing-{index}", (count - 0.5) * MB, writer)
                     for index, (count, writer) in enumerate(standing)]
            if cls is BlockStore:
                store.create_datasets(specs, block_size=1 * MB)
            else:
                for name, total, writer in specs:
                    store.create_dataset(name, total, 1 * MB, writer=writer)
            count, writer, home_servers, home_bias = dataset
            store.create_dataset("d", (count - 0.5) * MB, 1 * MB, writer=writer,
                                 home_servers=home_servers, home_bias=home_bias)
            single_replicas.append([store.choose_replicas(w) for w in singles])
            moves.append([
                [(*_block_row(block), source, target)
                 for block, source, target in store.evacuate(server)]
                for server in evacuated
            ])
            states.append(_placement_state(store, rng))
        assert single_replicas[0] == single_replicas[1]
        assert moves[0] == moves[1]
        assert states[0] == states[1]

    @pytest.mark.parametrize("pattern", [
        (23, 63, 24), (1536, 23, 63, 24), (7, 5, 8, 4, 8), (1, 2, 3, 10**6),
    ])
    def test_array_bounds_make_the_scalar_draws(self, pattern):
        """``Generator.integers(0, highs)`` returns what one
        ``integers(high)`` call per bound returns, and leaves the
        generator in the same state: the identity batched placement
        rests on."""
        highs = np.tile(np.array(pattern, dtype=np.int64), 997)
        for seed in range(10):
            batched = np.random.default_rng(seed)
            scalar = np.random.default_rng(seed)
            drawn = batched.integers(0, highs).tolist()
            expected = [int(scalar.integers(high)) for high in highs]
            assert drawn == expected, (
                f"seed {seed}: array-bound draws differ from scalar draws "
                f"under numpy {np.__version__}"
            )
            assert (batched.integers(1 << 30), batched.random()) == (
                scalar.integers(1 << 30), scalar.random()
            ), f"seed {seed}: generator state differs under numpy {np.__version__}"

    def test_unit_bound_draws_nothing(self):
        """A bound of 1 draws 0 and leaves the generator as it was: an
        anchored block's first-replica slot, which per-block placement
        never drew."""
        for seed in range(10):
            batched = np.random.default_rng(seed)
            untouched = np.random.default_rng(seed)
            drawn = batched.integers(0, np.ones((997, 3), dtype=np.int64))
            assert not drawn.any()
            assert (batched.integers(1 << 30), batched.random()) == (
                untouched.integers(1 << 30), untouched.random()
            ), f"seed {seed}: a bound of 1 drew under numpy {np.__version__}"

    def test_pick_makes_the_same_draw_as_choice(self):
        """``_pick`` draws what ``Generator.choice`` would, and leaves
        the generator in the same state, so placements do not move."""
        for seed in range(5):
            picked = np.random.default_rng(seed)
            chosen = np.random.default_rng(seed)
            for length in range(1, 301):
                seq = list(range(1000, 1000 + length))
                assert _pick(picked, seq) == int(chosen.choice(seq))
            assert picked.integers(1 << 30) == chosen.integers(1 << 30)

    def test_placement_digest_pinned(self):
        """Placements, homed placements and an evacuation for one seed,
        with the generator's next draw, hashed: pinned from the
        ``Generator.choice`` implementation."""
        topo = ClusterTopology(ClusterSpec(racks=6, servers_per_rack=8,
                                           racks_per_vlan=3, external_hosts=2))
        rng = np.random.default_rng(20261019)
        store = BlockStore(topo, rng=rng)
        store.create_dataset("spread", 300 * MB, 1 * MB)
        store.create_dataset("homed", 200 * MB, 1 * MB,
                             home_servers=list(range(8, 16)), home_bias=0.7)
        moves = store.evacuate(9)
        rows = sorted(
            (block.block_id, *block.replicas)
            for server in range(topo.num_servers)
            for block in store.blocks_on(server)
        )
        digest = hashlib.sha256(repr((
            rows,
            [(block.block_id, src, dst) for block, src, dst in moves],
            int(rng.integers(1 << 30)),
        )).encode()).hexdigest()[:16]
        assert (len(rows), len(moves)) == (1500, 63)
        assert digest == "bb4e6290918cc158"

    def test_replication_factor_capped(self, rng):
        topo = ClusterTopology(ClusterSpec(racks=1, servers_per_rack=2,
                                           racks_per_vlan=1, external_hosts=0))
        store = BlockStore(topo, rng=rng, replication_factor=5)
        assert store.replication_factor == 2


class TestDatasets:
    def test_block_count(self, store):
        dataset = store.create_dataset("d", total_bytes=1000 * MB, block_size=256 * MB)
        assert dataset.num_blocks == 4
        assert dataset.total_bytes == pytest.approx(1000 * MB)

    def test_last_block_is_remainder(self, store):
        dataset = store.create_dataset("d", total_bytes=300 * MB, block_size=256 * MB)
        sizes = sorted(block.size for block in dataset.blocks)
        assert sizes == [pytest.approx(44 * MB), pytest.approx(256 * MB)]

    def test_home_bias_concentrates(self, tiny_topology, rng):
        store = BlockStore(tiny_topology, rng=rng)
        home = list(tiny_topology.servers_in_rack(0))
        dataset = store.create_dataset(
            "d", total_bytes=5000 * MB, block_size=100 * MB,
            home_servers=home, home_bias=1.0,
        )
        anchors = [block.replicas[0] for block in dataset.blocks]
        assert all(anchor in home for anchor in anchors)

    def test_home_bias_requires_servers(self, store):
        with pytest.raises(ValueError):
            store.create_dataset("d", total_bytes=1, block_size=1, home_bias=0.5)

    def test_rejects_empty_dataset(self, store):
        with pytest.raises(ValueError):
            store.create_dataset("d", total_bytes=0, block_size=1)

    def test_lookup_by_id(self, store):
        dataset = store.create_dataset("d", total_bytes=10, block_size=10)
        assert store.dataset(dataset.dataset_id) is dataset
        block = dataset.blocks[0]
        assert store.block(block.block_id) == block

    def test_blocks_on_server_tracks_replicas(self, store, tiny_topology):
        dataset = store.create_dataset("d", total_bytes=10, block_size=10, writer=0)
        block = dataset.blocks[0]
        for server in block.replicas:
            assert block in store.blocks_on(server)
        assert store.bytes_on(block.replicas[0]) == pytest.approx(10)


class TestEvacuation:
    def test_source_is_evacuated_server(self, store):
        store.create_dataset("d", total_bytes=1000 * MB, block_size=100 * MB, writer=3)
        transfers = store.evacuate(3)
        assert transfers
        assert all(source == 3 for _, source, _ in transfers)

    def test_server_is_empty_after(self, store):
        store.create_dataset("d", total_bytes=1000 * MB, block_size=100 * MB, writer=3)
        store.evacuate(3)
        assert store.blocks_on(3) == []
        assert store.bytes_on(3) == 0

    def test_replica_count_preserved(self, store):
        dataset = store.create_dataset("d", total_bytes=500 * MB, block_size=100 * MB,
                                       writer=3)
        store.evacuate(3)
        for block in dataset.blocks:
            fresh = store.block(block.block_id)
            assert len(fresh.replicas) == 3
            assert 3 not in fresh.replicas

    def test_new_replica_prefers_unused_rack(self, store, tiny_topology):
        store.create_dataset("d", total_bytes=100 * MB, block_size=100 * MB, writer=0)
        transfers = store.evacuate(0)
        for block, _source, destination in transfers:
            survivors = [r for r in block.replicas if r != destination]
            survivor_racks = {tiny_topology.rack_of(s) for s in survivors}
            # tiny topology has 4 racks and survivors cover at most 2
            assert tiny_topology.rack_of(destination) not in survivor_racks

    def test_empty_server_noop(self, store):
        assert store.evacuate(0) == []

    def test_total_bytes_preserved(self, store, tiny_topology):
        store.create_dataset("d", total_bytes=700 * MB, block_size=100 * MB, writer=1)
        before = sum(store.bytes_on(s) for s in range(tiny_topology.num_servers))
        store.evacuate(1)
        after = sum(store.bytes_on(s) for s in range(tiny_topology.num_servers))
        assert after == pytest.approx(before)

    def test_unmovable_block_stays_on_its_server(self):
        # Every server already holds the block, so it has nowhere to go:
        # it stays where it is, and its server still reports it.
        topo = ClusterTopology(ClusterSpec(racks=1, servers_per_rack=3,
                                           racks_per_vlan=1, external_hosts=0))
        store = BlockStore(topo, rng=np.random.default_rng(5))
        dataset = store.create_dataset("d", total_bytes=200 * MB,
                                       block_size=100 * MB, writer=0)
        assert store.evacuate(0) == []
        assert [block.block_id for block in store.blocks_on(0)] == [0, 1]
        assert store.bytes_on(0) == pytest.approx(200 * MB)
        assert store.occupied_servers() == [0, 1, 2]
        assert all(0 in block.replicas for block in dataset.blocks)


class TestColumnarStore:
    def test_occupied_servers_counts_every_replica(self, store, tiny_topology):
        store.create_dataset("d", total_bytes=300 * MB, block_size=100 * MB, writer=5)
        holders = {server for block in store.dataset(0).blocks
                   for server in block.replicas}
        assert len(holders) > 1
        assert store.occupied_servers() == sorted(holders) == [
            s for s in range(tiny_topology.num_servers) if store.bytes_on(s) > 0
        ]

    def test_occupied_servers_follow_evacuation(self, store, tiny_topology):
        store.create_dataset("d", total_bytes=500 * MB, block_size=100 * MB, writer=3)
        store.evacuate(3)
        occupied = store.occupied_servers()
        assert 3 not in occupied
        assert occupied == [
            s for s in range(tiny_topology.num_servers) if store.bytes_on(s) > 0
        ]

    def test_datasets_have_consecutive_block_ids(self, store, tiny_topology):
        home = list(tiny_topology.servers_in_rack(1))
        first = store.create_dataset("a", 250 * MB, 100 * MB)
        homed = store.create_dataset("b", 450 * MB, 100 * MB,
                                     home_servers=home, home_bias=0.5)
        many = store.create_datasets([("c", 150 * MB, 2), ("e", 50 * MB, None)],
                                     block_size=100 * MB)
        ids = [[block.block_id for block in dataset.blocks]
               for dataset in (first, homed, *many)]
        assert ids == [[0, 1, 2], [3, 4, 5, 6, 7], [8, 9], [10]]
        assert store.num_blocks == 11
        assert [dataset.num_blocks for dataset in many] == [2, 1]

    def test_bad_placement_rejected_where_it_is_created(self, store, monkeypatch):
        monkeypatch.setattr(store, "_place",
                            lambda writers: np.zeros((writers.size, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="distinct"):
            store.create_dataset("d", total_bytes=300 * MB, block_size=100 * MB)
        assert store.num_blocks == 0

    def test_paper_scale_standing_store_is_small(self):
        """The 49,152 standing blocks of a 1,536-server cluster take a
        few MiB once built (one object, tuple, dict entry and three set
        entries per block took ~29 MiB)."""
        topo = ClusterTopology(ClusterSpec(racks=64, servers_per_rack=24,
                                           racks_per_vlan=8, external_hosts=0))
        workload = WorkloadConfig()
        specs = [(f"standing-{server}", workload.initial_data_per_server, server)
                 for server in range(topo.num_servers)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = BlockStore(topo, rng=np.random.default_rng(7))
            store.create_datasets(specs, block_size=workload.block_size)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 6 * 2**20, f"standing store holds {held / 2**20:.1f} MiB"
        assert store.num_blocks == 49152
