"""Cosmos-like block store: placement, datasets, evacuation."""

import hashlib

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.workload.blockstore import Block, BlockStore, _pick
from repro.util.units import MB


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
