"""Cosmos-like replicated block store.

All job inputs and outputs in the measured cluster live in "a reliable
replicated block storage mechanism called Cosmos that is implemented on
the same commodity servers that do computation" (paper §3).  The store
shapes traffic three ways:

* **flow sizes** — transfers are bounded by block/chunk sizes ("flow sizes
  being determined largely by chunking considerations", §8), which is why
  the cluster has no super-large flows;
* **locality** — the scheduler places computation next to replicas, which
  produces the work-seeks-bandwidth pattern;
* **evacuations** — when a server repeatedly misbehaves, the automated
  management system re-replicates every block it holds before the machine
  is re-imaged (§4.2), an unexpected source of long congestion episodes.

Placement follows the GFS/HDFS convention the paper's infrastructure also
uses: first replica on the writer, second in the writer's rack, third in a
remote rack.

Every fabric numbers servers rack by rack, so the bounds of a new block's
draws are fixed by the topology: the first replica when no writer anchors
it, the in-rack peer, then a rack and a server per remote replica.  A run
of blocks therefore shares one ``Generator.integers(0, highs)`` call
(:meth:`BlockStore._place`): the cluster's standing datasets, all created
by one :meth:`BlockStore.create_datasets` call, and any dataset whose
blocks need no per-block home draw.  Blocks go one at a time where other
draws interleave — a home-biased dataset draws ``random()`` and perhaps a
home server before each block, and :meth:`BlockStore.choose_replicas`
places one block — and where the number of draws depends on the data: a
cluster with one rack, or too few servers for the rack-aware rule, fills
its last replicas by rejecting duplicate draws.  For an array of bounds
NumPy's bounded-integer generator returns the values of one scalar call
per bound, in order, and leaves the generator in the same state; a bound
of 1 draws nothing.  So every placement is the one per-block draws would
make.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..cluster.topology import ClusterTopology

__all__ = ["Block", "Dataset", "BlockStore"]


def _block_sizes(total_bytes: float, block_size: float) -> list[float]:
    """Sizes of the blocks a dataset of ``total_bytes`` splits into."""
    sizes = []
    remaining = float(total_bytes)
    while remaining > 0:
        size = min(block_size, remaining)
        remaining -= size
        sizes.append(size)
    return sizes


def _pick(rng: np.random.Generator, seq: list[int]) -> int:
    """One uniform draw from ``seq``.

    The same draw as ``int(rng.choice(seq))``, which picks
    ``rng.integers(len(seq))`` too, without its conversion of the list
    to an array: about a fifth of the cost.  Home anchors and evacuation
    targets draw through it one block at a time.  A new block's replicas
    do not: :meth:`BlockStore._place` draws a whole run of blocks with
    one array-bound ``integers`` call, whose values and final generator
    state equal one ``_pick`` per replica over the same candidate lists.
    The run is every standing block, or one dataset's blocks when no
    home draw interleaves; a home-biased block, a lone
    ``choose_replicas`` and a cluster whose last replicas need duplicate
    rejection go one block per call.
    """
    return int(seq[int(rng.integers(len(seq)))])


@dataclass(frozen=True)
class Block:
    """An immutable chunk of a dataset, replicated on several servers."""

    block_id: int
    dataset_id: int
    size: float
    replicas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("block size must be positive")
        if len(self.replicas) == 0:
            raise ValueError("block must have at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError("block replicas must be distinct servers")


@dataclass
class Dataset:
    """A named collection of blocks."""

    dataset_id: int
    name: str
    blocks: list[Block] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        """Total logical size (one replica's worth)."""
        return sum(block.size for block in self.blocks)

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the dataset."""
        return len(self.blocks)


class BlockStore:
    """Tracks block placement across cluster servers.

    The store is *logical*: it decides placement and records it, while the
    simulator is responsible for generating the replication flows that the
    placement implies.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        rng: np.random.Generator,
        replication_factor: int = 3,
    ) -> None:
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.topology = topology
        self.replication_factor = min(replication_factor, topology.num_servers)
        self._rng = rng
        self._datasets: dict[int, Dataset] = {}
        self._blocks: dict[int, Block] = {}
        self._blocks_by_server: dict[int, set[int]] = {
            server: set() for server in range(topology.num_servers)
        }
        self._next_dataset_id = 0
        self._next_block_id = 0
        # Every fabric numbers servers rack by rack, so a placement's
        # draw bounds depend on the topology alone: the first replica
        # (when drawn), the in-rack peer, then a (rack, server) pair per
        # remote replica, each rack drawn among those not yet used.
        rf = self.replication_factor
        spr = topology.spec.servers_per_rack
        self._peers = 1 if rf >= 2 and spr >= 2 else 0
        self._remote = (
            min(rf - 1 - self._peers, topology.num_racks - 1) if rf >= 3 else 0
        )
        #: Replicas the rack-aware draws cannot place (one rack, or too
        #: few servers), filled by rejecting duplicate draws.
        self._shortfall = rf - 1 - self._peers - self._remote
        bounds = [topology.num_servers] + [spr - 1] * self._peers
        for used in range(self._remote):
            bounds += [topology.num_racks - 1 - used, spr]
        self._bounds = np.array(bounds, dtype=np.int64)

    # ------------------------------------------------------------- placement

    def _place(self, writers: np.ndarray) -> list[tuple[int, ...]]:
        """Replica sets of ``len(writers)`` new blocks, in block order.

        ``writers[i]`` is block ``i``'s first replica, or -1 to draw it
        uniformly.  The second replica sits beside the first (cheap, fast
        to write and the copy most reads hit), the rest in remote racks
        for failure-domain diversity.  Keeping two of three replicas in
        the writer's rack is what keeps a job's working set — and
        therefore its traffic — concentrated (work-seeks-bandwidth).

        All blocks share one ``Generator.integers(0, highs)`` call, which
        makes the draws of one ``integers(high)`` call per bound in
        order.  A draw indexes the ascending candidate list the per-block
        rule would build: the rack's servers without the first replica,
        or the racks not yet used, which the arithmetic below reproduces.
        With a shortfall each block ends in a data-dependent number of
        draws, so blocks go one at a time.
        """
        count = writers.size
        if self._shortfall and count > 1:
            return [
                replicas
                for index in range(count)
                for replicas in self._place(writers[index : index + 1])
            ]
        spr = self.topology.spec.servers_per_rack
        drawn = writers < 0
        highs = np.tile(self._bounds, (count, 1))
        # A bound of 1 draws 0 and leaves the generator as it was, so an
        # anchored block makes no first-replica draw.
        highs[~drawn, 0] = 1
        values = self._rng.integers(0, highs)
        first = np.where(drawn, values[:, 0], writers)
        rack = first // spr
        columns = [first]
        if self._peers:
            peer = values[:, 1]
            columns.append(rack * spr + peer + (peer >= first - rack * spr))
        used = [rack]
        for column in range(1 + self._peers, self._bounds.size, 2):
            remote = values[:, column].copy()
            for taken in np.sort(used, axis=0):
                remote += remote >= taken
            columns.append(remote * spr + values[:, column + 1])
            used.append(remote)
        placements = list(zip(*(servers.tolist() for servers in columns)))
        if self._shortfall and placements:
            row = list(placements[0])
            while len(row) < self.replication_factor:
                candidate = int(self._rng.integers(self.topology.num_servers))
                if candidate not in row:
                    row.append(candidate)
            placements = [tuple(row)]
        return placements

    def _anchor(self, writer: int | None) -> int:
        """``writer`` as a :meth:`_place` entry (-1 draws the first replica)."""
        if writer is None:
            return -1
        if not 0 <= writer < self.topology.num_servers:
            raise ValueError(f"writer {writer} is not an in-cluster server")
        return writer

    def choose_replicas(self, writer: int | None = None) -> tuple[int, ...]:
        """Pick replica servers for a new block.

        ``writer`` anchors the first replica (local write); when ``None``
        (e.g. externally ingested data) a random server is picked.
        """
        return self._place(np.array([self._anchor(writer)], dtype=np.int64))[0]

    # ------------------------------------------------------------- datasets

    def create_dataset(
        self,
        name: str,
        total_bytes: float,
        block_size: float,
        writer: int | None = None,
        home_servers: list[int] | None = None,
        home_bias: float = 0.0,
    ) -> Dataset:
        """Create a dataset of ``total_bytes`` split into ``block_size`` chunks.

        Each block gets its own replica set.  Anchoring every block on the
        same ``writer`` models a single uploader; ``home_servers`` with a
        ``home_bias`` in (0, 1] anchors each block on a random home server
        with that probability (datasets written by earlier rack-local jobs
        — the concentration that work-seeks-bandwidth feeds on); otherwise
        blocks spread across the cluster.
        """
        if total_bytes <= 0:
            raise ValueError("dataset must contain at least one byte")
        if block_size <= 0:
            raise ValueError("block size must be positive")
        if not 0.0 <= home_bias <= 1.0:
            raise ValueError("home_bias must lie in [0, 1]")
        if home_bias > 0 and not home_servers:
            raise ValueError("home_bias requires home_servers")
        if writer is not None or not home_servers:
            return self.create_datasets([(name, total_bytes, writer)], block_size)[0]
        # Each block's home draw precedes its placement, so blocks go one
        # at a time.
        dataset = self._new_dataset(name)
        for size in _block_sizes(total_bytes, block_size):
            anchor = None
            if self._rng.random() < home_bias:
                anchor = _pick(self._rng, home_servers)
            self._add_block(dataset, size, self.choose_replicas(anchor))
        self._datasets[dataset.dataset_id] = dataset
        return dataset

    def create_datasets(
        self,
        specs: Iterable[tuple[str, float, int | None]],
        block_size: float,
    ) -> list[Dataset]:
        """Create one dataset per ``(name, total_bytes, writer)``, in order.

        Every block of every dataset is placed by one :meth:`_place`
        call, with the ids and replicas that one :meth:`create_dataset`
        call per spec would give.
        """
        if block_size <= 0:
            raise ValueError("block size must be positive")
        layout: list[tuple[Dataset, list[float]]] = []
        anchors: list[int] = []
        for name, total_bytes, writer in specs:
            if total_bytes <= 0:
                raise ValueError("dataset must contain at least one byte")
            sizes = _block_sizes(total_bytes, block_size)
            anchors += [self._anchor(writer)] * len(sizes)
            layout.append((self._new_dataset(name), sizes))
        placements = iter(self._place(np.array(anchors, dtype=np.int64)))
        for dataset, sizes in layout:
            for size in sizes:
                self._add_block(dataset, size, next(placements))
            self._datasets[dataset.dataset_id] = dataset
        return [dataset for dataset, _ in layout]

    def _new_dataset(self, name: str) -> Dataset:
        dataset = Dataset(dataset_id=self._next_dataset_id, name=name)
        self._next_dataset_id += 1
        return dataset

    def _add_block(
        self, dataset: Dataset, size: float, replicas: tuple[int, ...]
    ) -> None:
        """Append one placed block to a dataset and index its replicas."""
        block = Block(
            block_id=self._next_block_id,
            dataset_id=dataset.dataset_id,
            size=float(size),
            replicas=replicas,
        )
        self._next_block_id += 1
        dataset.blocks.append(block)
        self._blocks[block.block_id] = block
        for server in replicas:
            self._blocks_by_server[server].add(block.block_id)

    def dataset(self, dataset_id: int) -> Dataset:
        """Look up a dataset by id."""
        return self._datasets[dataset_id]

    def block(self, block_id: int) -> Block:
        """Look up a block by id."""
        return self._blocks[block_id]

    def blocks_on(self, server: int) -> list[Block]:
        """All blocks with a replica on ``server``."""
        return [self._blocks[block_id] for block_id in sorted(self._blocks_by_server[server])]

    def bytes_on(self, server: int) -> float:
        """Total replica bytes stored on ``server``."""
        return sum(block.size for block in self.blocks_on(server))

    # ------------------------------------------------------------ evacuation

    def evacuate(self, server: int) -> list[tuple[Block, int, int]]:
        """Evacuate every block replica off ``server``.

        For each affected block a new replica server is chosen (preserving
        rack diversity where possible) and the placement records are
        updated.  Returns ``(block, source_server, new_server)`` transfer
        descriptions, sourced from the evacuating server itself: the
        machine is still up (it is being drained *before* re-imaging,
        §4.2), and streaming everything off one server is exactly why
        evacuations show up as long-lived congestion on its uplink.
        """
        transfers: list[tuple[Block, int, int]] = []
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
            transfers.append((replacement, source, new_server))
        self._blocks_by_server[server].clear()
        return transfers
