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

**Representation.**  The store is columnar.  Block ``i`` is row ``i`` of
three growable arrays: its dataset id, its size and its replica servers
(an n × replication-factor matrix, the first replica in column 0).  A
:class:`Dataset` is a name, its first block id and its block count,
because a dataset's blocks are stored together and so have consecutive
ids.  The store keeps no per-block object and no per-server index:
:class:`Block` values are built from the rows when asked for, by
:attr:`Dataset.blocks`, :meth:`BlockStore.block`,
:meth:`BlockStore.blocks_on` and :meth:`BlockStore.evacuate`, and a
server's blocks are one scan of the replica matrix.  At paper scale
(1,536 servers, 49,152 standing blocks) the rows take ~2 MB, where an
object, a tuple, a dict entry and three set entries per block took
~29 MiB and most of the set-up's cyclic garbage collection.

**Draws.**  Every fabric numbers servers rack by rack, so the bounds of
a new block's draws are fixed by the topology: the first replica when
no writer anchors it, the in-rack peer, then a rack and a server per
remote replica.  A run of blocks therefore shares one
``Generator.integers(0, highs)`` call (:meth:`BlockStore._place`): the
cluster's standing datasets, all created by one
:meth:`BlockStore.create_datasets` call, and any dataset whose blocks
need no per-block home draw.  Blocks go one at a time where other draws
interleave — a home-biased dataset draws ``random()`` and perhaps a home
server before each block, and :meth:`BlockStore.choose_replicas` places
one block — and where the number of draws depends on the data: a
cluster with one rack, or too few servers for the rack-aware rule, fills
its last replicas by rejecting duplicate draws.  For an array of bounds
NumPy's bounded-integer generator returns the values of one scalar call
per bound, in order, and leaves the generator in the same state; a bound
of 1 draws nothing.  An evacuation draws one new server per block, in
ascending block id, by indexing the ascending candidate list a boolean
mask over the servers gives — the list the per-block rule builds in
Python.  So every placement and every move is the one per-block draws
would make.
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


def _pick(rng: np.random.Generator, seq) -> int:
    """One uniform draw from ``seq``, a list or a 1-D array.

    The same draw as ``int(rng.choice(seq))``, which picks
    ``rng.integers(len(seq))`` too, without its conversion of a list to
    an array: about a fifth of the cost.  Home anchors and evacuation
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


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` copied into a new array of ``rows`` rows."""
    out = np.empty((rows, *array.shape[1:]), dtype=array.dtype)
    out[: len(array)] = array
    return out


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


@dataclass(slots=True)
class Dataset:
    """A named run of blocks with consecutive ids in one store."""

    dataset_id: int
    name: str
    first_block: int
    num_blocks: int
    store: BlockStore = field(repr=False, compare=False)

    @property
    def blocks(self) -> list[Block]:
        """The dataset's blocks as they are now, in id order."""
        return self.store._values(
            np.arange(self.first_block, self.first_block + self.num_blocks)
        )

    @property
    def total_bytes(self) -> float:
        """Total logical size (one replica's worth)."""
        return sum(block.size for block in self.blocks)


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
        self._next_dataset_id = 0
        #: Block ``i`` is row ``i``: its dataset, size and replica servers.
        #: The first ``_count`` rows are in use; the arrays grow by doubling.
        self._count = 0
        self._dataset_ids = np.empty(0, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.float64)
        self._replicas = np.empty((0, self.replication_factor), dtype=np.int64)
        # Every fabric numbers servers rack by rack, so a placement's
        # draw bounds depend on the topology alone: the first replica
        # (when drawn), the in-rack peer, then a (rack, server) pair per
        # remote replica, each rack drawn among those not yet used.
        rf = self.replication_factor
        spr = topology.spec.servers_per_rack
        self._rack = np.arange(topology.num_servers) // spr
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

    def _place(self, writers: np.ndarray) -> np.ndarray:
        """Replica servers of ``len(writers)`` new blocks, one row each.

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
            return np.concatenate(
                [self._place(writers[index : index + 1]) for index in range(count)]
            )
        spr = self.topology.spec.servers_per_rack
        drawn = writers < 0
        highs = self._bounds[None].repeat(count, axis=0)
        # A bound of 1 draws 0 and leaves the generator as it was, so an
        # anchored block makes no first-replica draw.
        highs[~drawn, 0] = 1
        values = self._rng.integers(0, highs)
        placements = np.empty((count, self.replication_factor), dtype=np.int64)
        first = np.where(drawn, values[:, 0], writers)
        rack = first // spr
        placements[:, 0] = first
        if self._peers:
            peer = values[:, 1]
            base = rack * spr
            placements[:, 1] = base + peer + (peer >= first - base)
        used = [rack]
        for index in range(self._remote):
            column = 1 + self._peers + 2 * index
            remote = values[:, column].copy()
            for taken in np.sort(used, axis=0):
                remote += remote >= taken
            server = remote * spr + values[:, column + 1]
            placements[:, 1 + self._peers + index] = server
            used.append(remote)
        if self._shortfall and count:
            row = placements[0, : self.replication_factor - self._shortfall].tolist()
            while len(row) < self.replication_factor:
                candidate = int(self._rng.integers(self.topology.num_servers))
                if candidate not in row:
                    row.append(candidate)
            placements[0] = row
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
        placement = self._place(np.array([self._anchor(writer)], dtype=np.int64))
        return tuple(placement[0].tolist())

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
        sizes = _block_sizes(total_bytes, block_size)
        rows = []
        for _ in sizes:
            anchor = None
            if self._rng.random() < home_bias:
                anchor = _pick(self._rng, home_servers)
            rows.append(self._place(np.array([self._anchor(anchor)], dtype=np.int64)))
        first = self._append(
            np.full(len(sizes), self._next_dataset_id), sizes, np.concatenate(rows)
        )
        return self._add_dataset(name, first, len(sizes))

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
        names: list[str] = []
        counts: list[int] = []
        sizes: list[float] = []
        anchors: list[int] = []
        for name, total_bytes, writer in specs:
            if total_bytes <= 0:
                raise ValueError("dataset must contain at least one byte")
            dataset_sizes = _block_sizes(total_bytes, block_size)
            anchors += [self._anchor(writer)] * len(dataset_sizes)
            sizes += dataset_sizes
            names.append(name)
            counts.append(len(dataset_sizes))
        placements = self._place(np.array(anchors, dtype=np.int64))
        dataset_ids = self._next_dataset_id + np.arange(len(names))
        first = self._append(np.repeat(dataset_ids, counts), sizes, placements)
        datasets = []
        for name, count in zip(names, counts):
            datasets.append(self._add_dataset(name, first, count))
            first += count
        return datasets

    def _append(
        self, dataset_ids: np.ndarray, sizes: list[float], placements: np.ndarray
    ) -> int:
        """Store a run of placed blocks as new rows; returns the first id.

        Checks each row as :class:`Block` would, for the whole run at
        once, so a bad placement raises where it is created.
        """
        size_column = np.array(sizes, dtype=np.float64)
        if (size_column <= 0).any():
            raise ValueError("block size must be positive")
        ordered = np.sort(placements, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("block replicas must be distinct servers")
        first = self._count
        stop = first + size_column.size
        if stop > self._sizes.size:
            capacity = max(stop, 2 * self._sizes.size)
            self._dataset_ids = _grown(self._dataset_ids, capacity)
            self._sizes = _grown(self._sizes, capacity)
            self._replicas = _grown(self._replicas, capacity)
        self._dataset_ids[first:stop] = dataset_ids
        self._sizes[first:stop] = size_column
        self._replicas[first:stop] = placements
        self._count = stop
        return first

    def _add_dataset(self, name: str, first_block: int, num_blocks: int) -> Dataset:
        dataset = Dataset(self._next_dataset_id, name, first_block, num_blocks, self)
        self._datasets[dataset.dataset_id] = dataset
        self._next_dataset_id += 1
        return dataset

    # ------------------------------------------------------------------ reads

    @property
    def num_blocks(self) -> int:
        """Number of blocks stored."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes held by the block rows' arrays, spare capacity included."""
        return self._dataset_ids.nbytes + self._sizes.nbytes + self._replicas.nbytes

    def _values(self, ids: np.ndarray) -> list[Block]:
        """:class:`Block` values of rows ``ids``, built from the rows now."""
        return [
            Block(block_id, dataset_id, size, tuple(replicas))
            for block_id, dataset_id, size, replicas in zip(
                ids.tolist(),
                self._dataset_ids[ids].tolist(),
                self._sizes[ids].tolist(),
                self._replicas[ids].tolist(),
            )
        ]

    def _ids_on(self, server: int) -> np.ndarray:
        """Ascending ids of the blocks with a replica on ``server``.

        A row holds a server at most once, so the row of each match in
        the flattened matrix is one id, and they ascend.
        """
        matches = np.flatnonzero(self._replicas[: self._count].ravel() == server)
        return matches // self.replication_factor

    def dataset(self, dataset_id: int) -> Dataset:
        """Look up a dataset by id."""
        return self._datasets[dataset_id]

    def block(self, block_id: int) -> Block:
        """Look up a block by id."""
        if not 0 <= block_id < self._count:
            raise KeyError(block_id)
        return self._values(np.array([block_id]))[0]

    def blocks_on(self, server: int) -> list[Block]:
        """All blocks with a replica on ``server``, in ascending id order."""
        return self._values(self._ids_on(server))

    def bytes_on(self, server: int) -> float:
        """Total replica bytes stored on ``server``."""
        return sum(self._sizes[self._ids_on(server)].tolist())

    def occupied_servers(self) -> list[int]:
        """Ascending servers that hold at least one replica."""
        counts = np.bincount(
            self._replicas[: self._count].ravel(),
            minlength=self.topology.num_servers,
        )
        return np.flatnonzero(counts).tolist()

    # ------------------------------------------------------------ evacuation

    def evacuate(self, server: int) -> list[tuple[Block, int, int]]:
        """Evacuate every block replica off ``server``.

        For each affected block, in ascending id order, a new replica
        server is drawn (preserving rack diversity where possible) and the
        block's row becomes its surviving replicas followed by the new
        server.  Returns ``(block, source_server, new_server)`` transfer
        descriptions, sourced from the evacuating server itself: the
        machine is still up (it is being drained *before* re-imaging,
        §4.2), and streaming everything off one server is exactly why
        evacuations show up as long-lived congestion on its uplink.  A
        block with nowhere to go (every server already holds it) stays
        where it is.
        """
        moved: list[int] = []
        targets: list[int] = []
        num_servers = self.topology.num_servers
        for block_id in self._ids_on(server).tolist():
            replicas = self._replicas[block_id].tolist()
            survivors = [s for s in replicas if s != server]
            # The candidates: servers without a replica, outside the
            # survivors' racks if any such server exists.
            free = np.ones(num_servers, dtype=bool)
            free[replicas] = False
            rack_free = np.ones(self.topology.num_racks, dtype=bool)
            rack_free[self._rack[survivors]] = False
            pool = np.flatnonzero(free & rack_free[self._rack])
            if not pool.size:
                pool = np.flatnonzero(free)
            if not pool.size:
                continue  # degenerate cluster: nowhere to go
            new_server = _pick(self._rng, pool)
            self._replicas[block_id] = survivors + [new_server]
            moved.append(block_id)
            targets.append(new_server)
        blocks = self._values(np.array(moved, dtype=np.int64))
        return [(block, server, target) for block, target in zip(blocks, targets)]
