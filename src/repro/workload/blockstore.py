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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.topology import ClusterTopology

__all__ = ["Block", "Dataset", "BlockStore"]


def _pick(rng: np.random.Generator, seq: list[int]) -> int:
    """One uniform draw from ``seq``.

    The same draw as ``int(rng.choice(seq))``, which picks
    ``rng.integers(len(seq))`` too, without its conversion of the list
    to an array: about a fifth of the cost, and placement makes one to
    three of these draws per block.
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

    # ------------------------------------------------------------- placement

    def choose_replicas(self, writer: int | None = None) -> tuple[int, ...]:
        """Pick replica servers for a new block.

        ``writer`` anchors the first replica (local write); when ``None``
        (e.g. externally ingested data) a random server is picked.
        """
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
        dataset = Dataset(dataset_id=self._next_dataset_id, name=name)
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

    def add_block(self, dataset: Dataset, size: float, writer: int | None = None) -> Block:
        """Append one block to a dataset and record its placement."""
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
