"""The active-flow table both transport families share, and the fluid
(rate-based) transport with max-min fair bandwidth sharing.

:class:`Transport` holds the in-flight flows and turns drained ones into
:class:`Transfer` records; :class:`FluidTransport` here and
:class:`~repro.simulation.cc.transport.QueuedTransport` subclass it and
keep only their physics.

Fluid flows move bytes at a constant rate between simulation events,
and rates are the max-min fair allocation over the directed links of
each flow's path (progressive filling).  This is the standard
abstraction for TCP-dominated datacenter traffic at second granularity
— the paper's cluster runs "near ubiquitous ... TCP" (§8), whose
long-run behaviour approximates fair sharing at the bottleneck.

A cheaper ``bottleneck`` mode allocates each flow ``capacity / count`` on
its most contended link without redistributing leftovers; it serves as an
ablation and a cross-check on the exact allocator.

The water-filling itself lives in :mod:`repro.simulation.waterfill`.
``SimulationConfig.transport_impl`` picks one of two allocators:
``vectorized`` (the exact one: a heap loop over the maintained table,
or the batched CSR elimination at large active sets, both bit-identical
to the round-based reference loop) and ``incremental`` (the allocator
that re-solves only the affected bottleneck subgraph on each
arrival/departure — tolerance-based, see
:data:`~repro.simulation.waterfill.INCREMENTAL_RTOL`).  The exact heap
regime reads the table's per-link counts and slot lists directly and
sums each round's per-link consumption in slot order; the other
allocators take the ``-1``-padded ``(paths, valid)`` pair derived from
the path table.  :meth:`FluidTransport.active_flows` is the read-only
view of the table for checkers, tests and benchmarks.

Completion scheduling is structure-of-arrays: instead of per-transfer
event objects, the transport keeps a **completion frontier** — the next
:data:`_FRONTIER_DEPTH` completion times, selected with one
``argpartition`` over ``remaining / rate`` and invalidated by a rate
*epoch* bump on each allocation pass.  The engine polls
:meth:`FluidTransport.next_completion_wakeup` as a dynamic time source,
so cancelling/re-scheduling a completion is a version bump, never a
heap operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..cluster.topology import ClusterTopology
from .waterfill import (
    IncidenceTable,
    IncrementalMaxMin,
    bottleneck_rates,
    maxmin_rates_vectorized,
)

__all__ = [
    "ActiveFlows", "TransferMeta", "Transfer", "Transport", "FluidTransport",
    "LoadSink",
]

#: Accepted ``impl`` constructor values: the fluid half of
#: ``SimulationConfig.transport_impl``.
TRANSPORT_IMPLS = ("vectorized", "incremental")

#: Completion-frontier depth: how many upcoming completion times are
#: materialised per rate epoch.  Deep enough to absorb a burst of
#: completions inside one rate-update window without a rescan.
_FRONTIER_DEPTH = 64

#: A flow is considered drained when this many bytes remain (absorbs
#: floating-point integration error; far below any real transfer size).
_EPS_BYTES = 0.5
#: Minimum allocated rate (bytes/s), guarding against zero-rate stalls
#: from floating-point cancellation in the water-filling loop.
_MIN_RATE = 1.0


class LoadSink(Protocol):
    """Anything that accumulates per-link byte loads over intervals."""

    def add_interval_bulk(
        self,
        keys: np.ndarray,
        rates: np.ndarray,
        start: float,
        end: float,
        unique_keys: bool = False,
    ) -> None:
        """Integrate ``rates`` (bytes/s) for ``keys`` over ``[start, end)``.

        ``unique_keys=True`` promises ``keys`` has no duplicates, letting
        implementations use a fast accumulation path.
        """


@dataclass(frozen=True)
class TransferMeta:
    """Application context attached to a transfer.

    The instrumentation layer uses this to tag socket events with the
    process/job that produced them — the linkage that lets the paper
    attribute congestion to application phases (§4.2).
    """

    kind: str
    job_id: int | None = None
    phase_index: int | None = None
    vertex_id: int | None = None
    connection_key: tuple | None = None


@dataclass(frozen=True)
class Transfer:
    """A completed transfer (ground truth, before instrumentation)."""

    transfer_id: int
    src: int
    dst: int
    size: float
    start_time: float
    end_time: float
    meta: TransferMeta = field(default=TransferMeta(kind="unknown"))

    @property
    def duration(self) -> float:
        """Wall-clock transfer duration in seconds."""
        return self.end_time - self.start_time

    @property
    def mean_rate(self) -> float:
        """Average achieved rate in bytes/s."""
        duration = self.duration
        return self.size / duration if duration > 0 else float("inf")


@dataclass(frozen=True)
class ActiveFlows:
    """Read-only snapshot of a fluid transport's in-flight flows.

    One entry per flow in ascending slot order: the order of every
    per-flow reduction in the transport and the allocators.  ``paths``
    holds each flow's links in path order, padded with ``-1``, and
    ``valid`` marks the real hops: the ``(paths, valid)`` pair every
    allocator in :mod:`repro.simulation.waterfill` accepts.
    """

    slots: np.ndarray
    paths: np.ndarray
    valid: np.ndarray
    rates: np.ndarray
    remaining: np.ndarray
    start_times: np.ndarray


#: A completed transfer and the callback its flow was started with.
Completion = tuple[Transfer, Callable[[Transfer], None] | None]


class Transport:
    """The active-flow table both transport families keep.

    A transport holds only its active flows, one entry each in ascending
    slot order: a :class:`~repro.simulation.waterfill.IncidenceTable`
    (the slots, each slot's links, each link's slots in ascending order
    and per-link counts), a path table padded to ``max_path`` hops with
    the sentinel link ``num_links``, and a float block with one row per
    name in ``_ROWS`` and one column per flow.  Only :meth:`add_flow`
    and the completion of drained flows (:meth:`_finish`) change it,
    each by one splice, so nothing is rebuilt per step.  The table is
    the only copy of a flow's state; a slot is a flow's stable id,
    reused last-freed-first, else the next unused one, and the key of
    its ``(src, dst, size, meta, on_complete)`` record.

    Every per-flow reduction has one fixed order, which the pinned
    output digests depend on: ascending slot order.  The ``bincount``
    of :meth:`_link_sums` adds flow by flow in slot order, each flow's
    hops in path order (the padding lands in the sentinel bin, which is
    dropped), and drained flows finish in slot order, so transfer ids
    and the free-slot stack see one order too.

    A subclass keeps only its physics.  It names its float rows in
    ``_ROWS``, binds them (``_start_times`` among them) in
    :meth:`_set_active` and gives a new flow's column in
    :meth:`_initial_column`; it extends :meth:`add_flow` and
    :meth:`_finish` by its own step at arrival and completion.
    """

    #: Family tag used by the simulator dispatch and the validate layer.
    family: str
    #: Names of the float block's rows, in the order ``_set_active``
    #: binds them.
    _ROWS: tuple[str, ...]

    def __init__(
        self, topology: ClusterTopology, sinks: list[LoadSink] | None = None
    ) -> None:
        self.topology = topology
        self.sinks: list[LoadSink] = list(sinks) if sinks else []
        self.capacities = topology.capacities.copy()
        self.num_links = topology.num_links
        self.max_path = 8
        self._free_slots: list[int] = []
        #: Per slot: (src, dst, size, meta, on_complete) of an active flow.
        self._flow_info: list[
            tuple[int, int, float, TransferMeta,
                  Callable[[Transfer], None] | None] | None
        ] = []
        self._incidence = IncidenceTable(self.num_links)
        self._set_active(
            np.empty((0, self.max_path), dtype=np.int64),
            np.empty((len(self._ROWS), 0)),
        )
        self.now = 0.0
        self._completed_buffer: list[Completion] = []
        self._next_transfer_id = 0
        self.transfers_started = 0
        self.peak_active = 0

    # ---------------------------------------------------------- active set

    def _set_active(self, links: np.ndarray, state: np.ndarray) -> None:
        """Install the path table and the float block; subclasses bind
        the block's named rows."""
        self._links = links
        self._state = state

    def _initial_column(self, size: float) -> tuple[float, ...]:
        """The float block's column of a ``size``-byte flow starting now."""
        raise NotImplementedError

    def _link_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-link sums of the per-flow ``values``, in slot order."""
        return np.bincount(
            self._links.ravel(),
            weights=np.repeat(values, self.max_path),
            minlength=self.num_links + 1,
        )[: self.num_links]

    def _emit_loads(self, link_rates: np.ndarray, end: float) -> None:
        """Hand every loaded link's rate over ``[now, end)`` to the sinks."""
        loaded = np.flatnonzero(link_rates)
        if loaded.size:
            rates = link_rates[loaded]
            for sink in self.sinks:
                sink.add_interval_bulk(
                    loaded, rates, self.now, end, unique_keys=True
                )

    @property
    def active_count(self) -> int:
        """Number of in-flight flows."""
        return len(self._incidence.slots)

    # ---------------------------------------------------------------- flows

    def add_flow(
        self,
        src: int,
        dst: int,
        size: float,
        path_links: tuple[int, ...],
        meta: TransferMeta,
        on_complete: Callable[[Transfer], None] | None = None,
    ) -> int:
        """Start a flow at the current time; returns its slot id.

        Zero-length paths (local transfers) are not flows; callers handle
        those without touching the transport.
        """
        if size <= 0:
            raise ValueError("flow size must be positive")
        if not path_links:
            raise ValueError("flow path must cross at least one link")
        if len(path_links) > self.max_path:
            raise ValueError("path exceeds transport's max path length")
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._flow_info)
            self._flow_info.append(None)
        self._flow_info[slot] = (int(src), int(dst), float(size), meta, on_complete)
        at = self._incidence.add(slot, path_links)
        links = [*path_links, *[self.num_links] * (self.max_path - len(path_links))]
        self._set_active(
            _insert_row(self._links, at, links),
            _insert_column(self._state, at, self._initial_column(float(size))),
        )
        self.transfers_started += 1
        active = len(self._incidence.slots)
        if active > self.peak_active:
            self.peak_active = active
        return slot

    def _finish(self, drained: np.ndarray) -> list[Transfer]:
        """Complete the active flows at ``drained`` (ascending positions);
        returns their transfers, in slot order."""
        positions = drained.tolist()
        slots = self._incidence.slots
        finished = [slots[position] for position in positions]
        starts = self._start_times[drained].tolist()
        transfers = []
        for slot, start in zip(finished, starts):
            src, dst, size, meta, on_complete = self._flow_info[slot]
            transfer = Transfer(
                transfer_id=self._next_transfer_id,
                src=src,
                dst=dst,
                size=size,
                start_time=start,
                end_time=self.now,
                meta=meta,
            )
            transfers.append(transfer)
            self._completed_buffer.append((transfer, on_complete))
            self._next_transfer_id += 1
            self._incidence.remove(slot)
            self._flow_info[slot] = None
            self._free_slots.append(slot)
        self._set_active(
            _drop_rows(self._links, positions),
            _drop_columns(self._state, positions),
        )
        return transfers

    def pop_completed(self) -> list[Completion]:
        """Return and clear (transfer, callback) pairs completed since the
        last call.  The transport never invokes callbacks itself: the
        simulator decides dispatch order."""
        completed = self._completed_buffer
        self._completed_buffer = []
        return completed

    def earliest_active_start(self) -> float | None:
        """Start time of the oldest in-flight flow, or ``None`` if idle.

        The streaming recorder uses this as its emission watermark: the
        collector timestamps a transfer's events across its lifetime, so
        no future completion can emit an event before the oldest active
        flow's start time (minus clock skew).
        """
        if not self._incidence.slots:
            return None
        return float(self._start_times.min())

    def utilization_snapshot(self) -> np.ndarray:
        """Per-link utilisation under the rates :meth:`active_rates` reports."""
        return self._link_sums(self.active_rates()) / self.capacities


class FluidTransport(Transport):
    """Shared-bandwidth fluid flow simulator over a cluster topology."""

    family = "fluid"
    _ROWS = ("remaining", "rate", "start_time")

    def __init__(
        self,
        topology: ClusterTopology,
        sinks: list[LoadSink] | None = None,
        fairness: str = "maxmin",
        impl: str = "vectorized",
    ) -> None:
        if fairness not in ("maxmin", "bottleneck"):
            raise ValueError(f"unknown fairness mode {fairness!r}")
        if impl not in TRANSPORT_IMPLS:
            raise ValueError(f"unknown transport impl {impl!r}")
        super().__init__(topology, sinks)
        self.fairness = fairness
        self.impl = impl
        self.rates_dirty = False
        #: Telemetry: fair-share allocation passes.
        self.rate_recomputes = 0

        #: Incremental allocator state (``impl="incremental"`` only).
        self._inc: IncrementalMaxMin | None = (
            IncrementalMaxMin(self.capacities, self.num_links)
            if impl == "incremental"
            else None
        )

        #: Rate epoch: bumped by every allocation pass.  The completion
        #: frontier below is valid for exactly one epoch; invalidating it
        #: is this counter bump, replacing per-transfer event cancel.
        self.rates_epoch = 0
        self._frontier_epoch = -1
        self._frontier_times: np.ndarray = np.empty(0)
        self._frontier_slots: list[int] = []
        self._frontier_pos = 0
        self._frontier_truncated = False
        #: Slot/time of the earliest completion at the epoch rebuild; the
        #: engine's wakeup source fires once per epoch on this head (the
        #: legacy scheduler's single completion event, minus the heap).
        self._frontier_head_slot = -1
        self._frontier_head_time = 0.0
        self.frontier_rebuilds = 0

    # ---------------------------------------------------------- active set

    def _set_active(self, links: np.ndarray, state: np.ndarray) -> None:
        super()._set_active(links, state)
        self._remaining, self._rates, self._start_times = state

    def _initial_column(self, size: float) -> tuple[float, ...]:
        return (size, 0.0, self.now)

    def _padded_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """``(paths, valid)`` of the active flows, padded with ``-1``."""
        valid = self._links != self.num_links
        return np.where(valid, self._links, -1), valid

    def active_flows(self) -> ActiveFlows:
        """Snapshot of the in-flight flows (copies; reading it changes
        nothing in the transport)."""
        paths, valid = self._padded_paths()
        return ActiveFlows(
            slots=np.array(self._incidence.slots, dtype=np.int64),
            paths=paths,
            valid=valid,
            rates=self._rates.copy(),
            remaining=self._remaining.copy(),
            start_times=self._start_times.copy(),
        )

    # ---------------------------------------------------------------- flows

    def add_flow(
        self,
        src: int,
        dst: int,
        size: float,
        path_links: tuple[int, ...],
        meta: TransferMeta,
        on_complete: Callable[[Transfer], None] | None = None,
    ) -> int:
        slot = super().add_flow(src, dst, size, path_links, meta, on_complete)
        if self._inc is not None:
            self._inc.on_add(slot, path_links)
        self.rates_dirty = True
        return slot

    def advance_to(self, time: float) -> None:
        """Integrate current rates up to ``time`` and complete drained flows."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        dt = time - self.now
        active = len(self._incidence.slots)
        if dt > 0 and active:
            if self.sinks:
                self._emit_loads(self._link_sums(self._rates), time)
            remaining = self._remaining
            np.maximum(remaining - self._rates * dt, 0.0, out=remaining)
        self.now = max(self.now, time)
        if active:
            drained = np.flatnonzero(self._remaining <= _EPS_BYTES)
            if drained.size:
                self._finish(drained)

    def _finish(self, drained: np.ndarray) -> list[Transfer]:
        # The incremental allocator releases the flows in slot order too.
        if self._inc is not None:
            slots = self._incidence.slots
            for position in drained.tolist():
                self._inc.on_remove(slots[position])
        transfers = super()._finish(drained)
        self.rates_dirty = True
        return transfers

    # ---------------------------------------------------------------- rates

    def recompute_rates(self) -> None:
        """Re-run the fair-share allocation for the current active set."""
        self.rate_recomputes += 1
        self.rates_epoch += 1
        if not self._incidence.slots:
            self.rates_dirty = False
            return
        if self.fairness == "maxmin":
            rates = self._maxmin_rates()
        else:
            rates = bottleneck_rates(
                *self._padded_paths(), self.capacities, self.num_links
            )
        np.maximum(rates, _MIN_RATE, out=self._rates)
        self.rates_dirty = False

    def _maxmin_rates(self) -> np.ndarray:
        """Max-min fair allocation via the configured allocator.

        Both allocators live in :mod:`repro.simulation.waterfill`.
        ``vectorized`` reproduces the round-based reference loop bit for
        bit, reading the maintained incidence table on the heap path;
        ``incremental`` re-solves only the affected bottleneck subgraph
        and is equivalent within
        :data:`~repro.simulation.waterfill.INCREMENTAL_RTOL`.
        """
        paths, valid = self._padded_paths()
        if self._inc is not None:
            return self._inc.solve(
                np.array(self._incidence.slots, dtype=np.int64), paths, valid,
                table=self._incidence,
            )
        return maxmin_rates_vectorized(
            paths, valid, self.capacities, self.num_links, table=self._incidence
        )

    # ------------------------------------------------------------- frontier

    def _rebuild_frontier(self, *, set_head: bool) -> None:
        """Materialise the next :data:`_FRONTIER_DEPTH` completion times.

        One vectorised pass (``argpartition`` over ``remaining / rate``)
        replaces per-transfer completion events.  Rates are constant
        within an epoch and ``remaining`` is integrated to ``self.now``
        before any query, so absolute completion times computed here stay
        exact for the whole epoch.  ``set_head`` records the epoch head
        for :meth:`next_completion_wakeup`; mid-epoch rebuilds (frontier
        exhausted after a truncation) keep the original head.
        """
        self.frontier_rebuilds += 1
        slots = self._incidence.slots
        active = len(slots)
        if active == 0:
            horizons = np.empty(0)
            sel = np.empty(0, dtype=np.int64)
        else:
            rates = self._rates
            with np.errstate(divide="ignore"):
                horizons = np.where(rates > 0, self._remaining / rates, np.inf)
            if horizons.size > _FRONTIER_DEPTH:
                sel = np.argpartition(horizons, _FRONTIER_DEPTH - 1)[:_FRONTIER_DEPTH]
            else:
                sel = np.arange(horizons.size)
            sel = sel[np.argsort(horizons[sel], kind="stable")]
            sel = sel[np.isfinite(horizons[sel])]
        self._frontier_times = self.now + horizons[sel]
        self._frontier_slots = [slots[position] for position in sel.tolist()]
        self._frontier_pos = 0
        self._frontier_truncated = active > sel.size and bool(
            sel.size == _FRONTIER_DEPTH
        )
        self._frontier_epoch = self.rates_epoch
        if set_head:
            if sel.size:
                self._frontier_head_slot = self._frontier_slots[0]
                self._frontier_head_time = float(self._frontier_times[0])
            else:
                self._frontier_head_slot = -1

    def _occupied(self, slot: int) -> bool:
        """Whether ``slot`` holds an in-flight flow."""
        return self._flow_info[slot] is not None

    def next_completion_time(self) -> float | None:
        """Earliest time an active flow drains at current rates, or ``None``."""
        if self._frontier_epoch != self.rates_epoch:
            self._rebuild_frontier(set_head=True)
        for _ in range(2):
            times, slots = self._frontier_times, self._frontier_slots
            while self._frontier_pos < len(slots):
                pos = self._frontier_pos
                if self._occupied(slots[pos]):
                    return max(float(times[pos]), self.now)
                self._frontier_pos += 1
            if not self._frontier_truncated:
                return None
            # The materialised prefix drained entirely within this epoch;
            # rescan the survivors (same rates, so times stay exact).
            self._rebuild_frontier(set_head=False)
        return None

    def next_completion_wakeup(self) -> float | None:
        """Dynamic engine wakeup: this epoch's earliest completion.

        Fires once per rate epoch — after the head flow drains the next
        wakeup is the rate recompute, which starts a fresh epoch.  This
        reproduces the legacy scheduler exactly (it kept one completion
        event, re-armed only on recompute), so event logs stay
        bit-identical while cancel/re-schedule becomes an epoch bump.
        """
        if self._frontier_epoch != self.rates_epoch:
            self._rebuild_frontier(set_head=True)
        head = self._frontier_head_slot
        if head < 0 or not self._occupied(head):
            return None
        return max(self._frontier_head_time, self.now)

    # ------------------------------------------------------------- inspection

    def active_rates(self) -> np.ndarray:
        """Current allocated rates (bytes/s) of the in-flight flows."""
        return self._rates.copy()


def _insert_row(array: np.ndarray, at: int, row) -> np.ndarray:
    """``array`` with ``row`` inserted before row ``at``."""
    out = np.empty((array.shape[0] + 1, *array.shape[1:]), dtype=array.dtype)
    out[:at] = array[:at]
    out[at] = row
    out[at + 1 :] = array[at:]
    return out


def _insert_column(array: np.ndarray, at: int, column) -> np.ndarray:
    """``array`` with ``column`` inserted before column ``at``."""
    out = np.empty((array.shape[0], array.shape[1] + 1), dtype=array.dtype)
    out[:, :at] = array[:, :at]
    out[:, at] = column
    out[:, at + 1 :] = array[:, at:]
    return out


def _drop_rows(array: np.ndarray, positions: list[int]) -> np.ndarray:
    """``array`` without the rows at the ascending ``positions``."""
    bounds = [-1, *positions, array.shape[0]]
    return np.concatenate(
        [array[start + 1 : end] for start, end in zip(bounds, bounds[1:])]
    )


def _drop_columns(array: np.ndarray, positions: list[int]) -> np.ndarray:
    """``array`` without the columns at the ascending ``positions``."""
    bounds = [-1, *positions, array.shape[1]]
    return np.concatenate(
        [array[:, start + 1 : end] for start, end in zip(bounds, bounds[1:])],
        axis=1,
    )
