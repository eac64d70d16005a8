"""Fluid (rate-based) transport with max-min fair bandwidth sharing.

Flows are modelled as fluid: between simulation events every flow moves
bytes at a constant rate, and rates are the max-min fair allocation over
the directed links of each flow's path (progressive filling).  This is
the standard abstraction for TCP-dominated datacenter traffic at second
granularity — the paper's cluster runs "near ubiquitous ... TCP" (§8),
whose long-run behaviour approximates fair sharing at the bottleneck.

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
:data:`~repro.simulation.waterfill.INCREMENTAL_RTOL`).

**One maintained active-flow table.**  The transport holds only its
active flows, one entry each in ascending slot order: a
:class:`~repro.simulation.waterfill.IncidenceTable` (the slots, each
slot's links, each link's slots in ascending order and per-link
counts), a path table padded with the sentinel link ``num_links``, and
one float row per flow (remaining bytes, rate, start time).  Only
:meth:`FluidTransport.add_flow` and the completion of drained flows
change it, each by one splice; nothing is rebuilt per allocation or per
integration step.  The exact heap regime reads the table's per-link
counts and slot lists directly; the other allocators take the
``-1``-padded ``(paths, valid)`` pair derived from the path table.  A
slot is a flow's stable id, reused last-freed-first, else the next
unused one.

Every per-flow reduction has one fixed order, which the pinned output
digests depend on: ascending slot order.  ``advance_to``'s ``bincount``
adds the per-link rates flow by flow in slot order, each flow's hops in
path order (the sentinel padding lands in a bin that is dropped), the
heap regime sums each round's per-link consumption in slot order, and
drained flows finish in slot order.  :meth:`FluidTransport.active_flows`
is the read-only view of the table for checkers, tests and benchmarks.

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

__all__ = ["ActiveFlows", "TransferMeta", "Transfer", "FluidTransport", "LoadSink"]

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


class FluidTransport:
    """Shared-bandwidth fluid flow simulator over a cluster topology."""

    #: Family tag used by the simulator dispatch and the validate layer.
    family = "fluid"

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
        self.topology = topology
        self.fairness = fairness
        self.impl = impl
        self.sinks: list[LoadSink] = list(sinks) if sinks else []
        self.capacities = topology.capacities.copy()
        self.num_links = topology.num_links
        self.max_path = 8

        # Slots are stable flow ids: a finished flow's slot is reused
        # first (last freed, first reused), else the next unused one.
        # Ascending slot order is the order of every per-flow reduction.
        self._free_slots: list[int] = []
        #: Per slot: (src, dst, size, meta, on_complete) of an active flow.
        self._flow_info: list[
            tuple[int, int, float, TransferMeta,
                  Callable[[Transfer], None] | None] | None
        ] = []
        #: The active slots in ascending order, each slot's links and
        #: each link's slots, updated by ``add_flow`` and completion; the
        #: exact heap regime reads it instead of rebuilding an incidence.
        self._incidence = IncidenceTable(self.num_links)
        # The rest of the compact active-flow state, one row per active
        # flow in the table's slot order (see ``_set_active``).
        self._set_active(
            np.empty((0, self.max_path), dtype=np.int64), np.empty((0, 3))
        )

        self.now = 0.0
        self.rates_dirty = False
        self._completed_buffer: list[tuple[Transfer, Callable[[Transfer], None] | None]] = []
        self._next_transfer_id = 0
        self.transfers_started = 0
        #: Telemetry: fair-share allocation passes and concurrency peak.
        self.rate_recomputes = 0
        self.peak_active = 0

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
        """Install the path table and the per-flow float rows."""
        #: Path rows padded with the sentinel link ``num_links``, whose
        #: bincount bin is dropped, so padding adds to no real link.
        self._links = links
        #: Per flow: remaining bytes, allocated rate, start time.
        self._state = state
        self._remaining = state[:, 0]
        self._rates = state[:, 1]
        self._start_times = state[:, 2]

    def _padded_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """``(paths, valid)`` of the active flows, padded with ``-1``."""
        valid = self._links != self.num_links
        return np.where(valid, self._links, -1), valid

    def _link_rates(self) -> np.ndarray:
        """Bytes/s per link under the current rates.

        ``bincount`` adds flow by flow in slot order, each flow's hops in
        path order; the padding lands in the sentinel bin, dropped here.
        """
        return np.bincount(
            self._links.ravel(),
            weights=np.repeat(self._rates, self.max_path),
            minlength=self.num_links + 1,
        )[: self.num_links]

    @property
    def active_count(self) -> int:
        """Number of in-flight flows."""
        return len(self._incidence.slots)

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
            _insert_row(self._state, at, (size, 0.0, self.now)),
        )
        if self._inc is not None:
            self._inc.on_add(slot, path_links)
        self.rates_dirty = True
        self.transfers_started += 1
        active = len(self._incidence.slots)
        if active > self.peak_active:
            self.peak_active = active
        return slot

    def advance_to(self, time: float) -> None:
        """Integrate current rates up to ``time`` and complete drained flows."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        dt = time - self.now
        active = len(self._incidence.slots)
        if dt > 0 and active:
            if self.sinks:
                link_rates = self._link_rates()
                loaded = np.flatnonzero(link_rates)
                if loaded.size:
                    for sink in self.sinks:
                        sink.add_interval_bulk(
                            loaded, link_rates[loaded], self.now, time,
                            unique_keys=True,
                        )
            remaining = self._remaining
            np.maximum(remaining - self._rates * dt, 0.0, out=remaining)
        self.now = max(self.now, time)
        if active:
            drained = np.flatnonzero(self._remaining <= _EPS_BYTES)
            if drained.size:
                self._finish(drained)

    def _finish(self, drained: np.ndarray) -> None:
        """Complete the active flows at ``drained`` (ascending positions).

        Flows finish in slot order, so transfer ids, the incremental
        allocator's releases and the free-slot stack see one fixed order.
        """
        positions = drained.tolist()
        slots = self._incidence.slots
        finished = [slots[position] for position in positions]
        starts = self._start_times[drained].tolist()
        for slot, start in zip(finished, starts):
            info = self._flow_info[slot]
            assert info is not None
            src, dst, size, meta, on_complete = info
            transfer = Transfer(
                transfer_id=self._next_transfer_id,
                src=src,
                dst=dst,
                size=size,
                start_time=start,
                end_time=self.now,
                meta=meta,
            )
            self._completed_buffer.append((transfer, on_complete))
            self._next_transfer_id += 1
            if self._inc is not None:
                self._inc.on_remove(slot)
            self._incidence.remove(slot)
            self._flow_info[slot] = None
            self._free_slots.append(slot)
        self._set_active(
            _drop_rows(self._links, positions), _drop_rows(self._state, positions)
        )
        self.rates_dirty = True

    def pop_completed(
        self,
    ) -> list[tuple[Transfer, Callable[[Transfer], None] | None]]:
        """Return and clear (transfer, callback) pairs completed since the
        last call.  The transport never invokes callbacks itself: the
        simulator decides dispatch order."""
        completed = self._completed_buffer
        self._completed_buffer = []
        return completed

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

    def active_rates(self) -> np.ndarray:
        """Current allocated rates (bytes/s) of the in-flight flows."""
        return self._rates.copy()

    def utilization_snapshot(self) -> np.ndarray:
        """Instantaneous per-link utilisation under current rates."""
        return self._link_rates() / self.capacities


def _insert_row(array: np.ndarray, at: int, row) -> np.ndarray:
    """``array`` with ``row`` inserted before row ``at``."""
    out = np.empty((array.shape[0] + 1, *array.shape[1:]), dtype=array.dtype)
    out[:at] = array[:at]
    out[at] = row
    out[at + 1 :] = array[at:]
    return out


def _drop_rows(array: np.ndarray, positions: list[int]) -> np.ndarray:
    """``array`` without the rows at the ascending ``positions``."""
    bounds = [-1, *positions, array.shape[0]]
    return np.concatenate(
        [array[start + 1 : end] for start, end in zip(bounds, bounds[1:])]
    )
