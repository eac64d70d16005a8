"""Queue-aware window-based transports: DCTCP, Reno, fixed-K ECN.

:class:`QueuedTransport` is the ``"queued"``-family counterpart of
:class:`~repro.simulation.transport.FluidTransport`, presenting the same
simulator-facing surface (``add_flow`` / ``advance_to`` /
``pop_completed`` / dynamic wakeup) so :class:`~repro.simulation.simulator.Simulator`
can swap it in behind ``SimulationConfig.transport_impl``.  Instead of
an ideal max-min allocation it integrates a fluid-window model on a
fixed tick: every flow paces ``cwnd / rtt`` into per-link FIFO queues
(:class:`~repro.simulation.cc.queue.LinkQueues`), where bytes are
CE-marked past the fixed threshold K and tail-dropped past the buffer;
RTTs include live queueing delay, and once per RTT each flow closes a
*round* and applies its variant's window transition
(:mod:`~repro.simulation.cc.cwnd`).  A round that loses at least
``timeout_loss_fraction`` of its bytes is a whole-window loss: the flow
collapses to the minimum window and sits out ``min_rto`` — the
serialisation mechanism behind incast goodput collapse (§4.4).

The engine cadence reuses the dynamic-time-source hook: the transport's
``next_completion_wakeup`` simply asks for ``now + tick`` while any flow
is active or any queue holds bytes, so no engine or simulator scheduling
changes are needed.  ``rates_dirty`` is permanently ``False`` — there is
no allocation pass to re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...cluster.topology import ClusterTopology
from ..transport import LoadSink, Transfer, TransferMeta
from .cwnd import (
    CC_VARIANTS,
    dctcp_cut,
    dctcp_update_alpha,
    grow,
    halve,
    timeout_collapse,
)
from .params import CongestionControlConfig
from .queue import LinkQueues

__all__ = ["CCReport", "QueuedTransport"]

#: A flow is complete when this many bytes remain un-acknowledged.
_EPS_BYTES = 0.5
#: Slack for "is this round due" / "is this flow stalled" comparisons.
_EPS_TIME = 1e-12


@dataclass(frozen=True)
class CCReport:
    """End-of-run observables of a queued-transport campaign.

    The per-flow arrays are aligned over *completed* flows in completion
    order; the per-link ledgers duck-type
    :class:`~repro.simulation.cc.queue.LinkQueues` so the
    ``transport.queue_conservation`` checker accepts either a live
    transport's queues or this archived report.
    """

    variant: str
    ticks: int
    flow_fct: np.ndarray
    flow_sizes: np.ndarray
    flow_retransmitted_bytes: np.ndarray
    flow_timeouts: np.ndarray
    flow_mean_rtt: np.ndarray
    marked_packets: float
    dropped_packets: float
    forwarded_packets: float
    enqueued_bytes: np.ndarray
    dequeued_bytes: np.ndarray
    dropped_bytes: np.ndarray
    resident_bytes: np.ndarray
    peak_queue_bytes: float

    @property
    def completed_flows(self) -> int:
        """Number of flows that finished during the run."""
        return int(self.flow_fct.size)

    @property
    def total_retransmitted_bytes(self) -> float:
        """Bytes re-sent after loss, summed over completed flows."""
        return float(self.flow_retransmitted_bytes.sum())

    @property
    def total_timeouts(self) -> float:
        """Whole-window RTO events, summed over completed flows."""
        return float(self.flow_timeouts.sum())


class QueuedTransport:
    """Discrete-stepped congestion-controlled transport with FIFO queues."""

    #: Family tag used by the simulator dispatch and the validate layer.
    family = "queued"

    def __init__(
        self,
        topology: ClusterTopology,
        sinks: list[LoadSink] | None = None,
        impl: str = "dctcp",
        params: CongestionControlConfig | None = None,
        initial_capacity: int = 256,
    ) -> None:
        if impl not in CC_VARIANTS:
            raise ValueError(
                f"unknown queued transport impl {impl!r}; "
                f"expected one of {CC_VARIANTS}"
            )
        self.impl = impl
        self.params = params or CongestionControlConfig()
        self.topology = topology
        self.sinks: list[LoadSink] = list(sinks) if sinks else []
        #: Sinks that also understand queue-depth series (duck-typed so a
        #: plain byte-load sink still works unchanged).
        self._depth_sinks = [
            sink for sink in self.sinks if hasattr(sink, "add_queue_depth_bulk")
        ]
        self.capacities = topology.capacities.copy()
        self.num_links = topology.num_links
        self.max_path = 8
        self.queues = LinkQueues(self.num_links, self.capacities, self.params)

        size = max(16, initial_capacity)
        self._paths = np.full((size, self.max_path), -1, dtype=np.int64)
        self._remaining = np.zeros(size, dtype=float)
        self._active = np.zeros(size, dtype=bool)
        self._meta: list[TransferMeta | None] = [None] * size
        self._on_complete: list[Callable[[Transfer], None] | None] = [None] * size
        self._src = np.zeros(size, dtype=np.int64)
        self._dst = np.zeros(size, dtype=np.int64)
        self._sizes = np.zeros(size, dtype=float)
        self._start_times = np.zeros(size, dtype=float)
        # Congestion-control state, per slot (windows in packets).
        self._cwnd = np.zeros(size, dtype=float)
        self._ssthresh = np.zeros(size, dtype=float)
        self._alpha = np.zeros(size, dtype=float)
        self._rto_until = np.full(size, -np.inf)
        self._round_end = np.zeros(size, dtype=float)
        self._round_sent = np.zeros(size, dtype=float)
        self._round_lost = np.zeros(size, dtype=float)
        self._round_marked = np.zeros(size, dtype=float)
        self._retx_bytes = np.zeros(size, dtype=float)
        self._timeouts = np.zeros(size, dtype=np.int64)
        self._rtt_weighted = np.zeros(size, dtype=float)
        self._sent_total = np.zeros(size, dtype=float)
        self._free_slots: list[int] = list(range(size - 1, -1, -1))

        self.now = 0.0
        self._completed_buffer: list[
            tuple[Transfer, Callable[[Transfer], None] | None]
        ] = []
        self._next_transfer_id = 0
        self.transfers_started = 0
        self.peak_active = 0
        self.ticks = 0
        self.peak_queue_bytes = 0.0
        # Per-completed-flow records, in completion order.
        self._fct: list[float] = []
        self._done_sizes: list[float] = []
        self._done_retx: list[float] = []
        self._done_timeouts: list[int] = []
        self._done_mean_rtt: list[float] = []

        # Fluid-transport surface compatibility: the simulator reads
        # these unconditionally when publishing telemetry, and the
        # recompute machinery must never trigger for a queued transport.
        self.rates_dirty = False
        self.rate_recomputes = 0
        self.frontier_rebuilds = 0
        self._inc = None

    # ---------------------------------------------------------------- slots

    def _grow(self) -> None:
        old = self._paths.shape[0]
        self._paths = np.vstack(
            [self._paths, np.full((old, self.max_path), -1, dtype=np.int64)]
        )
        for name in (
            "_remaining", "_src", "_dst", "_sizes", "_start_times",
            "_cwnd", "_ssthresh", "_alpha", "_round_end", "_round_sent",
            "_round_lost", "_round_marked", "_retx_bytes", "_rtt_weighted",
            "_sent_total", "_timeouts",
        ):
            array = getattr(self, name)
            setattr(
                self, name,
                np.concatenate([array, np.zeros(old, dtype=array.dtype)]),
            )
        self._rto_until = np.concatenate(
            [self._rto_until, np.full(old, -np.inf)]
        )
        self._active = np.concatenate([self._active, np.zeros(old, dtype=bool)])
        self._meta.extend([None] * old)
        self._on_complete.extend([None] * old)
        self._free_slots.extend(range(old * 2 - 1, old - 1, -1))

    @property
    def active_count(self) -> int:
        """Number of in-flight flows."""
        return int(self._active.sum())

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
        """Start a flow at the current time; returns its slot id."""
        if size <= 0:
            raise ValueError("flow size must be positive")
        if not path_links:
            raise ValueError("flow path must cross at least one link")
        if len(path_links) > self.max_path:
            raise ValueError("path exceeds transport's max path length")
        if not self._free_slots:
            self._grow()
        params = self.params
        slot = self._free_slots.pop()
        self._paths[slot, :] = -1
        self._paths[slot, : len(path_links)] = path_links
        self._remaining[slot] = size
        self._active[slot] = True
        self._meta[slot] = meta
        self._on_complete[slot] = on_complete
        self._src[slot] = src
        self._dst[slot] = dst
        self._sizes[slot] = size
        self._start_times[slot] = self.now
        self._cwnd[slot] = params.initial_cwnd_packets
        self._ssthresh[slot] = params.max_cwnd_packets
        self._alpha[slot] = 0.0
        self._rto_until[slot] = -np.inf
        self._round_end[slot] = self.now + params.base_rtt
        self._round_sent[slot] = 0.0
        self._round_lost[slot] = 0.0
        self._round_marked[slot] = 0.0
        self._retx_bytes[slot] = 0.0
        self._timeouts[slot] = 0
        self._rtt_weighted[slot] = 0.0
        self._sent_total[slot] = 0.0
        self.transfers_started += 1
        active = self.active_count
        if active > self.peak_active:
            self.peak_active = active
        return slot

    def _finish(self, slot: int) -> None:
        meta = self._meta[slot]
        assert meta is not None
        transfer = Transfer(
            transfer_id=self._next_transfer_id,
            src=int(self._src[slot]),
            dst=int(self._dst[slot]),
            size=float(self._sizes[slot]),
            start_time=float(self._start_times[slot]),
            end_time=self.now,
            meta=meta,
        )
        self._completed_buffer.append((transfer, self._on_complete[slot]))
        self._next_transfer_id += 1
        self._fct.append(transfer.duration)
        self._done_sizes.append(transfer.size)
        self._done_retx.append(float(self._retx_bytes[slot]))
        self._done_timeouts.append(int(self._timeouts[slot]))
        sent = float(self._sent_total[slot])
        self._done_mean_rtt.append(
            float(self._rtt_weighted[slot]) / sent
            if sent > 0
            else self.params.base_rtt
        )
        self._active[slot] = False
        self._meta[slot] = None
        self._on_complete[slot] = None
        self._free_slots.append(slot)

    def pop_completed(
        self,
    ) -> list[tuple[Transfer, Callable[[Transfer], None] | None]]:
        """Return and clear (transfer, callback) pairs completed since
        the last call; dispatch order is the simulator's job."""
        completed = self._completed_buffer
        self._completed_buffer = []
        return completed

    # ------------------------------------------------------------- stepping

    def _path_rtts(self, paths: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Base RTT plus the live queueing delay along each flow's path."""
        delay = self.queues.queueing_delay()
        return self.params.base_rtt + (
            delay[paths.clip(min=0)] * valid
        ).sum(axis=1)

    def _step(self, t_end: float) -> None:
        """Advance one tick (or partial tick) to ``t_end``."""
        params = self.params
        dt = t_end - self.now
        active_idx = np.flatnonzero(self._active)
        arrivals = np.zeros(self.num_links)
        sent = rtt = paths = valid = None
        if active_idx.size and dt > 0:
            paths = self._paths[active_idx]
            valid = paths >= 0
            rtt = self._path_rtts(paths, valid)
            stalled = self._rto_until[active_idx] > self.now + _EPS_TIME
            # Pace one window per *base* RTT.  The live queueing delay
            # feeds the round duration and the RTT/FCT accounting, but
            # not the pacing rate: offered load must stay a direct
            # function of the window sum, so oversubscription manifests
            # as marking and loss at the queue instead of being silently
            # absorbed by delay-throttled senders.
            rate = np.where(
                stalled,
                0.0,
                self._cwnd[active_idx] * params.mtu_bytes / params.base_rtt,
            )
            sent = np.minimum(rate * dt, self._remaining[active_idx])
            per_link = np.repeat(sent, valid.sum(axis=1))
            arrivals = np.bincount(
                paths[valid], weights=per_link, minlength=self.num_links
            )
        serviced, drop_frac, mark_frac = self.queues.step(arrivals, dt)
        backlog_peak = float(self.queues.backlog_bytes.max(initial=0.0))
        if backlog_peak > self.peak_queue_bytes:
            self.peak_queue_bytes = backlog_peak
        if dt > 0:
            loaded = np.flatnonzero(serviced)
            if loaded.size and self.sinks:
                for sink in self.sinks:
                    sink.add_interval_bulk(
                        loaded, serviced[loaded] / dt, self.now, t_end,
                        unique_keys=True,
                    )
            if self._depth_sinks:
                occupied = np.flatnonzero(self.queues.backlog_bytes)
                if occupied.size:
                    for sink in self._depth_sinks:
                        sink.add_queue_depth_bulk(
                            occupied,
                            self.queues.backlog_bytes[occupied],
                            self.now,
                            t_end,
                        )
        if sent is not None:
            # Per-flow loss / mark probabilities compose multiplicatively
            # along the path (independent fluid approximation).
            survive = np.prod(
                np.where(valid, 1.0 - drop_frac[paths.clip(min=0)], 1.0),
                axis=1,
            )
            unmarked = np.prod(
                np.where(valid, 1.0 - mark_frac[paths.clip(min=0)], 1.0),
                axis=1,
            )
            delivered = sent * survive
            lost = sent - delivered
            self._remaining[active_idx] = np.maximum(
                self._remaining[active_idx] - delivered, 0.0
            )
            self._round_sent[active_idx] += sent
            self._round_lost[active_idx] += lost
            self._round_marked[active_idx] += delivered * (1.0 - unmarked)
            self._retx_bytes[active_idx] += lost
            self._rtt_weighted[active_idx] += rtt * sent
            self._sent_total[active_idx] += sent
        self.now = t_end
        self.ticks += 1
        if active_idx.size:
            self._close_due_rounds(active_idx)
            drained = active_idx[self._remaining[active_idx] <= _EPS_BYTES]
            for slot in drained:
                self._finish(int(slot))

    def _close_due_rounds(self, active_idx: np.ndarray) -> None:
        """Apply window transitions for flows whose RTT round elapsed."""
        params = self.params
        due = active_idx[self._round_end[active_idx] <= self.now + _EPS_TIME]
        if not due.size:
            return
        sent = self._round_sent[due]
        data = due[sent > 0]
        if data.size:
            round_sent = self._round_sent[data]
            round_lost = self._round_lost[data]
            delivered = np.maximum(round_sent - round_lost, _EPS_BYTES)
            loss_frac = round_lost / round_sent
            mark_frac = np.minimum(self._round_marked[data] / delivered, 1.0)
            timeout = loss_frac >= params.timeout_loss_fraction
            lossy = (loss_frac > 0) & ~timeout
            marked = (mark_frac > 0) & ~timeout & ~lossy
            clean = ~timeout & ~lossy & ~marked
            if self.impl == "dctcp":
                self._alpha[data] = dctcp_update_alpha(
                    self._alpha[data], mark_frac, params.dctcp_gain
                )
                cut_idx = data[marked]
                if cut_idx.size:
                    self._cwnd[cut_idx] = dctcp_cut(
                        self._cwnd[cut_idx],
                        self._alpha[cut_idx],
                        params.min_cwnd_packets,
                    )
                    self._ssthresh[cut_idx] = self._cwnd[cut_idx]
            elif self.impl == "ecn_taildrop":
                # Classic ECN: a marked round is treated as a lossy one.
                lossy = lossy | marked
            else:  # reno ignores CE marks entirely
                clean = clean | marked
            halve_idx = data[lossy]
            if halve_idx.size:
                new_cwnd, new_ss = halve(
                    self._cwnd[halve_idx], params.min_cwnd_packets
                )
                self._cwnd[halve_idx] = new_cwnd
                self._ssthresh[halve_idx] = new_ss
            grow_idx = data[clean]
            if grow_idx.size:
                self._cwnd[grow_idx] = grow(
                    self._cwnd[grow_idx],
                    self._ssthresh[grow_idx],
                    params.max_cwnd_packets,
                )
            rto_idx = data[timeout]
            if rto_idx.size:
                new_cwnd, new_ss = timeout_collapse(
                    self._cwnd[rto_idx], params.min_cwnd_packets
                )
                self._cwnd[rto_idx] = new_cwnd
                self._ssthresh[rto_idx] = new_ss
                self._rto_until[rto_idx] = self.now + params.min_rto
                self._timeouts[rto_idx] += 1
        # Restart the round clock for every due flow (including idle and
        # RTO-stalled ones — their next round begins when the stall ends).
        paths = self._paths[due]
        valid = paths >= 0
        rtt_now = self._path_rtts(paths, valid)
        start = np.maximum(self.now, self._rto_until[due])
        self._round_end[due] = start + rtt_now
        self._round_sent[due] = 0.0
        self._round_lost[due] = 0.0
        self._round_marked[due] = 0.0

    def advance_to(self, time: float) -> None:
        """Integrate queue and window dynamics up to ``time``."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        tick = self.params.tick
        while time - self.now > _EPS_TIME:
            if (
                not self._active.any()
                and self.queues.backlog_bytes.sum() <= _EPS_BYTES
            ):
                # Idle fabric: no window or queue dynamics to integrate,
                # so jump straight to the target time.
                break
            self._step(min(self.now + tick, time))
        self.now = max(self.now, time)

    # -------------------------------------------------------------- wakeups

    def recompute_rates(self) -> None:
        """No-op: queued transports have no allocation pass."""

    def next_completion_wakeup(self) -> float | None:
        """Dynamic engine wakeup: the next stepping tick.

        The queued transport needs a steady cadence while anything is in
        flight — active flows pacing into the queues, or residual
        backlog draining after the last flow finished (the sinks must
        see those serviced bytes).  Monotonically increasing because
        ``advance_to`` moves ``now`` to each granted wakeup.
        """
        if self._active.any() or self.queues.backlog_bytes.sum() > _EPS_BYTES:
            return self.now + self.params.tick
        return None

    # ------------------------------------------------------------- inspection

    def earliest_active_start(self) -> float | None:
        """Start time of the oldest in-flight flow, or ``None`` if idle."""
        active_idx = np.flatnonzero(self._active)
        if active_idx.size == 0:
            return None
        return float(self._start_times[active_idx].min())

    def active_rates(self) -> np.ndarray:
        """Instantaneous pacing rates (bytes/s) of the in-flight flows."""
        active_idx = np.flatnonzero(self._active)
        if active_idx.size == 0:
            return np.empty(0)
        paths = self._paths[active_idx]
        valid = paths >= 0
        rtt = self._path_rtts(paths, valid)
        stalled = self._rto_until[active_idx] > self.now + _EPS_TIME
        return np.where(
            stalled, 0.0, self._cwnd[active_idx] * self.params.mtu_bytes / rtt
        )

    def utilization_snapshot(self) -> np.ndarray:
        """Instantaneous per-link utilisation under current pacing rates."""
        active_idx = np.flatnonzero(self._active)
        link_rates = np.zeros(self.num_links)
        if active_idx.size:
            paths = self._paths[active_idx]
            valid = paths >= 0
            rates = self.active_rates()
            per_flow = np.repeat(rates, valid.sum(axis=1))
            link_rates = np.bincount(
                paths[valid], weights=per_flow, minlength=self.num_links
            )
        return link_rates / self.capacities

    # --------------------------------------------------------------- report

    def cc_report(self) -> CCReport:
        """Snapshot the run's congestion-control observables."""
        queues = self.queues
        return CCReport(
            variant=self.impl,
            ticks=self.ticks,
            flow_fct=np.asarray(self._fct),
            flow_sizes=np.asarray(self._done_sizes),
            flow_retransmitted_bytes=np.asarray(self._done_retx),
            flow_timeouts=np.asarray(self._done_timeouts, dtype=np.int64),
            flow_mean_rtt=np.asarray(self._done_mean_rtt),
            marked_packets=float(queues.marked_packets.sum()),
            dropped_packets=float(queues.dropped_packets.sum()),
            forwarded_packets=float(queues.forwarded_packets.sum()),
            enqueued_bytes=queues.enqueued_bytes.copy(),
            dequeued_bytes=queues.dequeued_bytes.copy(),
            dropped_bytes=queues.dropped_bytes.copy(),
            resident_bytes=queues.resident_bytes,
            peak_queue_bytes=self.peak_queue_bytes,
        )
