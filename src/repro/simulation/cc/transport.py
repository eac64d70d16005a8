"""Queue-aware window-based transports: DCTCP, Reno, fixed-K ECN.

:class:`QueuedTransport` is the ``"queued"``-family counterpart of
:class:`~repro.simulation.transport.FluidTransport`, presenting the same
simulator-facing surface (``add_flow`` / ``advance_to`` /
``pop_completed`` / dynamic wakeup) so :class:`~repro.simulation.simulator.Simulator`
can swap it in behind ``SimulationConfig.transport_impl``.  Instead of
an ideal max-min allocation it integrates a fluid-window model on a
fixed tick: every flow paces one window per *base* RTT,
``cwnd * mtu / base_rtt``, into per-link FIFO queues
(:class:`~repro.simulation.cc.queue.LinkQueues`), where bytes are
CE-marked past the fixed threshold K and tail-dropped past the buffer.
The live RTT (base RTT plus the queueing delay along the path) sets
each flow's round length and its RTT/FCT accounting; once per live RTT
a flow closes a *round* and applies its variant's window transition
(:mod:`~repro.simulation.cc.cwnd`).  A round that loses at least
``timeout_loss_fraction`` of its bytes is a whole-window loss: the flow
collapses to the minimum window and sits out ``min_rto`` — the
serialisation mechanism behind incast goodput collapse (§4.4).

**Compact active-flow state.**  A tick touches only the active flows,
held as one entry each in ascending slot order: the slots, a path table
padded to ``max_path`` hops with a sentinel link (index ``num_links``,
whose delay and drop/mark fractions stay 0, so padding adds nothing to
any reduction), and one float array of per-flow rows (window, RTO,
round clock and the six byte accumulators).  Only
:meth:`QueuedTransport.add_flow` and the completion of drained flows
rebuild it; between rebuilds every tick is a fixed set of whole-array
operations, with no slot lookups.  These arrays are the only copy of a
flow's state, so nothing is ever written back: a slot is just the
flow's id, reused last-freed-first, and the key of its metadata.
Readers between ticks (``active_rates``, ``utilization_snapshot``,
``earliest_active_start``, ``cc_report``) read the arrays the tick
writes and change nothing.

Every per-flow reduction has one fixed order, which the pinned output
digests depend on: ``bincount`` adds the per-link arrivals flow by flow
in slot order, drained flows finish in slot order, path queueing delays
add in the pairwise order of NumPy's 8-wide row sum, and drop/mark
survival factors multiply hop by hop.

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
#: Rows of the per-flow state array, in the order ``_set_active`` binds
#: them: window state, the round clock, the round's three accumulators,
#: three lifetime accumulators, the RTO count and the start time.
_ROWS = (
    "remaining", "cwnd", "ssthresh", "alpha", "rto_until", "round_end",
    "round_sent", "round_lost", "round_marked",
    "retx_bytes", "rtt_weighted", "sent_total", "timeouts", "start_time",
)
#: The round's accumulators, reset together when a round closes.
_ROUND = slice(_ROWS.index("round_sent"), _ROWS.index("round_marked") + 1)


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
        #: Queueing delay per link after the last tick, plus the sentinel
        #: link ``num_links`` that pads every path row: its delay stays 0.
        self._delay = np.zeros(self.num_links + 1)
        #: Per-link survival factors of the last tick: ``1 - drop
        #: fraction`` at ``[0, num_links]``, then ``1 - mark fraction`` at
        #: ``[num_links + 1, 2 * num_links + 1]``; both sentinels stay 1.
        self._keep = np.ones(2 * (self.num_links + 1))
        self._keep_offsets = np.array([0, self.num_links + 1])[:, None, None]

        # Slots are stable flow ids: a finished flow's slot is reused
        # first (last freed, first reused), else the next unused one.
        # Ascending slot order is the order of every per-flow reduction.
        self._free_slots: list[int] = []
        #: Per slot: (src, dst, size, meta, on_complete) of an active flow.
        self._flow_info: list[
            tuple[int, int, float, TransferMeta,
                  Callable[[Transfer], None] | None] | None
        ] = []
        # The compact active-flow state, one column per active flow in
        # ascending slot order: slots, sentinel-padded path table and
        # the per-flow float rows (see ``_set_active``).
        self._set_active(
            np.empty(0, dtype=np.int64),
            np.empty((0, self.max_path), dtype=np.int64),
            np.empty((len(_ROWS), 0)),
        )

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

    # ---------------------------------------------------------- active set

    def _set_active(
        self, slots: np.ndarray, links: np.ndarray, state: np.ndarray
    ) -> None:
        """Install a new active set and derive what the tick reads."""
        self._slots = slots
        self._links = links
        self._state = state
        #: Hop-major indices of each hop's drop and mark survival factor
        #: in ``_keep``, so one gather serves both products; the drop half
        #: is also the hop-major path table the RTT sums read.
        self._keep_index = np.ascontiguousarray(links.T) + self._keep_offsets
        (
            self._remaining, self._cwnd, self._ssthresh, self._alpha,
            self._rto_until, self._round_end,
            self._round_sent, self._round_lost, self._round_marked,
            self._retx_bytes, self._rtt_weighted, self._sent_total,
            self._timeouts, self._start_times,
        ) = state
        self._rtt = self._path_rtts()

    def _path_rtts(self) -> np.ndarray:
        """Base RTT plus the live queueing delay along each active path.

        Hop delays add pairwise, ((d0+d1)+(d2+d3))+((d4+d5)+(d6+d7)),
        the order of NumPy's ``sum(axis=1)`` over an 8-wide path row.
        """
        delays = self._delay[self._keep_index[0]]
        pairs = delays[0::2] + delays[1::2]
        quads = pairs[0::2] + pairs[1::2]
        return self.params.base_rtt + (quads[0] + quads[1])

    def _offered(self, rates: np.ndarray) -> np.ndarray:
        """Bytes (or bytes/s) per link from per-flow ``rates``.

        ``bincount`` adds flow by flow in slot order, each flow's hops in
        path order; the padding lands in the sentinel bin, dropped here.
        """
        return np.bincount(
            self._links.ravel(),
            weights=np.repeat(rates, self.max_path),
            minlength=self.num_links + 1,
        )[: self.num_links]

    @property
    def active_count(self) -> int:
        """Number of in-flight flows."""
        return int(self._slots.size)

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
        params = self.params
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._flow_info)
            self._flow_info.append(None)
        self._flow_info[slot] = (int(src), int(dst), float(size), meta, on_complete)
        links = np.full(self.max_path, self.num_links, dtype=np.int64)
        links[: len(path_links)] = path_links
        column = _initial_column(params, float(size), self.now)
        at = int(np.searchsorted(self._slots, slot))
        self._set_active(
            np.concatenate((self._slots[:at], [slot], self._slots[at:])),
            np.concatenate((self._links[:at], links[None], self._links[at:])),
            np.concatenate(
                (self._state[:, :at], column[:, None], self._state[:, at:]),
                axis=1,
            ),
        )
        self.transfers_started += 1
        if self._slots.size > self.peak_active:
            self.peak_active = int(self._slots.size)
        return slot

    def _finish(self, drained: np.ndarray) -> None:
        """Complete the active flows at ``drained`` (ascending positions)."""
        base_rtt = self.params.base_rtt
        for position in drained.tolist():
            slot = int(self._slots[position])
            info = self._flow_info[slot]
            assert info is not None
            src, dst, size, meta, on_complete = info
            transfer = Transfer(
                transfer_id=self._next_transfer_id,
                src=src,
                dst=dst,
                size=size,
                start_time=float(self._start_times[position]),
                end_time=self.now,
                meta=meta,
            )
            self._completed_buffer.append((transfer, on_complete))
            self._next_transfer_id += 1
            self._fct.append(transfer.duration)
            self._done_sizes.append(size)
            self._done_retx.append(float(self._retx_bytes[position]))
            self._done_timeouts.append(int(self._timeouts[position]))
            sent = float(self._sent_total[position])
            self._done_mean_rtt.append(
                float(self._rtt_weighted[position]) / sent
                if sent > 0
                else base_rtt
            )
            self._flow_info[slot] = None
            self._free_slots.append(slot)
        kept = np.ones(self._slots.size, dtype=bool)
        kept[drained] = False
        self._set_active(
            self._slots[kept], self._links[kept], self._state[:, kept]
        )

    def pop_completed(
        self,
    ) -> list[tuple[Transfer, Callable[[Transfer], None] | None]]:
        """Return and clear (transfer, callback) pairs completed since
        the last call; dispatch order is the simulator's job."""
        completed = self._completed_buffer
        self._completed_buffer = []
        return completed

    # ------------------------------------------------------------- stepping

    def _pacing_rates(self) -> np.ndarray:
        """Bytes/s each active flow sends this tick.

        One window per *base* RTT.  The live queueing delay feeds the
        round duration and the RTT/FCT accounting, but not the pacing
        rate: offered load must stay a direct function of the window
        sum, so oversubscription manifests as marking and loss at the
        queue instead of being silently absorbed by delay-throttled
        senders.  An RTO-stalled flow sends nothing.
        """
        params = self.params
        rates = self._cwnd * params.mtu_bytes / params.base_rtt
        rates[self._rto_until > self.now + _EPS_TIME] = 0.0
        return rates

    def _step(self, t_end: float) -> None:
        """Advance one tick (or partial tick) to ``t_end``."""
        dt = t_end - self.now
        flowing = self._slots.size > 0 and dt > 0
        if flowing:
            rtt = self._rtt
            sent = np.minimum(self._pacing_rates() * dt, self._remaining)
            arrivals = self._offered(sent)
        else:
            arrivals = np.zeros(self.num_links)
        queues = self.queues
        serviced, drop_frac, mark_frac = queues.step(arrivals, dt)
        backlog = queues.backlog_bytes
        backlog_peak = float(backlog.max(initial=0.0))
        if backlog_peak > self.peak_queue_bytes:
            self.peak_queue_bytes = backlog_peak
        queues.queueing_delay(out=self._delay[:-1])
        if dt > 0:
            loaded = serviced.nonzero()[0]
            if loaded.size and self.sinks:
                for sink in self.sinks:
                    sink.add_interval_bulk(
                        loaded, serviced[loaded] / dt, self.now, t_end,
                        unique_keys=True,
                    )
            if self._depth_sinks:
                occupied = backlog.nonzero()[0]
                if occupied.size:
                    for sink in self._depth_sinks:
                        sink.add_queue_depth_bulk(
                            occupied, backlog[occupied], self.now, t_end,
                        )
        if flowing:
            # Per-flow loss / mark probabilities compose multiplicatively
            # along the path (independent fluid approximation); both
            # products in one pass over the padded path table.
            keep, sentinel = self._keep, self.num_links
            np.subtract(1.0, drop_frac, out=keep[:sentinel])
            np.subtract(1.0, mark_frac, out=keep[sentinel + 1 : -1])
            survive, unmarked = keep[self._keep_index].prod(axis=1)
            delivered = sent * survive
            lost = sent - delivered
            np.maximum(self._remaining - delivered, 0.0, out=self._remaining)
            self._round_sent += sent
            self._round_lost += lost
            self._round_marked += delivered * (1.0 - unmarked)
            self._retx_bytes += lost
            self._rtt_weighted += rtt * sent
            self._sent_total += sent
        self.now = t_end
        self.ticks += 1
        if self._slots.size:
            # Rounds restart on the RTTs behind this tick's queues, which
            # are also the next tick's.
            self._rtt = self._path_rtts()
            self._close_due_rounds()
            drained = (self._remaining <= _EPS_BYTES).nonzero()[0]
            if drained.size:
                self._finish(drained)

    def _close_due_rounds(self) -> None:
        """Apply window transitions for flows whose RTT round elapsed."""
        params = self.params
        now = self.now
        due = (self._round_end <= now + _EPS_TIME).nonzero()[0]
        if not due.size:
            return
        data = due[self._round_sent[due] > 0]
        if data.size:
            round_sent = self._round_sent[data]
            round_lost = self._round_lost[data]
            delivered = np.maximum(round_sent - round_lost, _EPS_BYTES)
            loss_frac = round_lost / round_sent
            mark_frac = np.minimum(self._round_marked[data] / delivered, 1.0)
            # Loss fractions are never negative, so exactly one of
            # lossless, lossy and timeout holds for each flow.
            lossless = loss_frac == 0
            timeout = loss_frac >= params.timeout_loss_fraction
            marked = lossless & (mark_frac > 0)
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
                halving = ~(lossless | timeout)
                growing = lossless & ~marked
            elif self.impl == "ecn_taildrop":
                # Classic ECN: a marked round is treated as a lossy one.
                growing = lossless & ~marked
                halving = ~(growing | timeout)
            else:  # reno ignores CE marks entirely
                halving = ~(lossless | timeout)
                growing = lossless
            halve_idx = data[halving]
            if halve_idx.size:
                new_cwnd, new_ss = halve(
                    self._cwnd[halve_idx], params.min_cwnd_packets
                )
                self._cwnd[halve_idx] = new_cwnd
                self._ssthresh[halve_idx] = new_ss
            grow_idx = data[growing]
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
                self._rto_until[rto_idx] = now + params.min_rto
                self._timeouts[rto_idx] += 1
        # Restart the round clock for every due flow (including idle and
        # RTO-stalled ones — their next round begins when the stall ends).
        start = np.maximum(now, self._rto_until[due])
        self._round_end[due] = start + self._rtt[due]
        self._state[_ROUND, due] = 0.0

    def advance_to(self, time: float) -> None:
        """Integrate queue and window dynamics up to ``time``."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        tick = self.params.tick
        while time - self.now > _EPS_TIME:
            if (
                not self._slots.size
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
        if self._slots.size or self.queues.backlog_bytes.sum() > _EPS_BYTES:
            return self.now + self.params.tick
        return None

    # ------------------------------------------------------------- inspection

    def earliest_active_start(self) -> float | None:
        """Start time of the oldest in-flight flow, or ``None`` if idle."""
        if not self._slots.size:
            return None
        return float(self._start_times.min())

    def active_rates(self) -> np.ndarray:
        """Pacing rates (bytes/s) the next tick applies to the in-flight
        flows, in slot order: ``cwnd * mtu / base_rtt``, or 0 while a
        flow is RTO-stalled."""
        return self._pacing_rates()

    def utilization_snapshot(self) -> np.ndarray:
        """Per-link utilisation the next tick's pacing rates offer."""
        return self._offered(self._pacing_rates()) / self.capacities

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


def _initial_column(
    params: CongestionControlConfig, size: float, now: float
) -> np.ndarray:
    """The per-flow state column of a flow starting at ``now``."""
    column = np.zeros(len(_ROWS))
    column[_ROWS.index("remaining")] = size
    column[_ROWS.index("cwnd")] = params.initial_cwnd_packets
    column[_ROWS.index("ssthresh")] = params.max_cwnd_packets
    column[_ROWS.index("rto_until")] = -np.inf
    column[_ROWS.index("round_end")] = now + params.base_rtt
    column[_ROWS.index("start_time")] = now
    return column
