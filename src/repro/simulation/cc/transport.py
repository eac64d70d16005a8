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

A tick touches only the active flows, which the shared active-flow
table (:class:`~repro.simulation.transport.Transport`) holds: the float
block's rows are the window, RTO, round clock and the six byte
accumulators, and the sentinel link that pads each path row keeps a
delay of 0 and drop/mark fractions of 0, so padding adds nothing to any
reduction.  Between arrivals and completions every tick is a fixed set
of whole-array operations, with no slot lookups.  Readers between ticks
(``active_rates``, ``utilization_snapshot``, ``earliest_active_start``,
``cc_report``) read the arrays the tick writes and change nothing.
Besides the table's slot order, path queueing delays add in the
pairwise order of NumPy's 8-wide row sum, and drop/mark survival
factors multiply hop by hop.

The engine cadence reuses the dynamic-time-source hook: the transport's
``next_completion_wakeup`` simply asks for ``now + tick`` while any flow
is active or any queue holds bytes, so no engine or simulator scheduling
changes are needed.  ``rates_dirty`` is permanently ``False`` — there is
no allocation pass to re-run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster.topology import ClusterTopology
from ..transport import LoadSink, Transfer, Transport
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


class QueuedTransport(Transport):
    """Discrete-stepped congestion-controlled transport with FIFO queues."""

    family = "queued"
    #: Window state, the round clock, the round's three accumulators,
    #: three lifetime accumulators, the RTO count and the start time.
    _ROWS = (
        "remaining", "cwnd", "ssthresh", "alpha", "rto_until", "round_end",
        "round_sent", "round_lost", "round_marked",
        "retx_bytes", "rtt_weighted", "sent_total", "timeouts", "start_time",
    )
    #: The round's accumulators, reset together when a round closes.
    _ROUND = slice(_ROWS.index("round_sent"), _ROWS.index("round_marked") + 1)
    # The simulator and perfbench read these of every transport; with no
    # allocation pass, a queued transport never changes them.
    rates_dirty = False
    rate_recomputes = 0
    frontier_rebuilds = 0
    _inc = None

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
        # ``_set_active`` reads these, so they precede the table.
        num_links = topology.num_links
        #: Queueing delay per link after the last tick, plus the sentinel
        #: link ``num_links`` that pads every path row: its delay stays 0.
        self._delay = np.zeros(num_links + 1)
        #: Per-link survival factors of the last tick: ``1 - drop
        #: fraction`` at ``[0, num_links]``, then ``1 - mark fraction`` at
        #: ``[num_links + 1, 2 * num_links + 1]``; both sentinels stay 1.
        self._keep = np.ones(2 * (num_links + 1))
        self._keep_offsets = np.array([0, num_links + 1])[:, None, None]
        super().__init__(topology, sinks)
        #: Sinks that also understand queue-depth series (duck-typed so a
        #: plain byte-load sink still works unchanged).
        self._depth_sinks = [
            sink for sink in self.sinks if hasattr(sink, "add_queue_depth_bulk")
        ]
        self.queues = LinkQueues(num_links, self.capacities, self.params)
        self.ticks = 0
        self.peak_queue_bytes = 0.0
        # Per-completed-flow records, in completion order.
        self._fct: list[float] = []
        self._done_sizes: list[float] = []
        self._done_retx: list[float] = []
        self._done_timeouts: list[int] = []
        self._done_mean_rtt: list[float] = []

    # ---------------------------------------------------------- active set

    def _set_active(self, links: np.ndarray, state: np.ndarray) -> None:
        """Install the table, bind its rows and derive what the tick reads."""
        super()._set_active(links, state)
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

    def _initial_column(self, size: float) -> tuple[float, ...]:
        params, now = self.params, self.now
        return (
            size, params.initial_cwnd_packets, params.max_cwnd_packets, 0.0,
            -np.inf, now + params.base_rtt, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, now,
        )

    def _path_rtts(self) -> np.ndarray:
        """Base RTT plus the live queueing delay along each active path.

        Hop delays add pairwise, ((d0+d1)+(d2+d3))+((d4+d5)+(d6+d7)),
        the order of NumPy's ``sum(axis=1)`` over an 8-wide path row.
        """
        delays = self._delay[self._keep_index[0]]
        pairs = delays[0::2] + delays[1::2]
        quads = pairs[0::2] + pairs[1::2]
        return self.params.base_rtt + (quads[0] + quads[1])

    # ---------------------------------------------------------------- flows

    def _finish(self, drained: np.ndarray) -> list[Transfer]:
        # The per-flow records, read before the base class drops the rows.
        sent = self._sent_total[drained].tolist()
        weighted = self._rtt_weighted[drained].tolist()
        base_rtt = self.params.base_rtt
        self._done_retx += self._retx_bytes[drained].tolist()
        self._done_timeouts += [int(count) for count in self._timeouts[drained]]
        self._done_mean_rtt += [
            total / bytes_ if bytes_ > 0 else base_rtt
            for total, bytes_ in zip(weighted, sent)
        ]
        transfers = super()._finish(drained)
        self._fct += [transfer.duration for transfer in transfers]
        self._done_sizes += [transfer.size for transfer in transfers]
        return transfers

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
        flowing = bool(self._incidence.slots) and dt > 0
        if flowing:
            rtt = self._rtt
            sent = np.minimum(self._pacing_rates() * dt, self._remaining)
            arrivals = self._link_sums(sent)
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
            if self.sinks:
                self._emit_loads(serviced / dt, t_end)
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
        if self._incidence.slots:
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
        self._state[self._ROUND, due] = 0.0

    def advance_to(self, time: float) -> None:
        """Integrate queue and window dynamics up to ``time``."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        tick = self.params.tick
        while time - self.now > _EPS_TIME:
            if (
                not self._incidence.slots
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
        if self._incidence.slots or self.queues.backlog_bytes.sum() > _EPS_BYTES:
            return self.now + self.params.tick
        return None

    # ------------------------------------------------------------- inspection

    def active_rates(self) -> np.ndarray:
        """Pacing rates (bytes/s) the next tick applies to the in-flight
        flows, in slot order: ``cwnd * mtu / base_rtt``, or 0 while a
        flow is RTO-stalled."""
        return self._pacing_rates()

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

