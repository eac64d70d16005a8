"""The cluster simulator: workload + transport + instrumentation.

:class:`Simulator` owns the event engine, the transport (either
family's :class:`~repro.simulation.transport.Transport`), the link load
tracker and the instrumentation collectors, and exposes the small
:class:`~repro.workload.runtime.SimulationServices` surface the job
executor drives traffic through.  ``run()`` returns a
:class:`SimulationResult` containing exactly the artefacts the paper's
measurement campaign produced: the socket event log, the application
log, SNMP-grade link loads — plus the ground-truth transfer list that a
real campaign would *not* have, kept for validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..cluster.routing import Router, make_router
from ..cluster.topology import ClusterTopology
from ..instrumentation.applog import ApplicationLog

if TYPE_CHECKING:  # imported lazily to avoid a config<->simulation cycle
    from ..config import SimulationConfig
from ..instrumentation.collector import ClusterCollector
from ..instrumentation.events import SocketEventLog
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..util.randomness import RandomSource
from ..workload.generator import WorkloadSchedule, generate_schedule
from ..workload.job import JobRuntime
from ..workload.runtime import JobExecutor
from .cc.cwnd import CC_VARIANTS
from .engine import EventEngine
from .linkloads import LinkLoadTracker
from .transport import FluidTransport, Transfer, TransferMeta, Transport

if TYPE_CHECKING:
    from .cc.transport import CCReport

__all__ = ["SimulationResult", "Simulator", "simulate"]


@dataclass
class SimulationResult:
    """Artefacts of one simulated measurement campaign."""

    config: SimulationConfig
    topology: ClusterTopology
    router: Router
    socket_log: SocketEventLog
    applog: ApplicationLog
    link_loads: LinkLoadTracker
    #: Ground-truth completed transfers (not available to real analyses;
    #: used for validation and for building exact traffic matrices).
    transfers: list[Transfer]
    jobs: dict[int, JobRuntime]
    duration: float
    stats: dict[str, float] = field(default_factory=dict)
    #: Congestion-control observables (queue ledgers, per-flow FCT and
    #: retransmit counts); ``None`` for fluid transports.
    cc: "CCReport | None" = None


class Simulator:
    """Co-simulates the workload executor and the fluid network."""

    def __init__(
        self, config: SimulationConfig, telemetry: Telemetry | None = None
    ) -> None:
        self.config = config
        self.telemetry = telemetry or NULL_TELEMETRY
        self.topology = ClusterTopology(config.cluster)
        self.router = make_router(
            self.topology,
            config.routing_impl,
            seed=config.seed,
            flowlet_idle_gap=config.flowlet_idle_gap,
        )
        self.randomness = RandomSource(config.seed)
        self.engine = EventEngine()
        self.link_loads = LinkLoadTracker(
            self.topology, bin_width=1.0, horizon=config.duration
        )
        if config.transport_impl in CC_VARIANTS:
            from .cc.transport import QueuedTransport

            self.transport: Transport = QueuedTransport(
                self.topology,
                sinks=[self.link_loads],
                impl=config.transport_impl,
                params=config.cc,
            )
        else:
            self.transport = FluidTransport(
                self.topology,
                sinks=[self.link_loads],
                fairness=config.fairness,
                impl=config.transport_impl,
            )
        self.collector = ClusterCollector(
            self.topology,
            rng=self.randomness.stream("collector"),
            config=config.collector,
        )
        self.applog = ApplicationLog()
        self.executor = JobExecutor(
            topology=self.topology,
            config=config.workload,
            services=self,
            applog=self.applog,
            rng=self.randomness.stream("executor"),
            congestion_threshold=config.congestion_threshold,
            telemetry=self.telemetry,
        )
        self.transfers: list[Transfer] = []
        self._last_recompute = -float("inf")
        self.engine.time_advance_hook = self._on_time_advance
        self.engine.batch_hook = self._after_batch
        # Wakeups ride dynamic time sources instead of heap events: the
        # transport's completion frontier supplies the earliest-completion
        # time per rate epoch, and the recompute source re-arms itself at
        # the edge of the rate-limit window whenever rates are dirty.
        self.engine.add_dynamic_source(self.transport.next_completion_wakeup)
        self.engine.add_dynamic_source(self._recompute_wakeup_time)
        self._batch_size_hist = self.telemetry.histogram("engine.batch_size")
        self._events_at_last_batch = 0
        self._wall_start: float | None = None
        self._event_sink = None
        self._stream_flush_interval = 0.0
        self._last_stream_flush = 0.0
        self.events_streamed = 0
        self._batches_since_validation = 0
        self.inline_validations = 0

    # ------------------------------------------------- SimulationServices

    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a workload callback at an absolute time."""
        self.engine.schedule(time, callback)

    def start_transfer(
        self,
        src: int,
        dst: int,
        size: float,
        meta: TransferMeta,
        on_complete: Callable[[Transfer], None],
    ) -> None:
        """Launch a transfer over the network (or complete it instantly
        when the endpoints coincide and no links are crossed).

        The path is chosen per *flow*: under ECMP/flowlet routing the
        transfer's ``meta.connection_key`` is the hashed flow identity,
        so retries and phase-mates of one connection stick together.
        """
        path = self.router.path_for_flow(
            src, dst, key=meta.connection_key, now=self.now()
        )
        if not path:
            transfer = Transfer(
                transfer_id=-1, src=src, dst=dst, size=size,
                start_time=self.now(), end_time=self.now(), meta=meta,
            )
            on_complete(transfer)
            return
        self.transport.add_flow(src, dst, size, path, meta, on_complete=on_complete)

    def max_path_utilization(
        self, src: int, dst: int, start: float, end: float
    ) -> float:
        """Peak binned utilisation along the src→dst path in a window."""
        path = self.router.path_links(src, dst)
        return self.link_loads.max_utilization_on_path(path, start, end)

    # --------------------------------------------------------- event hooks

    def _on_time_advance(self, new_time: float) -> None:
        self.transport.advance_to(new_time)

    def _dispatch_completions(self) -> None:
        while True:
            completed = self.transport.pop_completed()
            if not completed:
                return
            for transfer, callback in completed:
                self.collector.observe_transfer(transfer)
                self.transfers.append(transfer)
                self.router.note_activity(
                    transfer.src, transfer.dst,
                    transfer.meta.connection_key, transfer.end_time,
                )
                if callback is not None:
                    callback(transfer)

    def _after_batch(self) -> None:
        if self.telemetry.enabled:
            processed = self.engine.events_processed
            self._batch_size_hist.observe(processed - self._events_at_last_batch)
            self._events_at_last_batch = processed
        self._dispatch_completions()
        if (
            self._event_sink is not None
            and self.engine.now - self._last_stream_flush >= self._stream_flush_interval
        ):
            self._stream_flush()
            self._last_stream_flush = self.engine.now
        if self.config.validate_every_n_batches:
            self._batches_since_validation += 1
            if self._batches_since_validation >= self.config.validate_every_n_batches:
                self._batches_since_validation = 0
                self._run_inline_validation()
        if not self.transport.rates_dirty:
            return
        now = self.engine.now
        interval = self.config.rate_update_interval
        # The epsilon tolerance matters: a dynamic wakeup at exactly
        # last+interval can arrive with now-last a float ulp short of the
        # interval, and deferring again at the same instant would stall.
        if now - self._last_recompute >= interval - 1e-9:
            self.transport.recompute_rates()
            self._last_recompute = now
        # else: rates stay dirty and the recompute dynamic source wakes
        # the engine at the edge of the rate-limit window.

    def _run_inline_validation(self) -> None:
        """Run the cheap inline checkers against the live state.

        Sampled every ``validate_every_n_batches`` engine batches; a
        violation aborts the run so a corrupted campaign fails loudly at
        the first observable inconsistency instead of producing figures.
        """
        from ..validate import run_inline_checks

        report = run_inline_checks(self, telemetry=self.telemetry)
        self.inline_validations += 1
        if self.telemetry.enabled:
            self.telemetry.counter("validate.inline_runs").inc()
            if not report.ok:
                self.telemetry.counter("validate.inline_violations").inc(
                    len(report.violations)
                )
        report.raise_if_violations()

    def _recompute_wakeup_time(self) -> float | None:
        """Dynamic wakeup: edge of the rate-limit window while dirty.

        ``None`` while rates are clean; otherwise the first instant the
        batch hook is allowed to recompute.  The engine clamps times in
        the past to ``now``, covering the initial ``-inf`` sentinel.
        """
        if not self.transport.rates_dirty:
            return None
        return self._last_recompute + self.config.rate_update_interval

    # ------------------------------------------------------------ streaming

    def attach_event_stream(self, sink, flush_interval: float = 5.0) -> None:
        """Stream collector events into ``sink`` during the run.

        ``sink`` needs one method, ``append_columns(columns)``, taking a
        full set of time-sorted event columns (a
        :class:`~repro.instrumentation.trace writer<repro.trace.writer.TraceWriter>`
        qualifies).  Roughly every ``flush_interval`` simulated seconds
        the collector's buffer is drained up to a *safe watermark* — the
        oldest active transfer's start time minus the maximum clock skew
        — below which no future completion can emit an event, so the
        concatenation of flushed batches is exactly the time-sorted log
        :meth:`~repro.instrumentation.collector.ClusterCollector.finalize`
        would have produced.

        The flush piggybacks on the engine's batch hook rather than
        scheduling its own events, so a streamed run is *bit-identical*
        to an unstreamed one: no extra timestamps ever split the fluid
        integration intervals.  Call before :meth:`run`.
        """
        if flush_interval <= 0:
            raise ValueError("flush interval must be positive")
        self._event_sink = sink
        self._stream_flush_interval = flush_interval
        self._last_stream_flush = 0.0
        self.events_streamed = 0

    def _stream_flush(self, final: bool = False) -> None:
        if final:
            watermark = float("inf")
        else:
            start = self.transport.earliest_active_start()
            base = self.engine.now if start is None else min(start, self.engine.now)
            watermark = base - self.collector.config.clock_skew_max
        batch = self.collector.log.drain_until(watermark)
        rows = int(batch["timestamp"].size)
        if rows:
            self._event_sink.append_columns(batch)
            self.events_streamed += rows

    # ------------------------------------------------------------ telemetry

    def attach_heartbeat(
        self, interval: float, callback: Callable[[dict], None]
    ) -> None:
        """Invoke ``callback(progress_snapshot())`` every ``interval``
        simulated seconds for the duration of the campaign.

        Call before :meth:`run`.  The heartbeat rides the event engine,
        so it fires between batches and never perturbs workload RNG
        draws; it is how the CLI reports progress on long campaigns.
        """
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")

        def beat() -> None:
            callback(self.progress_snapshot())
            if self.engine.now + interval <= self.config.duration + 1e-9:
                self.engine.schedule(self.engine.now + interval, beat)

        self.engine.schedule(min(interval, self.config.duration), beat)

    def progress_snapshot(self) -> dict:
        """Point-in-time campaign progress for heartbeats and debugging."""
        now = self.engine.now
        wall = (
            time.perf_counter() - self._wall_start
            if self._wall_start is not None
            else 0.0
        )
        events = self.engine.events_processed
        return {
            "now": now,
            "duration": self.config.duration,
            "percent": 100.0 * now / self.config.duration,
            "wall_seconds": wall,
            "events_processed": events,
            "events_per_wall_second": events / wall if wall > 0 else 0.0,
            "active_flows": self.transport.active_count,
            "pending_events": len(self.engine._heap),
            "jobs_started": len(self.applog.job_starts),
            "jobs_finished": len(self.applog.job_ends),
            "transfers_completed": len(self.transfers),
        }

    def _publish_metrics(self, socket_log: SocketEventLog) -> None:
        """Fold the run's counters into the telemetry registry."""
        tele = self.telemetry
        tele.counter("engine.events_processed").inc(self.engine.events_processed)
        tele.counter("engine.batches_processed").inc(self.engine.batches_processed)
        tele.gauge("engine.peak_heap_depth").max(self.engine.peak_heap_depth)
        tele.counter("engine.dynamic_wakeups").inc(self.engine.dynamic_wakeups)
        tele.counter("transport.transfers_started").inc(
            self.transport.transfers_started
        )
        tele.counter("transport.rate_recomputes").inc(self.transport.rate_recomputes)
        tele.gauge("transport.peak_active_flows").max(self.transport.peak_active)
        tele.counter("transport.frontier_rebuilds").inc(
            self.transport.frontier_rebuilds
        )
        if self.transport._inc is not None:
            inc = self.transport._inc
            tele.counter("transport.incremental_full_solves").inc(inc.full_solves)
            for reason, count in inc.full_solves_by_reason.items():
                tele.counter(
                    "transport.incremental_full_solves_by_reason", reason=reason
                ).inc(count)
            tele.counter("transport.incremental_solves").inc(inc.incremental_solves)
            tele.counter("transport.incremental_expansions").inc(inc.expansions)
        if self.transport.family == "queued":
            queues = self.transport.queues
            tele.counter("cc.ticks").inc(self.transport.ticks)
            tele.counter("cc.marked_packets").inc(
                int(queues.marked_packets.sum())
            )
            tele.counter("cc.dropped_packets").inc(
                int(queues.dropped_packets.sum())
            )
            tele.counter("cc.forwarded_packets").inc(
                int(queues.forwarded_packets.sum())
            )
            tele.gauge("cc.peak_queue_bytes").max(self.transport.peak_queue_bytes)
        tele.counter("linkloads.intervals_integrated").inc(
            self.link_loads.intervals_integrated
        )
        tele.counter("sim.transfers_completed").inc(len(self.transfers))
        tele.counter("collector.socket_events").inc(
            len(socket_log) + self.events_streamed
        )
        if self.events_streamed:
            tele.counter("sim.events_streamed").inc(self.events_streamed)
        tele.counter("workload.transfers_requested").inc(
            self.executor.transfers_requested
        )
        tele.counter("workload.evacuation_events").inc(
            len(self.applog.evacuations)
        )
        if self._wall_start is not None:
            wall = time.perf_counter() - self._wall_start
            tele.gauge("sim.wall_seconds").set(wall)
            if wall > 0:
                tele.gauge("sim.events_per_wall_second").set(
                    self.engine.events_processed / wall
                )

    # ----------------------------------------------------------------- run

    def run(self, schedule: WorkloadSchedule | None = None) -> SimulationResult:
        """Execute the full campaign and return its artefacts."""
        config = self.config
        tele = self.telemetry
        self._wall_start = time.perf_counter()
        with tele.span(
            "simulate.campaign", seed=config.seed, duration=config.duration
        ) as campaign:
            with tele.span("simulate.workload_schedule"):
                if schedule is None:
                    schedule = generate_schedule(
                        config.workload,
                        duration=config.duration,
                        rng=self.randomness.stream("workload"),
                        external_hosts=list(self.topology.external_hosts()),
                    )
                self.executor.install_schedule(schedule)
            with tele.span("simulate.engine_run"):
                self.engine.run(until=config.duration)
            with tele.span("simulate.transport_settle"):
                # Settle the network to the end of the campaign window.
                self.transport.advance_to(config.duration)
                self._dispatch_completions()
            with tele.span("simulate.collector_finalize"):
                if self._event_sink is not None:
                    self._stream_flush(final=True)
                socket_log = self.collector.finalize()
            campaign.set(
                events_processed=self.engine.events_processed,
                transfers_completed=len(self.transfers),
            )
        self._publish_metrics(socket_log)
        stats = {
            "events_processed": float(self.engine.events_processed),
            "event_batches": float(self.engine.batches_processed),
            "rate_recomputes": float(self.transport.rate_recomputes),
            "transfers_completed": float(len(self.transfers)),
            "transfers_started": float(self.transport.transfers_started),
            "socket_events": float(len(socket_log) + self.events_streamed),
            "socket_events_streamed": float(self.events_streamed),
            "jobs_submitted": float(len(schedule.jobs)),
            "jobs_finished": float(len(self.applog.job_ends)),
            "evacuations": float(len(self.applog.evacuations)),
        }
        cc_report = None
        if self.transport.family == "queued":
            cc_report = self.transport.cc_report()
            stats["cc_ticks"] = float(cc_report.ticks)
            stats["cc_timeouts"] = cc_report.total_timeouts
            stats["cc_retransmitted_bytes"] = cc_report.total_retransmitted_bytes
            stats["cc_dropped_packets"] = cc_report.dropped_packets
            stats["cc_marked_packets"] = cc_report.marked_packets
        return SimulationResult(
            config=config,
            topology=self.topology,
            router=self.router,
            socket_log=socket_log,
            applog=self.applog,
            link_loads=self.link_loads,
            transfers=self.transfers,
            jobs=self.executor.jobs,
            duration=config.duration,
            stats=stats,
            cc=cc_report,
        )


def simulate(
    config: SimulationConfig,
    telemetry: Telemetry | None = None,
    heartbeat: Callable[[dict], None] | None = None,
    heartbeat_interval: float | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it.

    When ``heartbeat`` is given, it is called with a progress snapshot
    every ``heartbeat_interval`` simulated seconds (default: a fifth of
    the campaign duration, so every run beats at least four times).
    """
    simulator = Simulator(config, telemetry=telemetry)
    if heartbeat is not None:
        interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else config.duration / 5.0
        )
        simulator.attach_heartbeat(interval, heartbeat)
    return simulator.run()
