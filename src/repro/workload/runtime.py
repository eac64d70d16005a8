"""Job execution: the engine that turns compiled jobs into network traffic.

This module is where the paper's qualitative explanations of datacenter
traffic become mechanism:

* **Work-seeks-bandwidth** — vertices are placed via the
  :class:`~repro.workload.scheduler.SlotScheduler` locality ladder, so most
  exchanges stay in-rack (Fig 2's diagonal blocks).
* **Scatter-gather** — barrier phases (Aggregate, Combine) pull a bucket's
  worth of data from *every* upstream vertex (Fig 2's horizontal and
  vertical lines).
* **Stop-and-go flow creation** — each vertex opens at most
  ``max_connections`` fetches and starts queued fetches on a
  ``connection_quantum`` grid, producing the periodic inter-arrival modes
  of Fig 11.
* **Read failures under congestion** — remote fetches that overlapped a
  high-utilisation link carry a multiplied failure hazard; jobs whose
  vertices exhaust retries are killed and "logged as a read failure"
  (§4.2, Fig 8).
* **Evacuations** — the automated management system drains every block
  off a problem server, an unexpected source of long congestion episodes.

The executor is deliberately decoupled from the simulator through the
small :class:`SimulationServices` protocol, so it can be unit-tested with
a fake service implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..cluster.topology import ClusterTopology
from ..instrumentation.applog import ApplicationLog
from ..simulation.transport import Transfer, TransferMeta
from ..telemetry import NULL_TELEMETRY, Telemetry
from .blockstore import BlockStore
from .generator import WorkloadConfig, WorkloadSchedule
from .job import (
    InputSource,
    JobRuntime,
    JobState,
    PhaseRuntime,
    VertexRuntime,
    VertexState,
)
from .scheduler import PlacementLevel, SlotScheduler
from .scope import JobSpec, compile_job

__all__ = ["SimulationServices", "JobExecutor"]

#: A vertex retries a failed read this many times before its job is killed.
_MAX_READ_RETRIES = 5


class SimulationServices(Protocol):
    """What the executor needs from its host simulator."""

    def now(self) -> float:
        """Current simulation time."""

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at an absolute time."""

    def start_transfer(
        self,
        src: int,
        dst: int,
        size: float,
        meta: TransferMeta,
        on_complete: Callable[[Transfer], None],
    ) -> None:
        """Launch a network transfer and call back on completion."""

    def max_path_utilization(self, src: int, dst: int, start: float, end: float) -> float:
        """Peak link utilisation seen along the src→dst path in a window."""


@dataclass
class _FetchQueue:
    """Connection-capped, quantum-paced fetch state for one vertex."""

    pending: deque[InputSource]
    in_flight: int = 0
    local_read_done: bool = True


class JobExecutor:
    """Drives jobs, ingestion, egress and evacuations through a simulator."""

    def __init__(
        self,
        topology: ClusterTopology,
        config: WorkloadConfig,
        services: SimulationServices,
        applog: ApplicationLog,
        rng: np.random.Generator,
        congestion_threshold: float = 0.7,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.services = services
        self.applog = applog
        self.congestion_threshold = congestion_threshold
        self._rng = rng
        # Telemetry instruments are resolved once here; on the null
        # session every one is a shared no-op, so the hot paths below
        # stay branch-free.
        tele = telemetry or NULL_TELEMETRY
        self._ctr_jobs_started = tele.counter("workload.jobs_started")
        self._ctr_jobs_finished = {
            "succeeded": tele.counter("workload.jobs_finished", outcome="succeeded"),
            "killed_read_failure": tele.counter(
                "workload.jobs_finished", outcome="killed_read_failure"
            ),
        }
        self._ctr_phases_started = tele.counter("workload.phases_started")
        self._ctr_phases_finished = tele.counter("workload.phases_finished")
        self._ctr_vertices_started = tele.counter("workload.vertices_started")
        self._ctr_vertices_finished = tele.counter("workload.vertices_finished")
        self._ctr_read_failures = tele.counter("workload.read_failures")
        self.blockstore = BlockStore(
            topology, rng=rng, replication_factor=config.replication_factor
        )
        self.scheduler = SlotScheduler(
            topology,
            rng=rng,
            slots_per_server=config.slots_per_server,
            locality_bias=config.locality_bias,
        )
        self.jobs: dict[int, JobRuntime] = {}
        self._vertices: dict[int, VertexRuntime] = {}
        self._fetch_queues: dict[int, _FetchQueue] = {}
        self._job_manager: dict[int, int] = {}
        #: Queued vertices indexed by the servers holding their data,
        #: plus a FIFO of vertices whose locality patience has expired.
        self._local_waiters: dict[int, deque[int]] = {}
        self._expired_waiters: deque[int] = deque()
        self._next_job_id = 0
        self._next_vertex_id = 0
        #: Counters for traffic attribution sanity checks.
        self.transfers_requested = 0
        self._seed_initial_data()

    def _seed_initial_data(self) -> None:
        """Populate the block store with the cluster's standing datasets.

        Real servers hold terabytes of replicated blocks before any
        measured job runs; evacuating one of them therefore streams data
        for minutes.  One dataset is anchored per server so storage is
        spread evenly, and every standing block is placed by one draw.
        """
        per_server = self.config.initial_data_per_server
        if per_server <= 0:
            return
        self.blockstore.create_datasets(
            (
                (f"standing-{server}", per_server, server)
                for server in range(self.topology.num_servers)
            ),
            block_size=self.config.block_size,
        )

    # ----------------------------------------------------------- scheduling

    def install_schedule(self, schedule: WorkloadSchedule) -> None:
        """Register every top-level workload event with the simulator."""
        for spec in schedule.jobs:
            self.services.schedule(spec.submit_time, self._make_job_starter(spec))
        for ingestion in schedule.ingestions:
            self.services.schedule(
                ingestion.time,
                self._make_ingestion_starter(ingestion.external_host,
                                             ingestion.total_bytes),
            )
        for evacuation in schedule.evacuations:
            self.services.schedule(evacuation.time, self._run_evacuation)

    def _make_job_starter(self, spec: JobSpec) -> Callable[[], None]:
        return lambda: self._start_job(spec)

    def _make_ingestion_starter(self, host: int, total: float) -> Callable[[], None]:
        return lambda: self._start_ingestion(host, total)

    # ------------------------------------------------------------------ jobs

    def _home_servers(self, scope: str) -> list[int] | None:
        """Pick the home locality pool for a job's input data."""
        topo = self.topology
        if scope == "rack":
            rack = int(self._rng.integers(topo.num_racks))
            return list(topo.servers_in_rack(rack))
        if scope == "vlan":
            vlan = int(self._rng.integers(topo.num_vlans))
            return [
                s
                for rack in topo.racks_in_vlan(vlan)
                for s in topo.servers_in_rack(rack)
            ]
        return None

    def _start_job(self, spec: JobSpec) -> None:
        compiled = compile_job(
            spec,
            block_size=self.config.block_size,
            target_bucket_bytes=self.config.target_bucket_bytes,
            max_vertices_per_phase=self.config.max_vertices_per_phase,
            max_extract_vertices=self.config.max_extract_vertices,
        )
        job = JobRuntime(job_id=self._next_job_id, compiled=compiled)
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        job.state = JobState.RUNNING
        job.start_time = self.services.now()
        # Input data pre-exists; its placement concentrates in the job's
        # home scope, which is what lets work seek bandwidth.  The job
        # manager runs where the job lives.
        home = self._home_servers(spec.template.home_scope)
        manager_pool = home if home else range(self.topology.num_servers)
        self._job_manager[job.job_id] = int(self._rng.choice(list(manager_pool)))
        dataset = self.blockstore.create_dataset(
            name=f"input-{spec.name}", total_bytes=spec.input_bytes,
            block_size=self.config.block_size,
            home_servers=home,
            home_bias=self.config.input_home_bias if home else 0.0,
        )
        for compiled_phase in compiled.phases:
            job.phases.append(PhaseRuntime(compiled=compiled_phase))
        self.applog.record_job_start(job.job_id, spec.name, spec.template.name,
                                     self.services.now())
        self._ctr_jobs_started.inc()
        extract_phase = job.phases[0]
        blocks_per_vertex: list[list] = [[] for _ in range(extract_phase.compiled.num_vertices)]
        for index, block in enumerate(dataset.blocks):
            blocks_per_vertex[index % len(blocks_per_vertex)].append(block)
        for block_group in blocks_per_vertex:
            vertex = self._new_vertex(job, phase_index=0)
            for block in block_group:
                vertex.inputs.append(
                    InputSource(servers=block.replicas, size=block.size,
                                description=f"block-{block.block_id}")
                )
            extract_phase.vertices.append(vertex)
        self._mark_phase_started(job, 0)
        for vertex in extract_phase.vertices:
            self._try_start_vertex(vertex)

    def _new_vertex(self, job: JobRuntime, phase_index: int) -> VertexRuntime:
        vertex = VertexRuntime(
            vertex_id=self._next_vertex_id, job_id=job.job_id, phase_index=phase_index
        )
        self._next_vertex_id += 1
        self._vertices[vertex.vertex_id] = vertex
        return vertex

    def _mark_phase_started(self, job: JobRuntime, phase_index: int) -> None:
        phase = job.phases[phase_index]
        if not phase.started:
            phase.started = True
            phase.start_time = self.services.now()
            self.applog.record_phase_start(
                job.job_id, phase_index, phase.compiled.phase_type.value,
                self.services.now(),
            )
            self._ctr_phases_started.inc()

    # ------------------------------------------------------------- placement

    def _preferred_servers(self, vertex: VertexRuntime) -> list[int]:
        """Servers holding the vertex's input data, heaviest first.

        Ties preserve replica order: a block's primary copy (the writer's,
        usually in the dataset's home rack) outranks the rack-diversity
        copy, the way storage clients read the nearest replica first.
        """
        weight: dict[int, float] = {}
        appearance: dict[int, int] = {}
        for source in vertex.inputs:
            share = source.size / len(source.servers)
            for position, server in enumerate(source.servers):
                weight[server] = weight.get(server, 0.0) + share
                appearance.setdefault(server, len(appearance) * 10 + position)
        return sorted(weight, key=lambda s: (-weight[s], appearance[s]))

    def _is_data_anchored(self, vertex: VertexRuntime) -> bool:
        """Every vertex with inputs prefers waiting briefly for a slot
        near its data: extract next to a block replica, pipelined stages
        next to their single upstream output, and shuffle vertices next to
        their heaviest producers.  The patience is bounded
        (``locality_wait``), so placement degrades down the ladder rather
        than stalling."""
        return bool(vertex.inputs)

    def _try_start_vertex(self, vertex: VertexRuntime) -> None:
        """Attempt a vertex's first placement; queue it on refusal.

        Data-anchored vertices start by demanding a local slot (delay
        scheduling); the patience expiry and slot-release hooks relax
        that over time.
        """
        if vertex.state not in (VertexState.WAITING, VertexState.QUEUED):
            return
        job = self.jobs[vertex.job_id]
        if job.state != JobState.RUNNING:
            return
        # Delay scheduling only applies when the cluster honours locality
        # at all (the A1 ablation switches both off together).
        anchored = (
            self._is_data_anchored(vertex)
            and self.config.locality_wait > 0
            and self.config.locality_bias > 0
        )
        max_level = PlacementLevel.LOCAL if anchored else PlacementLevel.CLUSTER
        placement = self.scheduler.try_place(
            self._preferred_servers(vertex)[:4], max_level=max_level
        )
        if placement is None:
            self._queue_vertex(vertex, patient=anchored)
            return
        self._activate_vertex(vertex, placement)

    def _queue_vertex(self, vertex: VertexRuntime, patient: bool) -> None:
        """Park a vertex: patient vertices are indexed by their preferred
        servers for local matching and get a patience clock; impatient
        ones go straight on the any-slot queue."""
        if vertex.state == VertexState.QUEUED:
            return
        vertex.state = VertexState.QUEUED
        vertex_id = vertex.vertex_id
        if patient:
            for server in self._preferred_servers(vertex)[:4]:
                if 0 <= server < self.topology.num_servers:
                    self._local_waiters.setdefault(server, deque()).append(vertex_id)
            self.services.schedule(
                self.services.now() + self.config.locality_wait,
                lambda: self._patience_expired(vertex_id),
            )
        else:
            self._expired_waiters.append(vertex_id)

    def _patience_expired(self, vertex_id: int) -> None:
        """A waiting vertex gives up on locality and takes any free slot."""
        vertex = self._vertices[vertex_id]
        if vertex.state != VertexState.QUEUED:
            return
        placement = self.scheduler.try_place(self._preferred_servers(vertex)[:4])
        if placement is not None:
            self._activate_vertex(vertex, placement)
        else:
            self._expired_waiters.append(vertex_id)

    def _activate_vertex(self, vertex: VertexRuntime, placement) -> None:
        job = self.jobs[vertex.job_id]
        vertex.state = VertexState.FETCHING
        vertex.server = placement.server
        vertex.start_time = self.services.now()
        job.servers_used.add(placement.server)
        self.applog.record_vertex_start(
            vertex.vertex_id, job.job_id, vertex.phase_index, placement.server,
            placement.level.name, self.services.now(),
        )
        self._ctr_vertices_started.inc()
        self._send_control_message(self._job_manager[job.job_id], placement.server, job)
        self._begin_fetches(vertex)

    def _on_slot_freed(self, server: int) -> None:
        """Offer a freed slot: data-local waiters first, then the oldest
        vertex whose patience has expired.

        Local-first matching is what a data-aware job manager does, and
        it is what keeps extract reads off the network even when the
        cluster runs hot.  Entries for vertices that have moved on are
        pruned lazily.
        """
        waiters = self._local_waiters.get(server)
        while waiters:
            vertex_id = waiters.popleft()
            vertex = self._vertices[vertex_id]
            if vertex.state != VertexState.QUEUED:
                continue
            if self.jobs[vertex.job_id].state != JobState.RUNNING:
                vertex.state = VertexState.FAILED
                continue
            placement = self.scheduler.try_place(
                self._preferred_servers(vertex)[:4], max_level=PlacementLevel.LOCAL
            )
            if placement is not None:
                self._activate_vertex(vertex, placement)
                return
            # Could not place locally after all (stale index entry for a
            # server that is full again); put it back and stop scanning.
            waiters.appendleft(vertex_id)
            break
        while self._expired_waiters:
            vertex_id = self._expired_waiters.popleft()
            vertex = self._vertices[vertex_id]
            if vertex.state != VertexState.QUEUED:
                continue
            if self.jobs[vertex.job_id].state != JobState.RUNNING:
                vertex.state = VertexState.FAILED
                continue
            placement = self.scheduler.try_place(self._preferred_servers(vertex)[:4])
            if placement is not None:
                self._activate_vertex(vertex, placement)
            else:
                self._expired_waiters.appendleft(vertex_id)
            return

    # -------------------------------------------------------------- fetching

    def _begin_fetches(self, vertex: VertexRuntime) -> None:
        assert vertex.server is not None
        local_bytes = 0.0
        remote: deque[InputSource] = deque()
        for source in vertex.inputs:
            if vertex.server in source.servers:
                local_bytes += source.size
                vertex.local_bytes_read += source.size
            elif source.size > 0:
                remote.append(source)
        queue = _FetchQueue(pending=remote, local_read_done=local_bytes == 0)
        self._fetch_queues[vertex.vertex_id] = queue
        if local_bytes > 0:
            delay = local_bytes / self.config.disk_read_rate
            self.services.schedule(
                self.services.now() + delay,
                lambda: self._local_read_done(vertex.vertex_id),
            )
        if not queue.pending and queue.local_read_done:
            self._start_compute(vertex)
            return
        for _ in range(min(self.config.max_connections, len(queue.pending))):
            self._launch_next_fetch(vertex.vertex_id, first_wave=True)

    def _quantized_start(self, first_wave: bool = False) -> float:
        """Next flow-creation opportunity on the stop-and-go grid."""
        quantum = self.config.connection_quantum
        now = self.services.now()
        base = np.ceil((now + 1e-9) / quantum) * quantum
        jitter = float(self._rng.uniform(0.0, self.config.connection_jitter))
        if first_wave:
            # The first wave of a vertex's fetches rides the same slot.
            return float(base) + jitter
        return float(base) + jitter

    def _launch_next_fetch(self, vertex_id: int, first_wave: bool = False) -> None:
        vertex = self._vertices[vertex_id]
        queue = self._fetch_queues[vertex_id]
        if not queue.pending:
            return
        source = queue.pending.popleft()
        queue.in_flight += 1
        start_at = self._quantized_start(first_wave=first_wave)
        self.services.schedule(start_at, lambda: self._fire_fetch(vertex_id, source))

    def _fire_fetch(self, vertex_id: int, source: InputSource) -> None:
        vertex = self._vertices[vertex_id]
        job = self.jobs[vertex.job_id]
        queue = self._fetch_queues[vertex_id]
        if job.state != JobState.RUNNING or vertex.state != VertexState.FETCHING:
            queue.in_flight -= 1
            return
        assert vertex.server is not None
        candidates = [s for s in source.servers if s != vertex.server]
        src = int(self._rng.choice(candidates)) if candidates else source.servers[0]
        meta = TransferMeta(
            kind="fetch",
            job_id=job.job_id,
            phase_index=vertex.phase_index,
            vertex_id=vertex.vertex_id,
            connection_key=(job.job_id, vertex.vertex_id, src),
        )
        fetch_start = self.services.now()
        self.transfers_requested += 1

        def on_complete(transfer: Transfer) -> None:
            self._fetch_completed(vertex_id, source, transfer, fetch_start)

        self.services.start_transfer(src, vertex.server, source.size, meta, on_complete)

    def _fetch_completed(
        self,
        vertex_id: int,
        source: InputSource,
        transfer: Transfer,
        fetch_start: float,
    ) -> None:
        vertex = self._vertices[vertex_id]
        job = self.jobs[vertex.job_id]
        queue = self._fetch_queues[vertex_id]
        queue.in_flight -= 1
        if job.state != JobState.RUNNING or vertex.state != VertexState.FETCHING:
            return
        vertex.remote_bytes_read += source.size
        if self._read_failed(transfer, fetch_start):
            vertex.read_failures += 1
            job.read_failure_count += 1
            self.applog.record_read_failure(
                job.job_id, vertex.vertex_id, transfer.src, transfer.dst,
                self.services.now(),
            )
            self._ctr_read_failures.inc()
            if vertex.read_failures > _MAX_READ_RETRIES:
                self._kill_job(job)
                return
            queue.pending.append(source)  # retry, possibly other replica
            self._launch_next_fetch(vertex_id)
            return
        if queue.pending:
            self._launch_next_fetch(vertex_id)
        elif queue.in_flight == 0 and queue.local_read_done:
            self._start_compute(vertex)

    def _read_failed(self, transfer: Transfer, fetch_start: float) -> bool:
        """Sample the read-failure hazard for a completed fetch.

        "Not all read failures are due to the network; besides congestion
        they could be caused by an unresponsive machine, bad software or
        bad disk sectors" (§4.2) — hence the unconditional
        ``non_network_failure_prob`` term.
        """
        config = self.config
        utilization = self.services.max_path_utilization(
            transfer.src, transfer.dst, fetch_start, self.services.now()
        )
        hazard = config.read_failure_base
        if utilization >= self.congestion_threshold:
            hazard *= config.read_failure_congested_multiplier
        hazard += config.non_network_failure_prob
        return bool(self._rng.random() < min(hazard, 1.0))

    def _local_read_done(self, vertex_id: int) -> None:
        vertex = self._vertices[vertex_id]
        queue = self._fetch_queues.get(vertex_id)
        if queue is None or vertex.state != VertexState.FETCHING:
            return
        # Non-network failures (bad disk sectors, bad software, an
        # unresponsive machine, §4.2) strike local reads too — they are
        # what gives congestion-free jobs a non-zero failure baseline.
        if self._rng.random() < self.config.non_network_failure_prob:
            job = self.jobs[vertex.job_id]
            vertex.read_failures += 1
            job.read_failure_count += 1
            assert vertex.server is not None
            self.applog.record_read_failure(
                job.job_id, vertex.vertex_id, vertex.server, vertex.server,
                self.services.now(),
            )
            self._ctr_read_failures.inc()
            if vertex.read_failures > _MAX_READ_RETRIES:
                self._kill_job(job)
                return
            # Retry the local read (e.g. from the rack-local replica).
            delay = max(vertex.local_bytes_read, 1.0) / self.config.disk_read_rate
            self.services.schedule(
                self.services.now() + delay,
                lambda: self._local_read_done(vertex_id),
            )
            return
        queue.local_read_done = True
        if not queue.pending and queue.in_flight == 0:
            self._start_compute(vertex)

    # --------------------------------------------------------------- compute

    def _start_compute(self, vertex: VertexRuntime) -> None:
        job = self.jobs[vertex.job_id]
        if job.state != JobState.RUNNING or vertex.state != VertexState.FETCHING:
            return
        vertex.state = VertexState.COMPUTING
        noise = float(
            np.exp(self._rng.normal(0.0, self.config.compute_noise_sigma))
        )
        duration = 0.05 + vertex.total_input_bytes / self.config.compute_throughput * noise
        self.services.schedule(
            self.services.now() + duration,
            lambda: self._vertex_done(vertex.vertex_id),
        )

    def _vertex_done(self, vertex_id: int) -> None:
        vertex = self._vertices[vertex_id]
        job = self.jobs[vertex.job_id]
        if job.state != JobState.RUNNING or vertex.state != VertexState.COMPUTING:
            return
        phase = job.phases[vertex.phase_index]
        compiled = phase.compiled
        share = vertex.total_input_bytes / max(compiled.input_bytes, 1.0)
        vertex.output_bytes = compiled.output_bytes * share
        vertex.state = VertexState.DONE
        vertex.end_time = self.services.now()
        assert vertex.server is not None
        self.scheduler.release(vertex.server)
        self.applog.record_vertex_end(
            vertex.vertex_id, job.job_id, vertex.phase_index, self.services.now(),
            read_failures=vertex.read_failures,
            remote_bytes=vertex.remote_bytes_read,
        )
        self._ctr_vertices_finished.inc()
        self._send_control_message(vertex.server, self._job_manager[job.job_id], job)
        self._fetch_queues.pop(vertex_id, None)
        self._advance_phase(job, vertex)
        self._on_slot_freed(vertex.server)

    # ------------------------------------------------------- phase plumbing

    def _advance_phase(self, job: JobRuntime, finished: VertexRuntime) -> None:
        phase_index = finished.phase_index
        phase = job.phases[phase_index]
        next_index = phase_index + 1
        if next_index < len(job.phases):
            next_phase = job.phases[next_index]
            if next_phase.compiled.pipelined:
                self._start_pipelined_successor(job, next_index, finished)
            elif phase.done:
                self._start_barrier_phase(job, next_index)
        if phase.done and phase.end_time is None:
            phase.end_time = self.services.now()
            self.applog.record_phase_end(job.job_id, phase_index, self.services.now())
            self._ctr_phases_finished.inc()
            if phase_index == len(job.phases) - 1:
                self._complete_job(job)

    def _start_pipelined_successor(
        self, job: JobRuntime, phase_index: int, upstream: VertexRuntime
    ) -> None:
        """One pipelined vertex per upstream vertex, started as data lands."""
        self._mark_phase_started(job, phase_index)
        phase = job.phases[phase_index]
        vertex = self._new_vertex(job, phase_index)
        assert upstream.server is not None
        vertex.inputs.append(
            InputSource(
                servers=(upstream.server,),
                size=upstream.output_bytes,
                description=f"pipe-from-{upstream.vertex_id}",
            )
        )
        phase.vertices.append(vertex)
        self._try_start_vertex(vertex)

    def _start_barrier_phase(self, job: JobRuntime, phase_index: int) -> None:
        """Start a shuffle phase: every bucket pulls its partition from
        every upstream producer.

        Fetches are grouped by producer *server*: a bucket vertex opens
        one connection per server holding upstream output and streams all
        of that server's partitions over it, the way real shuffle
        services do — which both bounds fan-in (an incast safeguard,
        §4.4) and makes shuffle flow sizes track chunking.
        """
        phase = job.phases[phase_index]
        if phase.started:
            return
        self._mark_phase_started(job, phase_index)
        upstream = job.phases[phase_index - 1]
        bytes_by_server: dict[int, float] = {}
        for producer in upstream.vertices:
            if producer.state == VertexState.DONE and producer.output_bytes > 0:
                assert producer.server is not None
                bytes_by_server[producer.server] = (
                    bytes_by_server.get(producer.server, 0.0) + producer.output_bytes
                )
        buckets = phase.compiled.num_vertices
        # Partition skew: each producer-server's output splits unevenly
        # over buckets (hot keys).  Weights are normalised per server so
        # producer bytes are conserved exactly.
        sigma = self.config.partition_skew_sigma
        servers = sorted(bytes_by_server)
        if sigma > 0 and servers:
            raw = np.exp(self._rng.normal(0.0, sigma, size=(len(servers), buckets)))
            weights = raw * buckets / raw.sum(axis=1, keepdims=True)
        else:
            weights = np.ones((len(servers), buckets))
        for bucket in range(buckets):
            vertex = self._new_vertex(job, phase_index)
            for row, server in enumerate(servers):
                vertex.inputs.append(
                    InputSource(
                        servers=(server,),
                        size=bytes_by_server[server] * weights[row, bucket] / buckets,
                        description=f"shuffle-from-server-{server}",
                    )
                )
            phase.vertices.append(vertex)
        for vertex in phase.vertices:
            self._try_start_vertex(vertex)

    def _complete_job(self, job: JobRuntime) -> None:
        job.state = JobState.SUCCEEDED
        job.end_time = self.services.now()
        self.applog.record_job_end(job.job_id, "succeeded", self.services.now(),
                                   read_failures=job.read_failure_count)
        self._ctr_jobs_finished["succeeded"].inc()
        if job.compiled.spec.template.writes_output:
            self._write_job_output(job)

    def _kill_job(self, job: JobRuntime) -> None:
        job.state = JobState.KILLED
        job.end_time = self.services.now()
        self.applog.record_job_end(job.job_id, "killed_read_failure",
                                   self.services.now(),
                                   read_failures=job.read_failure_count)
        self._ctr_jobs_finished["killed_read_failure"].inc()
        freed: list[int] = []
        for phase in job.phases:
            for vertex in phase.vertices:
                if vertex.state in (VertexState.FETCHING, VertexState.COMPUTING):
                    assert vertex.server is not None
                    self.scheduler.release(vertex.server)
                    freed.append(vertex.server)
                    vertex.state = VertexState.FAILED
                    vertex.end_time = self.services.now()
                elif vertex.state in (VertexState.WAITING, VertexState.QUEUED):
                    vertex.state = VertexState.FAILED
        for server in freed:
            self._on_slot_freed(server)

    # ---------------------------------------------------- output replication

    def _write_job_output(self, job: JobRuntime) -> None:
        """Replicate final-phase outputs into the block store.

        Outputs are written locally first (§3: "outputs are always written
        to the local disk"), then replicas stream to the chosen peers.
        """
        dataset = self.blockstore.create_dataset(
            name=f"output-{job.name}", total_bytes=max(job.compiled.output_bytes, 1.0),
            block_size=self.config.block_size,
        )
        # create_dataset spread blocks randomly; re-anchor them on the
        # producing vertices by issuing replication flows from producers.
        final_phase = job.phases[-1]
        producers = [v for v in final_phase.vertices if v.state == VertexState.DONE]
        if not producers:
            return
        egress_planned = bool(
            self.topology.spec.external_hosts
            and self._rng.random() < self.config.egress_probability
        )
        replica_holders: list[int] = []
        for index, block in enumerate(dataset.blocks):
            producer = producers[index % len(producers)]
            assert producer.server is not None
            replicas = self.blockstore.choose_replicas(writer=producer.server)
            replica_holders.append(producer.server)
            previous = producer.server
            for replica in replicas[1:]:
                meta = TransferMeta(
                    kind="replication",
                    job_id=job.job_id,
                    phase_index=len(job.phases) - 1,
                    connection_key=(job.job_id, "repl", previous, replica),
                )
                self.transfers_requested += 1
                self.services.start_transfer(
                    previous, replica, block.size, meta, lambda _t: None
                )
                previous = replica
        if egress_planned:
            self._start_egress(job, dataset.blocks, replica_holders)

    def _start_egress(self, job: JobRuntime, blocks: list, holders: list[int]) -> None:
        host = int(self._rng.choice(list(self.topology.external_hosts())))
        for block, holder in zip(blocks, holders):
            meta = TransferMeta(
                kind="egress",
                job_id=job.job_id,
                connection_key=(job.job_id, "egress", holder, host),
            )
            self.transfers_requested += 1
            self.services.start_transfer(holder, host, block.size, meta,
                                         lambda _t: None)

    # ------------------------------------------------------------- ingestion

    def _start_ingestion(self, host: int, total_bytes: float) -> None:
        """An external host uploads a dataset, block by block."""
        dataset = self.blockstore.create_dataset(
            name=f"ingest-{host}-{self.services.now():.0f}",
            total_bytes=total_bytes,
            block_size=self.config.block_size,
        )
        queue = deque(dataset.blocks)

        def upload_next() -> None:
            if not queue:
                return
            block = queue.popleft()
            first = block.replicas[0]
            meta = TransferMeta(kind="ingest",
                                connection_key=("ingest", host, first))
            self.transfers_requested += 1

            def on_landed(_transfer: Transfer) -> None:
                previous = first
                for replica in block.replicas[1:]:
                    repl_meta = TransferMeta(
                        kind="replication",
                        connection_key=("ingest-repl", previous, replica),
                    )
                    self.transfers_requested += 1
                    self.services.start_transfer(previous, replica, block.size,
                                                 repl_meta, lambda _t: None)
                    previous = replica
                upload_next()

            self.services.start_transfer(host, first, block.size, meta, on_landed)

        # A small upload window keeps ingestion from serialising fully.
        for _ in range(2):
            upload_next()

    # ------------------------------------------------------------ evacuation

    def _run_evacuation(self) -> None:
        """Drain the usable blocks off a failing rack's servers (§4.2).

        "When a server repeatedly experiences problems, the automated
        management system ... evacuates all the usable blocks on that
        server prior to alerting a human."  Failures correlate within a
        rack (shared ToR, power), so one event drains up to
        ``evacuation_servers`` machines of the same rack concurrently —
        which is what pins that rack's uplink at capacity for minutes and
        produces the long, localized congestion episodes of Fig 6.
        """
        occupied = self.blockstore.occupied_servers()
        if not occupied:
            return
        anchor = int(self._rng.choice(occupied))
        rack = self.topology.rack_of(anchor)
        held = set(occupied)
        victims = [
            s for s in self.topology.servers_in_rack(rack) if s in held
        ][: max(1, self.config.evacuation_servers)]
        for server in victims:
            self._evacuate_server(server)

    def _evacuate_server(self, server: int) -> None:
        transfers = self.blockstore.evacuate(server)
        if not transfers:
            return
        self.applog.record_evacuation(server, self.services.now(), len(transfers))
        queue = deque(transfers)
        window = max(2, self.config.max_connections)

        def copy_next() -> None:
            if not queue:
                return
            block, source, destination = queue.popleft()
            meta = TransferMeta(
                kind="evacuation",
                connection_key=("evac", server, source, destination),
            )
            self.transfers_requested += 1
            self.services.start_transfer(
                source, destination, block.size, meta, lambda _t: copy_next()
            )

        for _ in range(window):
            copy_next()

    # ---------------------------------------------------------- control plane

    def _send_control_message(self, src: int, dst: int, job: JobRuntime) -> None:
        """Small job-manager RPC; skipped when endpoints coincide."""
        if src == dst or self.config.control_message_bytes <= 0:
            return
        meta = TransferMeta(
            kind="control",
            job_id=job.job_id,
            connection_key=(job.job_id, "ctl", src, dst),
        )
        self.transfers_requested += 1
        self.services.start_transfer(
            src, dst, self.config.control_message_bytes, meta, lambda _t: None
        )
