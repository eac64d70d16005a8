"""Shared experiment infrastructure: standard configs and memoised datasets.

Every figure reproduction runs against the same simulated measurement
campaign (one cluster, one multi-day workload), exactly as the paper's
figures all come from one instrumented cluster.  ``build_dataset``
memoises the expensive artefacts (simulation, flow reconstruction, TM
series, utilisation matrices) per configuration so a benchmark session
pays for the campaign once.

Scale notes (recorded in EXPERIMENTS.md): the production cluster is
~1500 servers measured over months; the standard campaign here is 150
servers over eight scaled "days" of 200 s each.  Sizes, rates and
capacities are scaled together so that the *shape* statistics (locality,
tails, churn, estimator orderings) are preserved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..cluster.routing import bisection_bandwidth
from ..cluster.topology import ClusterSpec
from ..config import SimulationConfig
from ..core.flows import DEFAULT_INACTIVITY_TIMEOUT, FlowTable, reconstruct_flows
from ..core.traffic_matrix import TrafficMatrixSeries, tm_series_from_events
from ..simulation.simulator import SimulationResult, simulate
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..util.units import GBPS
from ..workload.generator import WorkloadConfig
from .cache import DatasetDiskCache, LRUCache, config_fingerprint

__all__ = [
    "ExperimentDataset",
    "standard_config",
    "small_config",
    "build_dataset",
    "dataset_from_trace",
    "clear_dataset_cache",
    "set_dataset_cache_limit",
    "dataset_cache_stats",
    "DAY_LENGTH",
    "NUM_DAYS",
]

#: One scaled "day" of the standard campaign, seconds.
DAY_LENGTH = 150.0
#: The Fig 8 study covers eight days (5-12 Jan in the paper).
NUM_DAYS = 8

#: Relative load per day: busy weekdays, a light weekend (days 5-6,
#: matching the paper's 10-11 Jan), then a normal Monday.
_DAY_LOAD = (1.1, 1.0, 1.25, 0.95, 1.15, 0.40, 0.35, 1.05)


def standard_config(seed: int = 42) -> SimulationConfig:
    """The standard measurement campaign: 96 servers over 8 scaled days.

    The ToR uplinks are ~3:1 oversubscribed (8 × 1 Gbps servers behind
    2.5 Gbps), typical of the paper's era and necessary for hot-spots to
    be *possible* at all.  The size is chosen so a full campaign builds
    in a couple of minutes; scaling up (e.g. 150 servers, longer days)
    sharpens the statistics without changing their shape.
    """
    return SimulationConfig(
        cluster=ClusterSpec(
            racks=12,
            servers_per_rack=8,
            racks_per_vlan=4,
            external_hosts=3,
            tor_uplink_capacity=2.5 * GBPS,
            agg_uplink_capacity=8 * GBPS,
        ),
        workload=WorkloadConfig(
            job_arrival_rate=0.30,
            evacuation_rate=0.002,
            ingestion_rate=0.005,
            day_load_factors=_DAY_LOAD,
            day_length=DAY_LENGTH,
        ),
        duration=NUM_DAYS * DAY_LENGTH,
        seed=seed,
    )


def small_config(seed: int = 7) -> SimulationConfig:
    """A small, fast campaign for tests and quick demos (under ~15 s)."""
    return SimulationConfig(
        cluster=ClusterSpec(
            racks=6,
            servers_per_rack=8,
            racks_per_vlan=3,
            external_hosts=2,
            tor_uplink_capacity=2.5 * GBPS,
            agg_uplink_capacity=6 * GBPS,
        ),
        workload=WorkloadConfig(
            job_arrival_rate=0.3,
            evacuation_rate=0.006,
            day_load_factors=(1.0, 0.5),
            day_length=120.0,
        ),
        duration=240.0,
        seed=seed,
    )


@dataclass
class ExperimentDataset:
    """Everything the figure analyses need, computed once per config."""

    config: SimulationConfig
    result: SimulationResult
    flows: FlowTable
    #: Server-level TM series at a 10 s window (Figs 2-4, 10).
    tm10: TrafficMatrixSeries
    #: Per-link utilisation at 1 s bins, indexed by topology link id.
    utilization: np.ndarray
    #: Inter-switch link ids (the observable/congestion-study links).
    observed_links: np.ndarray
    bisection: float
    extras: dict = field(default_factory=dict)

    @property
    def observed_utilization(self) -> np.ndarray:
        """Utilisation restricted to inter-switch links."""
        return self.utilization[self.observed_links]

    @property
    def day_length(self) -> float:
        """Length of one simulated day."""
        return self.config.workload.day_length


#: In-memory dataset cache: content-addressed, bounded, LRU-evicted so
#: parameter sweeps and ablations do not grow memory without limit.
#: ``REPRO_DATASET_CACHE_SIZE`` overrides the default bound.
_CACHE: LRUCache = LRUCache(
    limit=max(1, int(os.environ.get("REPRO_DATASET_CACHE_SIZE", "8")))
)

#: Environment switch for the default disk-cache behaviour.
_DISK_CACHE_ENV = "REPRO_DISK_CACHE"


def set_dataset_cache_limit(limit: int) -> int:
    """Bound the in-memory dataset cache; returns the previous limit."""
    previous = _CACHE.limit
    _CACHE.set_limit(limit)
    return previous


def dataset_cache_stats() -> dict:
    """Size, bound and lifetime eviction count of the in-memory cache."""
    return {
        "size": len(_CACHE),
        "limit": _CACHE.limit,
        "evictions": _CACHE.evictions,
    }


def _disk_cache_enabled(disk_cache: bool | None, cache_dir) -> bool:
    if disk_cache is not None:
        return disk_cache
    if cache_dir is not None:
        return True
    return os.environ.get(_DISK_CACHE_ENV, "0").lower() in ("1", "true", "yes", "on")


def build_dataset(
    config: SimulationConfig | None = None,
    telemetry: Telemetry | None = None,
    heartbeat=None,
    heartbeat_interval: float | None = None,
    *,
    disk_cache: bool | None = None,
    cache_dir=None,
) -> ExperimentDataset:
    """Run (or fetch the cached) campaign for a configuration.

    Lookups go memory first (a bounded LRU keyed by
    :func:`~repro.experiments.cache.config_fingerprint`, a content hash
    of the full config tree), then — when ``disk_cache`` is enabled — the
    persistent :class:`~repro.experiments.cache.DatasetDiskCache`, so a
    cold process reuses a prior campaign instead of re-simulating it.
    ``disk_cache=None`` defers to the ``REPRO_DISK_CACHE`` environment
    switch unless ``cache_dir`` is given (which implies the disk layer).

    With a :class:`~repro.telemetry.Telemetry` session attached, each
    build stage gets its own span and cache traffic is counted
    (``dataset.cache_hits`` / ``dataset.cache_misses`` for the memory
    layer, ``dataset.disk_cache_hits`` / ``dataset.disk_cache_misses``
    for the disk layer, ``dataset.cache_evictions`` for LRU pressure).
    ``heartbeat`` and ``heartbeat_interval`` are forwarded to
    :func:`~repro.simulation.simulator.simulate` for progress reporting.
    """
    tele = telemetry or NULL_TELEMETRY
    # Resolve both counters up front so every manifest reports the pair,
    # zeros included.
    cache_hits = tele.counter("dataset.cache_hits")
    cache_misses = tele.counter("dataset.cache_misses")
    evictions = tele.counter("dataset.cache_evictions")
    if config is None:
        config = standard_config()
    key = config_fingerprint(config)
    disk = (
        DatasetDiskCache(cache_dir)
        if _disk_cache_enabled(disk_cache, cache_dir)
        else None
    )
    cached = _CACHE.get(key)
    if cached is not None:
        cache_hits.inc()
        if disk is not None and not disk.entry_dir(key).exists():
            # Backfill: the campaign predates this disk layer, but later
            # cold processes should still find it.
            with tele.span("build_dataset.disk_store"):
                disk.store(key, cached)
        return cached
    cache_misses.inc()
    if disk is not None:
        loaded = disk.load(key)
        if loaded is not None:
            tele.counter("dataset.disk_cache_hits").inc()
            _cache_insert(key, loaded, evictions)
            return loaded
        tele.counter("dataset.disk_cache_misses").inc()
    with tele.span("build_dataset", seed=config.seed, duration=config.duration):
        with tele.span("build_dataset.simulate"):
            result = simulate(
                config,
                telemetry=telemetry,
                heartbeat=heartbeat,
                heartbeat_interval=heartbeat_interval,
            )
        with tele.span("build_dataset.reconstruct_flows") as span:
            flows = reconstruct_flows(result.socket_log)
            span.set(num_flows=len(flows))
        with tele.span("build_dataset.tm_series"):
            tm10 = tm_series_from_events(
                result.socket_log, result.topology, window=10.0,
                duration=config.duration,
            )
        with tele.span("build_dataset.utilization"):
            utilization = result.link_loads.utilization_matrix()
    observed = np.array(
        [link.link_id for link in result.topology.inter_switch_links()], dtype=int
    )
    dataset = ExperimentDataset(
        config=config,
        result=result,
        flows=flows,
        tm10=tm10,
        utilization=utilization,
        observed_links=observed,
        bisection=bisection_bandwidth(result.topology),
    )
    if disk is not None:
        with tele.span("build_dataset.disk_store"):
            disk.store(key, dataset)
    _cache_insert(key, dataset, evictions)
    return dataset


def dataset_from_trace(
    path,
    telemetry: Telemetry | None = None,
) -> ExperimentDataset:
    """Build an :class:`ExperimentDataset` from a recorded trace.

    The flows and TM series come from the chunk pass that
    :func:`~repro.trace.analyze.analyze_trace` runs, so they equal what
    :func:`build_dataset` computes for the same campaign — without ever
    materialising the event log.  The utilisation comes from the
    link-load sidecar, loaded once after that pass; no congestion
    episodes are computed.  The topology is rebuilt the way that pass
    rebuilds it, so every trace it reads loads here too.  The embedded
    :class:`SimulationResult` is a shell: the socket log is empty (it
    lives on disk), the transfer list and application log were not
    persisted, and the workload config carries only the recorded
    ``day_length`` — the manifest's ``config_fingerprint`` is the
    full-config provenance.
    """
    from ..cluster.routing import Router
    from ..instrumentation.applog import ApplicationLog
    from ..instrumentation.events import SocketEventLog
    from ..trace.analyze import _chunk_pass, _topology_from_meta
    from ..trace.reader import TraceReader

    tele = telemetry or NULL_TELEMETRY
    reader = TraceReader(path)
    meta = reader.meta
    topology = _topology_from_meta(meta)
    duration = float(meta.get("duration", reader.time_span()[1]))
    config = SimulationConfig(
        cluster=topology.spec,
        workload=WorkloadConfig(day_length=float(meta.get("day_length", 300.0))),
        duration=duration,
        seed=int(meta.get("seed", 0)),
    )
    with tele.span("dataset_from_trace", path=str(path), rows=reader.total_rows):
        flows, tm10, flow_stats = _chunk_pass(
            reader, 10.0, DEFAULT_INACTIVITY_TIMEOUT, tele
        )
        loads = reader.linkloads()
        if loads is None:
            raise ValueError(f"trace has no recorded link loads: {path}")
        utilization = loads.utilization_matrix()
    empty_log = SocketEventLog()
    empty_log.finalize()
    result = SimulationResult(
        config=config,
        topology=topology,
        router=Router(topology),
        socket_log=empty_log,
        applog=ApplicationLog(),
        link_loads=loads,
        transfers=[],
        jobs={},
        duration=duration,
        stats={"socket_events": float(reader.total_rows)},
    )
    return ExperimentDataset(
        config=config,
        result=result,
        flows=flows,
        tm10=tm10,
        utilization=utilization,
        observed_links=np.asarray(loads.observed_links, dtype=int),
        bisection=bisection_bandwidth(topology),
        extras={"trace_path": str(path), "flow_stats": flow_stats},
    )


def _cache_insert(key: str, dataset: ExperimentDataset, eviction_counter) -> None:
    before = _CACHE.evictions
    _CACHE.put(key, dataset)
    evicted = _CACHE.evictions - before
    if evicted:
        eviction_counter.inc(evicted)


def clear_dataset_cache() -> None:
    """Drop all in-memory datasets (the disk layer is untouched)."""
    _CACHE.clear()
