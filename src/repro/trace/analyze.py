"""Streaming analysis of recorded traces — sequential or fanned out.

``analyze_trace`` runs the three mergeable core accumulators
(:class:`~repro.core.streaming.StreamingTrafficMatrix`,
:class:`~repro.core.streaming.StreamingFlows`,
:class:`~repro.core.streaming.StreamingCongestion`) over a trace one
chunk at a time.  With ``jobs > 1`` the chunk (and utilisation-bin)
ranges are partitioned contiguously across the ``spawn`` workers of a
:class:`~concurrent.futures.ProcessPoolExecutor` created for the call,
and the partial accumulators are merged left to right, which by
construction yields the identical result.  On a 2-vCPU host ``jobs=2``
measured slower than ``jobs=1`` on every trace tried (README, "Recording
and analyzing traces").  A :class:`~repro.core.streaming.FlowStatsSketch`
is folded over the final flow table either way.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from ..cluster.topology import ClusterTopology, spec_from_mapping
from ..core.congestion import DEFAULT_THRESHOLD, CongestionSummary
from ..core.flows import DEFAULT_INACTIVITY_TIMEOUT, FlowTable
from ..core.streaming import (
    FlowStatsSketch,
    StreamingCongestion,
    StreamingFlows,
    StreamingTrafficMatrix,
)
from ..core.traffic_matrix import TrafficMatrixSeries
from ..telemetry import NULL_TELEMETRY, Telemetry
from .reader import TraceReader

__all__ = ["TraceAnalysis", "analyze_trace", "check_against_inmemory"]

#: Default TM window, matching the experiment datasets (Figs 2-4, 10).
DEFAULT_TM_WINDOW = 10.0


@dataclass
class TraceAnalysis:
    """Everything one streaming pass over a trace produces."""

    path: str
    rows: int
    chunks: int
    jobs: int
    flows: FlowTable
    tm: TrafficMatrixSeries
    congestion: CongestionSummary | None
    flow_stats: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Headline numbers for the CLI / smoke checks."""
        out = {
            "rows": self.rows,
            "chunks": self.chunks,
            "jobs": self.jobs,
            "num_flows": len(self.flows),
            "flow_bytes": float(self.flows.num_bytes.sum()) if len(self.flows) else 0.0,
            "tm_windows": self.tm.num_windows,
            "tm_total_bytes": float(self.tm.matrices.sum()),
        }
        if self.congestion is not None:
            out["congestion_episodes"] = len(self.congestion.episodes)
            out["links_with_congestion"] = self.congestion.links_with_any_congestion
            out["longest_episode"] = self.congestion.longest_episode
        return out


def _topology_from_meta(meta: dict) -> ClusterTopology:
    """Rebuild the (possibly non-tree) topology a trace was recorded on.

    Version-tolerant in both directions: seed-era traces (meta_version 1,
    no ``topology_kind`` in the spec) rebuild the original tree from the
    dataclass defaults, and unknown future spec keys are dropped (see
    :func:`~repro.cluster.topology.spec_from_mapping`).  The dispatch on
    ``topology_kind`` inside :class:`ClusterTopology` then builds the
    right fabric.
    """
    spec = meta.get("cluster_spec")
    if spec is None:
        raise ValueError(
            "trace has no cluster_spec in its meta; cannot rebuild the topology"
        )
    return ClusterTopology(spec_from_mapping(spec))


def _duration_from(reader: TraceReader) -> float:
    duration = reader.meta.get("duration")
    if duration is not None:
        return float(duration)
    # Fall back to the event span for traces recorded without meta.
    return max(reader.time_span()[1], 1.0)


def _make_accumulators(
    reader: TraceReader,
    window: float,
    timeout: float,
    threshold: float | None,
) -> tuple[StreamingTrafficMatrix, StreamingFlows, StreamingCongestion | None]:
    topology = _topology_from_meta(reader.meta)
    tm = StreamingTrafficMatrix(topology, window, _duration_from(reader))
    flows = StreamingFlows(inactivity_timeout=timeout)
    loads = reader.linkloads()
    congestion = None
    if loads is not None:
        if threshold is None:
            threshold = float(
                reader.meta.get("congestion_threshold", DEFAULT_THRESHOLD)
            )
        observed = loads.observed_links
        congestion = StreamingCongestion(
            num_links=observed.size,
            threshold=threshold,
            bin_width=loads.bin_width,
            link_ids=observed,
        )
    return tm, flows, congestion


def _analyze_range(payload: tuple) -> tuple:
    """Worker: accumulate one contiguous chunk range (and bin range).

    Top-level so ``spawn`` workers can pickle it; returns the partial
    accumulators for an in-order merge.
    """
    path, chunk_start, chunk_stop, bin_start, bin_stop, window, timeout, threshold = (
        payload
    )
    reader = TraceReader(path)
    tm, flows, congestion = _make_accumulators(reader, window, timeout, threshold)
    for log in reader.iter_chunks(chunk_start, chunk_stop):
        tm.update(log)
        flows.update(log)
    if congestion is not None:
        loads = reader.linkloads()
        observed = loads.utilization_matrix()[loads.observed_links]
        congestion.update(observed[:, bin_start:bin_stop], start_bin=bin_start)
    return tm, flows, congestion


def _ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, covering ranges."""
    parts = max(1, parts)
    size = math.ceil(total / parts) if total else 0
    out = []
    start = 0
    for _ in range(parts):
        stop = min(total, start + size)
        out.append((start, stop))
        start = stop
    return out


def analyze_trace(
    path,
    jobs: int = 1,
    window: float = DEFAULT_TM_WINDOW,
    inactivity_timeout: float = DEFAULT_INACTIVITY_TIMEOUT,
    threshold: float | None = None,
    telemetry: Telemetry | None = None,
) -> TraceAnalysis:
    """One streaming pass over a trace, reading one chunk at a time.

    Flow reconstruction holds, besides the chunk, only the raw bytes of
    flows active within the last ``inactivity_timeout`` and of flows that
    began within ``inactivity_timeout`` of the first event; every other
    flow is reduced to its total as it closes (see
    :class:`~repro.core.streaming.StreamingFlows`).

    ``threshold`` defaults to the recorded config's congestion threshold.
    ``jobs > 1`` fans contiguous chunk ranges across ``spawn`` workers
    and merges the partial accumulators in order — the result is
    identical to the sequential pass.
    """
    tele = telemetry or NULL_TELEMETRY
    reader = TraceReader(path)
    with tele.span(
        "trace.analyze", chunks=reader.num_chunks, rows=reader.total_rows, jobs=jobs
    ):
        if jobs <= 1 or reader.num_chunks <= 1:
            tm, flows, congestion = _make_accumulators(
                reader, window, inactivity_timeout, threshold
            )
            for log in reader.iter_chunks(telemetry=tele):
                tm.update(log)
                flows.update(log)
            if congestion is not None:
                loads = reader.linkloads()
                observed = loads.utilization_matrix()[loads.observed_links]
                congestion.update(observed)
            effective_jobs = 1
        else:
            effective_jobs = min(jobs, reader.num_chunks)
            chunk_ranges = _ranges(reader.num_chunks, effective_jobs)
            loads = reader.linkloads()
            num_bins = loads.num_bins if loads is not None else 0
            bin_ranges = _ranges(num_bins, effective_jobs)
            payloads = [
                (
                    str(path), cs, ce, bs, be,
                    window, inactivity_timeout, threshold,
                )
                for (cs, ce), (bs, be) in zip(chunk_ranges, bin_ranges)
            ]
            context = get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=effective_jobs, mp_context=context
            ) as pool:
                partials = list(pool.map(_analyze_range, payloads))
            tm, flows, congestion = partials[0]
            for other_tm, other_flows, other_congestion in partials[1:]:
                tm.merge(other_tm)
                flows.merge(other_flows)
                if congestion is not None:
                    congestion.merge(other_congestion)
        flow_table = flows.finalize()
        sketch = FlowStatsSketch().update(flow_table)
        return TraceAnalysis(
            path=str(path),
            rows=reader.total_rows,
            chunks=reader.num_chunks,
            jobs=effective_jobs,
            flows=flow_table,
            tm=tm.finalize(),
            congestion=congestion.finalize() if congestion is not None else None,
            flow_stats=sketch.finalize(),
        )


def check_against_inmemory(
    path,
    window: float = DEFAULT_TM_WINDOW,
    inactivity_timeout: float = DEFAULT_INACTIVITY_TIMEOUT,
    threshold: float | None = None,
    jobs: int = 1,
) -> dict:
    """Exact-equality comparison of streamed vs in-memory analyses.

    Loads the whole trace once (this is the *check*, not the production
    path) and asserts the streaming accumulators reproduced the
    traditional pipeline bit for bit.  Used by ``trace analyze --check``
    and the CI smoke job.
    """
    from ..core.congestion import congestion_summary
    from ..core.flows import reconstruct_flows
    from ..core.traffic_matrix import tm_series_from_events

    reader = TraceReader(path)
    streamed = analyze_trace(
        path, jobs=jobs, window=window,
        inactivity_timeout=inactivity_timeout, threshold=threshold,
    )
    log = reader.read_all()
    topology = _topology_from_meta(reader.meta)
    tm = tm_series_from_events(log, topology, window, _duration_from(reader))
    flows = reconstruct_flows(log, inactivity_timeout=inactivity_timeout)
    checks = {
        "tm_equal": bool(
            np.array_equal(streamed.tm.matrices, tm.matrices)
            and np.array_equal(streamed.tm.endpoint_ids, tm.endpoint_ids)
        ),
        "flows_equal": _flow_tables_equal(streamed.flows, flows),
    }
    loads = reader.linkloads()
    if loads is not None:
        resolved = threshold
        if resolved is None:
            resolved = float(
                reader.meta.get("congestion_threshold", DEFAULT_THRESHOLD)
            )
        observed = loads.utilization_matrix()[loads.observed_links]
        summary = congestion_summary(
            observed, threshold=resolved,
            bin_width=loads.bin_width, link_ids=loads.observed_links,
        )
        checks["congestion_equal"] = bool(
            streamed.congestion is not None
            and streamed.congestion.episodes == summary.episodes
            and streamed.congestion.num_links == summary.num_links
            and streamed.congestion.longest_episode == summary.longest_episode
        )
    checks["all_equal"] = all(checks.values())
    return checks


def _flow_tables_equal(a: FlowTable, b: FlowTable) -> bool:
    fields = (
        "src", "src_port", "dst", "dst_port", "protocol",
        "start_time", "end_time", "num_bytes", "num_events",
        "job_id", "phase_index",
    )
    return all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in fields
    )
