"""Streaming analysis of recorded traces, one chunk at a time.

``analyze_trace`` runs the three core accumulators
(:class:`~repro.core.streaming.StreamingTrafficMatrix`,
:class:`~repro.core.streaming.StreamingFlows`,
:class:`~repro.core.streaming.StreamingCongestion`) over a trace in one
in-process pass and folds a
:class:`~repro.core.streaming.FlowStatsSketch` over the final flow
table.  Fanning chunk ranges across worker processes measured slower
than this pass on every trace tried on a 2-vCPU host (README,
"Recording and analyzing traces").
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    flows: FlowTable
    tm: TrafficMatrixSeries
    congestion: CongestionSummary | None
    flow_stats: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Headline numbers for the CLI / smoke checks."""
        out = {
            "rows": self.rows,
            "chunks": self.chunks,
            # The pass always runs in-process; pinned digests of this
            # summary still include the key.
            "jobs": 1,
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


def _threshold_from(reader: TraceReader, threshold: float | None) -> float:
    """``threshold``, or the recorded config's when it is ``None``."""
    if threshold is not None:
        return threshold
    return float(reader.meta.get("congestion_threshold", DEFAULT_THRESHOLD))


def _congestion_pass(
    reader: TraceReader, threshold: float | None
) -> StreamingCongestion | None:
    """Congestion episodes over the link-load sidecar, or ``None`` for a
    trace recorded without one.  The sidecar loads whole, once, and is
    released before the chunks are read."""
    loads = reader.linkloads()
    if loads is None:
        return None
    observed = loads.observed_links
    return StreamingCongestion(
        num_links=observed.size,
        threshold=_threshold_from(reader, threshold),
        bin_width=loads.bin_width,
        link_ids=observed,
    ).update(loads.utilization_matrix()[observed])


def _chunk_pass(
    reader: TraceReader,
    window: float,
    inactivity_timeout: float,
    telemetry: Telemetry,
) -> tuple[FlowTable, TrafficMatrixSeries, dict]:
    """The flow table, TM series and flow statistics of a trace, from
    one pass over its chunks.  The link-load sidecar is not read."""
    tm = StreamingTrafficMatrix(
        _topology_from_meta(reader.meta), window, _duration_from(reader)
    )
    flows = StreamingFlows(inactivity_timeout=inactivity_timeout)
    for log in reader.iter_chunks(telemetry=telemetry):
        tm.update(log)
        flows.update(log)
    flow_table = flows.finalize()
    flow_stats = FlowStatsSketch().update(flow_table).finalize()
    return flow_table, tm.finalize(), flow_stats


def analyze_trace(
    path,
    jobs: int = 1,
    window: float = DEFAULT_TM_WINDOW,
    inactivity_timeout: float = DEFAULT_INACTIVITY_TIMEOUT,
    threshold: float | None = None,
    telemetry: Telemetry | None = None,
) -> TraceAnalysis:
    """One in-process streaming pass over a trace, one chunk at a time.

    Flow reconstruction holds, besides the chunk, only the raw bytes of
    flows active within the last ``inactivity_timeout``; every other
    flow is reduced to its total as it closes (see
    :class:`~repro.core.streaming.StreamingFlows`).  The congestion pass
    loads the link-load sidecar whole, once.

    ``threshold`` defaults to the recorded config's congestion threshold.
    ``jobs`` must be 1: the pass always runs in this process.
    """
    if jobs != 1:
        raise ValueError(f"analyze_trace runs in one process; got jobs={jobs}")
    tele = telemetry or NULL_TELEMETRY
    reader = TraceReader(path)
    with tele.span(
        "trace.analyze", chunks=reader.num_chunks, rows=reader.total_rows
    ):
        congestion = _congestion_pass(reader, threshold)
        flow_table, tm, flow_stats = _chunk_pass(
            reader, window, inactivity_timeout, tele
        )
        return TraceAnalysis(
            path=str(path),
            rows=reader.total_rows,
            chunks=reader.num_chunks,
            flows=flow_table,
            tm=tm,
            congestion=congestion.finalize() if congestion is not None else None,
            flow_stats=flow_stats,
        )


def check_against_inmemory(
    path,
    window: float = DEFAULT_TM_WINDOW,
    inactivity_timeout: float = DEFAULT_INACTIVITY_TIMEOUT,
    threshold: float | None = None,
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
        path, window=window,
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
        observed = loads.utilization_matrix()[loads.observed_links]
        summary = congestion_summary(
            observed, threshold=_threshold_from(reader, threshold),
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
