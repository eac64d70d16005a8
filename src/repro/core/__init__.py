"""Core analysis pipeline: the paper's measurement analyses (§3-§4).

Everything downstream of the raw socket-event log lives here: flow
reconstruction with the paper's 60-second inactivity timeout
(:mod:`~repro.core.flows`), traffic matrices at arbitrary bin widths
(:mod:`~repro.core.traffic_matrix`), congestion-episode extraction and
victim-flow analysis for §4.2 (:mod:`~repro.core.congestion`),
work-vs-network attribution (:mod:`~repro.core.attribution`), TM churn
statistics for §4.5 (:mod:`~repro.core.change`), and the streaming
variants of all of the above (:mod:`~repro.core.streaming`) whose
``update``/``finalize`` protocol produces results exactly equal to the
in-memory pipeline.

Each module mirrors one analysis of the paper; the experiments layer
(:mod:`repro.experiments`) composes them into figures.
"""

from .attribution import AttributionReport, attribute_traffic, kind_of_flows
from .change import ChurnStats, churn_stats, normalized_change_series
from .congestion import (
    CongestionEpisode,
    CongestionSummary,
    VictimFlowComparison,
    congestion_summary,
    find_episodes,
    flows_overlapping_congestion,
    hot_matrix,
    simultaneous_hot_links,
    victim_flow_comparison,
)
from .flow_stats import (
    DurationStats,
    InterarrivalStats,
    detect_periodic_modes,
    duration_stats,
    interarrival_stats,
)
from .flows import DEFAULT_INACTIVITY_TIMEOUT, FlowTable, reconstruct_flows
from .impact import DailyImpact, ImpactStudy, read_failure_impact
from .incast import (
    IncastAudit,
    incast_audit,
    incast_report,
    max_concurrent_inbound,
)
from .patterns import (
    CorrespondentStats,
    PairByteStats,
    PatternSummary,
    correspondent_stats,
    pair_byte_stats,
    pattern_summary,
    scatter_gather_servers,
)
from .summary import TrafficCharacterization, characterize
from .traffic_matrix import (
    TrafficMatrixSeries,
    log_matrix,
    server_tm_to_tor_tm,
    tm_series_from_events,
    tm_series_from_transfers,
)

__all__ = [
    "FlowTable",
    "reconstruct_flows",
    "DEFAULT_INACTIVITY_TIMEOUT",
    "TrafficMatrixSeries",
    "tm_series_from_events",
    "tm_series_from_transfers",
    "server_tm_to_tor_tm",
    "log_matrix",
    "PairByteStats",
    "CorrespondentStats",
    "PatternSummary",
    "pair_byte_stats",
    "correspondent_stats",
    "pattern_summary",
    "scatter_gather_servers",
    "CongestionEpisode",
    "CongestionSummary",
    "VictimFlowComparison",
    "hot_matrix",
    "find_episodes",
    "congestion_summary",
    "simultaneous_hot_links",
    "victim_flow_comparison",
    "flows_overlapping_congestion",
    "DurationStats",
    "InterarrivalStats",
    "duration_stats",
    "interarrival_stats",
    "detect_periodic_modes",
    "ChurnStats",
    "churn_stats",
    "normalized_change_series",
    "DailyImpact",
    "ImpactStudy",
    "read_failure_impact",
    "AttributionReport",
    "attribute_traffic",
    "kind_of_flows",
    "IncastAudit",
    "incast_audit",
    "incast_report",
    "max_concurrent_inbound",
    "TrafficCharacterization",
    "characterize",
]
