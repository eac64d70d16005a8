"""Top-level experiment configuration.

A :class:`SimulationConfig` fully determines a simulated measurement
campaign: the cluster to build, the workload to run over it, the
instrumentation parameters, the duration and the seed.  Two identical
configs produce bit-identical logs, which is what lets the experiment
layer memoise datasets across benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cluster.routing import DEFAULT_FLOWLET_GAP, ROUTING_IMPLS
from .cluster.topology import ClusterSpec
from .instrumentation.collector import CollectorConfig
from .simulation.cc.cwnd import CC_VARIANTS
from .simulation.cc.params import CongestionControlConfig
from .simulation.transport import TRANSPORT_IMPLS
from .workload.generator import WorkloadConfig

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one simulated run."""

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    duration: float = 120.0
    seed: int = 0
    #: Bandwidth-sharing model: "maxmin" (default) or "bottleneck".
    fairness: str = "maxmin"
    #: Transport implementation.  The fluid family: "vectorized"
    #: (default, the exact max-min allocator, bit-identical to the
    #: round-based reference loop at every scale) and "incremental"
    #: (re-solves only the affected bottleneck subgraph per
    #: arrival/departure; equivalent within a documented tolerance,
    #: ``repro.simulation.waterfill.INCREMENTAL_RTOL``, checked by the
    #: ``transport.incremental_equivalence`` validator).  The queued
    #: family ("dctcp", "reno", "ecn_taildrop") swaps in the
    #: discrete-stepped congestion-control transport from
    #: :mod:`repro.simulation.cc`, parameterised by :attr:`cc`.
    transport_impl: str = "vectorized"
    #: Knobs of the queued transports (tick, buffer depth, marking
    #: threshold K, RTO ...); ignored by the fluid family.
    cc: CongestionControlConfig = field(default_factory=CongestionControlConfig)
    #: Path-selection policy over the topology's equal-cost sets:
    #: "single" (default: the canonical path — on a tree, the only one),
    #: "ecmp" (deterministic per-flow hash) or "flowlet" (idle-gap
    #: re-hashing, see :class:`~repro.cluster.routing.FlowletRouter`).
    #: On ``topology_kind="tree"`` all three are bit-identical because
    #: every equal-cost set has size one.
    routing_impl: str = "single"
    #: Idle-gap threshold (seconds) after which flowlet routing re-hashes
    #: a connection's path; ignored unless ``routing_impl="flowlet"``.
    flowlet_idle_gap: float = DEFAULT_FLOWLET_GAP
    #: A link is a hot-spot when its one-second average utilisation is at
    #: least this (paper §4.2 uses C = 70%).
    congestion_threshold: float = 0.7
    #: Minimum spacing between fair-share recomputations.  Flow set
    #: changes inside one window share a single allocation pass; deferred
    #: flows idle at ~zero rate until it runs, so links are never
    #: oversubscribed.  0 recomputes on every event (exact fluid model).
    rate_update_interval: float = 0.01
    #: Run the cheap ``inline``-tagged invariant checkers every N engine
    #: batches during simulation (see :mod:`repro.validate`).  0 (the
    #: default) disables inline validation.  A violation aborts the run
    #: with a :class:`~repro.validate.violations.ValidationError`.
    validate_every_n_batches: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.fairness not in ("maxmin", "bottleneck"):
            raise ValueError(f"unknown fairness mode {self.fairness!r}")
        valid_impls = TRANSPORT_IMPLS + CC_VARIANTS
        if self.transport_impl not in valid_impls:
            raise ValueError(
                f"unknown transport impl {self.transport_impl!r}; "
                f"expected one of {valid_impls}"
            )
        if self.routing_impl not in ROUTING_IMPLS:
            raise ValueError(
                f"unknown routing impl {self.routing_impl!r}; "
                f"expected one of {ROUTING_IMPLS}"
            )
        if self.flowlet_idle_gap <= 0:
            raise ValueError("flowlet_idle_gap must be positive")
        if not 0.0 < self.congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must lie in (0, 1]")
        if self.rate_update_interval < 0:
            raise ValueError("rate_update_interval must be non-negative")
        if self.validate_every_n_batches < 0:
            raise ValueError("validate_every_n_batches must be non-negative")

    def with_seed(self, seed: int) -> "SimulationConfig":
        """The same campaign with a different random seed."""
        return replace(self, seed=seed)

    def with_duration(self, duration: float) -> "SimulationConfig":
        """The same campaign with a different duration."""
        return replace(self, duration=duration)
