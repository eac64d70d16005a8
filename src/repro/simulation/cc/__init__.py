"""Queue-aware congestion-control transports (the ``"queued"`` family).

This package adds real packet-level congestion dynamics to the
simulator: per-link FIFO queues with a fixed ECN marking threshold K and
tail-drop (:mod:`~repro.simulation.cc.queue`), per-flow congestion
windows driven by DCTCP / Reno / classic-ECN state machines
(:mod:`~repro.simulation.cc.cwnd`), and a discrete-stepped transport
(:mod:`~repro.simulation.cc.transport`) that plugs into the existing
:class:`~repro.simulation.simulator.Simulator` behind
``SimulationConfig.transport_impl`` values ``"dctcp"``, ``"reno"`` and
``"ecn_taildrop"`` (:data:`CC_VARIANTS`, which the config and the
simulator read to tell the queued family from the fluid one).
"""

from __future__ import annotations

from .cwnd import CC_VARIANTS
from .params import CongestionControlConfig
from .queue import LinkQueues
from .scenarios import (
    IncastRunResult,
    incast_config,
    incast_result,
    run_incast,
    run_incast_with_report,
)
from .transport import CCReport, QueuedTransport

__all__ = [
    "CC_VARIANTS",
    "CCReport",
    "CongestionControlConfig",
    "IncastRunResult",
    "LinkQueues",
    "QueuedTransport",
    "incast_config",
    "incast_result",
    "run_incast",
    "run_incast_with_report",
]
