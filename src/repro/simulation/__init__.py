"""Simulation substrate: event engine, transports, link loads.

Two transport families share the engine: the fluid max-min allocators
(:class:`FluidTransport`, ``transport_impl`` ``"vectorized"`` or
``"incremental"``) and the queue-aware congestion-control variants in
:mod:`repro.simulation.cc` (``"dctcp"``, ``"reno"``,
``"ecn_taildrop"``).  ``SimulationConfig`` accepts exactly these five
names.

``Simulator``/``SimulationResult``/``simulate`` are exported lazily: the
simulator imports the instrumentation layer, which imports the transport
primitives from this package, so loading it eagerly here would create an
import cycle whenever instrumentation is imported first.
``QueuedTransport``/``CCReport`` are lazy for the same reason the
simulator only imports them on demand: the cc package is needed only by
queued campaigns.
"""

from .engine import EventEngine
from .linkloads import LinkLoadTracker
from .transport import FluidTransport, Transfer, TransferMeta

__all__ = [
    "EventEngine",
    "LinkLoadTracker",
    "FluidTransport",
    "Transfer",
    "TransferMeta",
    "Simulator",
    "SimulationResult",
    "simulate",
    "QueuedTransport",
    "CCReport",
]

_LAZY = {"Simulator", "SimulationResult", "simulate"}
_LAZY_CC = {"QueuedTransport", "CCReport"}


def __getattr__(name: str):
    if name in _LAZY:
        from . import simulator

        return getattr(simulator, name)
    if name in _LAZY_CC:
        from .cc import transport as cc_transport

        return getattr(cc_transport, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
