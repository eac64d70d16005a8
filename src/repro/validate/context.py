"""The validation context: one façade over every representation we check.

The pipeline derives the same campaign from four code paths — in-memory
(:class:`~repro.experiments.common.ExperimentDataset`), streaming, trace
-backed and campaign-cached — and the invariant checkers must run over
any of them.  :class:`ValidationContext` normalises those sources behind
lazy, cached accessors (event log, flow table, TM series, link loads,
topology) and a ``provides()`` capability query the registry uses to
decide which checkers apply.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

__all__ = ["ValidationContext"]

_UNSET = object()


class ValidationContext:
    """Lazily-resolved view of one campaign's artefacts.

    Build one with :meth:`from_dataset`, :meth:`from_result`,
    :meth:`from_trace` or :meth:`from_simulator` — or :meth:`coerce`,
    which dispatches on the argument type.  Accessors cache: a checker
    asking for ``ctx.flows`` twice pays for reconstruction once.
    """

    def __init__(
        self,
        *,
        config=None,
        topology=None,
        log=None,
        reader=None,
        link_loads=None,
        observed_links=None,
        duration: float | None = None,
        flows=None,
        tm=None,
        simulator=None,
        window: float = 10.0,
        inactivity_timeout: float | None = None,
        threshold: float | None = None,
        clock_skew_max: float | None = None,
        cc=None,
    ) -> None:
        self.config = config
        self.reader = reader
        self.simulator = simulator
        self.window = window
        self._topology = topology
        self._log = log
        self._link_loads = link_loads
        self._observed_links = observed_links
        self._duration = duration
        self._flows = flows
        self._tm = tm
        self._inactivity_timeout = inactivity_timeout
        self._threshold = threshold
        self._clock_skew_max = clock_skew_max
        #: Congestion-control observables: a CCReport, a live LinkQueues
        #: (both expose the queue byte ledgers), or None for fluid runs.
        self._cc = cc
        self._congestion = _UNSET

    # ------------------------------------------------------------ builders

    @classmethod
    def coerce(cls, source: Any) -> "ValidationContext":
        """Build a context from whatever the caller has in hand."""
        from ..experiments.common import ExperimentDataset
        from ..simulation.simulator import SimulationResult, Simulator
        from ..trace.reader import TraceReader

        if isinstance(source, cls):
            return source
        if isinstance(source, ExperimentDataset):
            return cls.from_dataset(source)
        if isinstance(source, SimulationResult):
            return cls.from_result(source)
        if isinstance(source, Simulator):
            return cls.from_simulator(source)
        if isinstance(source, TraceReader):
            return cls.from_trace(source)
        if isinstance(source, (str, os.PathLike)):
            return cls.from_trace(TraceReader(source))
        raise TypeError(
            "cannot build a ValidationContext from "
            f"{type(source).__name__!r}; expected a dataset, simulation "
            "result, simulator, trace reader or trace path"
        )

    @classmethod
    def from_dataset(cls, dataset) -> "ValidationContext":
        """Context over a built :class:`ExperimentDataset`.

        A trace-backed dataset (built by ``dataset_from_trace``) carries
        an empty socket log; its trace path is re-opened so log-level
        checkers still apply.
        """
        from ..trace.reader import TraceReader

        result = dataset.result
        reader = None
        log = result.socket_log
        trace_path = dataset.extras.get("trace_path")
        if len(log) == 0 and trace_path:
            reader = TraceReader(trace_path)
            log = None
        return cls(
            config=dataset.config,
            topology=result.topology,
            log=log,
            reader=reader,
            link_loads=result.link_loads,
            observed_links=np.asarray(dataset.observed_links),
            duration=result.duration,
            flows=dataset.flows,
            tm=dataset.tm10,
            window=float(dataset.tm10.window),
            threshold=dataset.config.congestion_threshold,
            clock_skew_max=dataset.config.collector.clock_skew_max,
            cc=getattr(result, "cc", None),
        )

    @classmethod
    def from_result(cls, result) -> "ValidationContext":
        """Context over a raw :class:`SimulationResult`."""
        observed = np.array(
            [link.link_id for link in result.topology.inter_switch_links()],
            dtype=np.int64,
        )
        return cls(
            config=result.config,
            topology=result.topology,
            log=result.socket_log if len(result.socket_log) else None,
            link_loads=result.link_loads,
            observed_links=observed,
            duration=result.duration,
            threshold=result.config.congestion_threshold,
            clock_skew_max=result.config.collector.clock_skew_max,
            cc=getattr(result, "cc", None),
        )

    @classmethod
    def from_trace(cls, reader) -> "ValidationContext":
        """Context over a recorded ``.reprotrace`` directory."""
        meta = reader.meta
        duration = meta.get("duration")
        skew = meta.get("clock_skew_max")
        threshold = meta.get("congestion_threshold")
        return cls(
            reader=reader,
            duration=float(duration) if duration is not None else None,
            clock_skew_max=float(skew) if skew is not None else None,
            threshold=float(threshold) if threshold is not None else None,
        )

    @classmethod
    def from_simulator(cls, simulator) -> "ValidationContext":
        """Context over a *live* simulator (the inline validation hook)."""
        transport = simulator.transport
        queues = (
            transport.queues
            if getattr(transport, "family", "fluid") == "queued"
            else None
        )
        return cls(
            config=simulator.config,
            topology=simulator.topology,
            link_loads=simulator.link_loads,
            duration=simulator.config.duration,
            simulator=simulator,
            threshold=simulator.config.congestion_threshold,
            clock_skew_max=simulator.config.collector.clock_skew_max,
            cc=queues,
        )

    # -------------------------------------------------------- capabilities

    def provides(self, requirement: str) -> bool:
        """Whether this context can satisfy a checker requirement."""
        if requirement == "log":
            return self._log is not None or self.reader is not None
        if requirement == "trace":
            return self.reader is not None
        if requirement == "linkloads":
            return self._link_loads is not None or (
                self.reader is not None
                and self.reader.manifest.get("linkloads") is not None
            )
        if requirement == "topology":
            return (
                self._topology is not None
                or (
                    self.reader is not None
                    and self.reader.meta.get("cluster_spec") is not None
                )
            )
        if requirement == "duration":
            return self.duration is not None
        if requirement == "simulator":
            return self.simulator is not None
        if requirement == "cc":
            return self._cc is not None
        raise ValueError(f"unknown checker requirement {requirement!r}")

    # ----------------------------------------------------------- accessors

    @property
    def topology(self):
        """The cluster topology (rebuilt from trace meta when needed)."""
        if self._topology is None:
            from ..cluster.topology import ClusterTopology, spec_from_mapping

            spec = self.reader.meta.get("cluster_spec") if self.reader else None
            if spec is None:
                raise ValueError("context has no topology and no cluster_spec")
            # Version-tolerant: seed-era specs rebuild the tree from
            # defaults, unknown future keys are dropped.
            self._topology = ClusterTopology(spec_from_mapping(spec))
        return self._topology

    @property
    def log(self):
        """The finalized event log (trace contexts load it in full)."""
        if self._log is None:
            if self.reader is None:
                raise ValueError("context has no event log")
            self._log = self.reader.read_all()
        return self._log

    @property
    def link_loads(self):
        """Link byte counters (tracker or trace sidecar)."""
        if self._link_loads is None:
            if self.reader is None:
                raise ValueError("context has no link loads")
            self._link_loads = self.reader.linkloads()
            if self._link_loads is None:
                raise ValueError("trace has no recorded link loads")
        return self._link_loads

    @property
    def observed_links(self) -> np.ndarray:
        """Inter-switch link ids (the congestion/tomography links)."""
        if self._observed_links is None:
            loads = self.link_loads
            observed = getattr(loads, "observed_links", None)
            if observed is None:
                observed = np.array(
                    [
                        link.link_id
                        for link in self.topology.inter_switch_links()
                    ],
                    dtype=np.int64,
                )
            self._observed_links = np.asarray(observed)
        return self._observed_links

    @property
    def duration(self) -> float | None:
        """Run duration in seconds (event span fallback for old traces)."""
        if self._duration is None and self.reader is not None:
            self._duration = max(self.reader.time_span()[1], 1.0)
        return self._duration

    @property
    def flows(self):
        """The reconstructed flow table."""
        if self._flows is None:
            from ..core.flows import reconstruct_flows

            self._flows = reconstruct_flows(
                self.log, inactivity_timeout=self.inactivity_timeout
            )
        return self._flows

    @property
    def tm(self):
        """The server-level TM series at ``self.window`` seconds."""
        if self._tm is None:
            from ..core.traffic_matrix import tm_series_from_events

            self._tm = tm_series_from_events(
                self.log, self.topology, self.window, self.duration
            )
        return self._tm

    @property
    def congestion(self):
        """The congestion summary over the observed links."""
        if self._congestion is _UNSET:
            from ..core.congestion import congestion_summary

            loads = self.link_loads
            observed = self.observed_links
            utilization = loads.utilization_matrix()[observed]
            self._congestion = congestion_summary(
                utilization,
                threshold=self.threshold,
                bin_width=loads.bin_width,
                link_ids=observed,
            )
        return self._congestion

    @property
    def inactivity_timeout(self) -> float:
        """Flow inactivity timeout (the paper's 60 s default)."""
        if self._inactivity_timeout is None:
            from ..core.flows import DEFAULT_INACTIVITY_TIMEOUT

            self._inactivity_timeout = DEFAULT_INACTIVITY_TIMEOUT
        return self._inactivity_timeout

    @property
    def threshold(self) -> float:
        """Congestion threshold (the paper's C = 70% default)."""
        if self._threshold is None:
            from ..core.congestion import DEFAULT_THRESHOLD

            self._threshold = DEFAULT_THRESHOLD
        return self._threshold

    @property
    def clock_skew_max(self) -> float:
        """Maximum per-server clock offset, seconds (0 when unknown)."""
        return self._clock_skew_max if self._clock_skew_max is not None else 0.0

    @property
    def cc(self):
        """Congestion-control observables, or ``None`` for fluid runs.

        Either an archived :class:`~repro.simulation.cc.transport.CCReport`
        or a live :class:`~repro.simulation.cc.queue.LinkQueues` — both
        expose the ``enqueued_bytes`` / ``dequeued_bytes`` /
        ``dropped_bytes`` / ``resident_bytes`` ledgers checkers need.
        """
        return self._cc

    @property
    def transport_family(self) -> str:
        """Which transport family produced this campaign.

        Resolved from the config when present, from trace metadata for
        trace-backed contexts.  A congestion-control variant name reads
        as ``"queued"``; every other name reads as ``"fluid"``, so
        artefacts predating the queued transports (no impl recorded) and
        traces recorded under the retired fluid names ``"reference"`` and
        ``"csr"`` stay readable.
        """
        impl = None
        if self.config is not None:
            impl = self.config.transport_impl
        elif self.reader is not None:
            impl = self.reader.meta.get("transport_impl")
        from ..simulation.cc.cwnd import CC_VARIANTS

        return "queued" if impl in CC_VARIANTS else "fluid"
