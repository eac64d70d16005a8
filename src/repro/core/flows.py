"""Flow reconstruction from socket-level logs (paper §3 methodology).

"By flow, we mean the canonical five-tuple (source IP, port, destination
IP, port and protocol).  When explicit begins and ends of a flow are not
available, similar to much prior work, we use a long inactivity timeout
(default 60s) to determine when a flow ends (or a new one begins)."

The reconstruction here follows that definition exactly: socket events
are grouped by five-tuple, and a gap longer than the timeout splits the
event stream into separate flows.  Because both endpoints of an
intra-cluster transfer log the same bytes (send side and receive side),
the reconstruction prefers send-side events and falls back to receive-
side events only for tuples with no sender in the instrumented set
(traffic arriving from external hosts) — otherwise traffic would be
double-counted.

Everything is vectorised over the columnar event log; a day-equivalent
of events reconstructs in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..instrumentation.events import DIRECTION_SEND, SocketEventLog

__all__ = ["FlowTable", "reconstruct_flows", "DEFAULT_INACTIVITY_TIMEOUT"]

#: The paper's default inactivity timeout, seconds.
DEFAULT_INACTIVITY_TIMEOUT = 60.0

#: Flows reconstructed from a single event have zero extent; durations are
#: floored at one millisecond so that rates stay finite.
_MIN_DURATION = 1e-3


@dataclass(frozen=True)
class FlowTable:
    """Reconstructed flows, column-wise.

    All arrays share length ``len(self)``.  ``job_id``/``phase_index`` are
    the application context merged from the event tags (-1 when unknown),
    which is the server-side linkage the paper uses to attribute traffic.
    """

    src: np.ndarray
    src_port: np.ndarray
    dst: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray
    num_bytes: np.ndarray
    num_events: np.ndarray
    job_id: np.ndarray
    phase_index: np.ndarray

    def __len__(self) -> int:
        return int(self.src.size)

    @property
    def durations(self) -> np.ndarray:
        """Flow durations, floored at one millisecond."""
        return np.maximum(self.end_time - self.start_time, _MIN_DURATION)

    @property
    def rates(self) -> np.ndarray:
        """Mean flow rates in bytes/s."""
        return self.num_bytes / self.durations

    def select(self, mask: np.ndarray) -> "FlowTable":
        """A new table with only rows where ``mask`` is true."""
        return FlowTable(
            src=self.src[mask],
            src_port=self.src_port[mask],
            dst=self.dst[mask],
            dst_port=self.dst_port[mask],
            protocol=self.protocol[mask],
            start_time=self.start_time[mask],
            end_time=self.end_time[mask],
            num_bytes=self.num_bytes[mask],
            num_events=self.num_events[mask],
            job_id=self.job_id[mask],
            phase_index=self.phase_index[mask],
        )

    def total_bytes(self) -> float:
        """Total bytes over all flows."""
        return float(self.num_bytes.sum())

    def involving_server(self, server: int) -> "FlowTable":
        """Flows with ``server`` as either endpoint."""
        return self.select((self.src == server) | (self.dst == server))


def _tuple_ids(log: SocketEventLog) -> np.ndarray:
    """Dense ids for each event's five-tuple."""
    key = np.stack(
        [
            log.column("src"),
            log.column("src_port"),
            log.column("dst"),
            log.column("dst_port"),
            log.column("protocol"),
        ],
        axis=1,
    )
    _, ids = np.unique(key, axis=0, return_inverse=True)
    return ids


def reconstruct_flows(
    log,
    inactivity_timeout: float = DEFAULT_INACTIVITY_TIMEOUT,
) -> FlowTable:
    """Rebuild flows from a finalized socket event log.

    ``log`` is a finalized :class:`SocketEventLog`, a trace path, or a
    :class:`~repro.trace.reader.TraceReader` (trace sources are loaded in
    full; use :class:`~repro.core.streaming.StreamingFlows` for
    chunked reconstruction).

    Events of each five-tuple are ordered in time; a silence longer than
    ``inactivity_timeout`` ends the current flow and begins a new one.
    """
    if inactivity_timeout <= 0:
        raise ValueError("inactivity_timeout must be positive")
    if not isinstance(log, SocketEventLog):
        from ..trace.reader import as_event_log  # lazy: core must not need trace

        log = as_event_log(log)
    if len(log) == 0:
        empty_f = np.empty(0, dtype=float)
        empty_i = np.empty(0, dtype=np.int64)
        return FlowTable(
            src=empty_i, src_port=empty_i.copy(), dst=empty_i.copy(),
            dst_port=empty_i.copy(), protocol=np.empty(0, dtype=np.int16),
            start_time=empty_f, end_time=empty_f.copy(),
            num_bytes=empty_f.copy(), num_events=empty_i.copy(),
            job_id=empty_i.copy(), phase_index=empty_i.copy(),
        )

    tuple_ids = _tuple_ids(log)
    direction = log.column("direction")

    # Send-side preference: drop receive-side duplicates for tuples that
    # have send events in the log.
    sends_per_tuple = np.bincount(
        tuple_ids, weights=(direction == DIRECTION_SEND).astype(float)
    )
    tuple_has_send = sends_per_tuple > 0
    keep = (direction == DIRECTION_SEND) | ~tuple_has_send[tuple_ids]

    times = log.column("timestamp")[keep]
    tuples = tuple_ids[keep]
    num_bytes = log.column("num_bytes")[keep]
    src = log.column("src")[keep]
    src_port = log.column("src_port")[keep]
    dst = log.column("dst")[keep]
    dst_port = log.column("dst_port")[keep]
    protocol = log.column("protocol")[keep]
    job_id = log.column("job_id")[keep]
    phase_index = log.column("phase_index")[keep]

    order = np.lexsort((times, tuples))
    times = times[order]
    tuples = tuples[order]
    num_bytes = num_bytes[order]
    src, src_port = src[order], src_port[order]
    dst, dst_port = dst[order], dst_port[order]
    protocol = protocol[order]
    job_id, phase_index = job_id[order], phase_index[order]

    new_tuple = np.empty(times.size, dtype=bool)
    new_tuple[0] = True
    new_tuple[1:] = tuples[1:] != tuples[:-1]
    gap = np.empty(times.size, dtype=float)
    gap[0] = np.inf
    gap[1:] = times[1:] - times[:-1]
    new_flow = new_tuple | (gap > inactivity_timeout)
    starts = np.flatnonzero(new_flow)
    ends = np.append(starts[1:], times.size) - 1

    flow_bytes = np.add.reduceat(num_bytes, starts)
    flow_events = (ends - starts + 1).astype(np.int64)

    return FlowTable(
        src=src[starts],
        src_port=src_port[starts],
        dst=dst[starts],
        dst_port=dst_port[starts],
        protocol=protocol[starts],
        start_time=times[starts],
        end_time=times[ends],
        num_bytes=flow_bytes,
        num_events=flow_events,
        job_id=job_id[starts],
        phase_index=phase_index[starts],
    )
