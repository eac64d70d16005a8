"""Traffic matrices at multiple time-scales and granularities (paper §3).

"A matrix representing how much traffic is exchanged from the server
denoted by the row to the server denoted by the column will be referred
to as a traffic matrix (TM).  We compute TMs at multiple time-scales,
1s, 10s and 100s and between both servers and top-of-rack (ToR)
switches.  The latter ToR-to-ToR TM has zero entries on the diagonal,
i.e. unlike the server-to-server TM only traffic that flows across racks
is included."

Two byte sources are supported:

* **socket events** (what the paper had): each event's bytes land in the
  window containing its timestamp;
* **ground-truth transfers** (simulator-only): each transfer's bytes are
  spread uniformly over its lifetime, which is exact for the fluid model
  up to rate variation and serves as the validation reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.topology import ClusterTopology
from ..instrumentation.events import DIRECTION_SEND, SocketEventLog
from ..simulation.transport import Transfer
from ..util.timeseries import split_interval_over_bins

__all__ = [
    "TrafficMatrixSeries",
    "tm_series_from_events",
    "tm_series_from_transfers",
    "server_tm_to_tor_tm",
    "log_matrix",
]


@dataclass(frozen=True)
class TrafficMatrixSeries:
    """A sequence of same-shape traffic matrices over fixed windows.

    ``matrices[w][i, j]`` holds bytes sent from endpoint ``i`` to endpoint
    ``j`` during window ``w``.  ``window`` is the time-scale in seconds.
    Endpoint indexing matches topology node ids compacted over
    :meth:`ClusterTopology.endpoints` (in-cluster servers first, then
    external hosts).
    """

    matrices: np.ndarray  # (num_windows, n, n)
    window: float
    endpoint_ids: np.ndarray

    @property
    def num_windows(self) -> int:
        """Number of time windows."""
        return int(self.matrices.shape[0])

    @property
    def num_endpoints(self) -> int:
        """Number of endpoints per axis."""
        return int(self.matrices.shape[1])

    def window_start_times(self) -> np.ndarray:
        """Start time of each window."""
        return np.arange(self.num_windows) * self.window

    def total(self) -> np.ndarray:
        """The full-span TM: sum over all windows."""
        return self.matrices.sum(axis=0)

    def totals_per_window(self) -> np.ndarray:
        """Aggregate traffic per window (the Fig 10 top series)."""
        return self.matrices.sum(axis=(1, 2))

    def aggregate(self, factor: int) -> "TrafficMatrixSeries":
        """Coarsen the time-scale by an integer factor (1s → 10s → 100s)."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1:
            return self
        usable = (self.num_windows // factor) * factor
        if usable == 0:
            raise ValueError("series too short to aggregate by that factor")
        coarse = (
            self.matrices[:usable]
            .reshape(usable // factor, factor, self.num_endpoints, self.num_endpoints)
            .sum(axis=1)
        )
        return TrafficMatrixSeries(
            matrices=coarse, window=self.window * factor,
            endpoint_ids=self.endpoint_ids,
        )


def _endpoint_index(topology: ClusterTopology) -> tuple[np.ndarray, np.ndarray]:
    """(dense index per node id, endpoint node ids)."""
    endpoints = np.asarray(topology.endpoints(), dtype=np.int64)
    index = np.full(topology.num_nodes, -1, dtype=np.int64)
    index[endpoints] = np.arange(endpoints.size)
    return index, endpoints


def _event_contributions(
    log: SocketEventLog,
    topology: ClusterTopology,
    index: np.ndarray,
    window: float,
    num_windows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-event TM contributions ``(window_ids, rows, cols, bytes)``.

    Event order is preserved, so a single ``np.add.at`` over these arrays
    reproduces the in-memory accumulation exactly; the streaming TM
    accumulator reuses this per chunk.  The keep rule is a per-event
    property (send side, or receive side of an external sender), so
    chunk-local evaluation matches the global one.
    """
    direction = log.column("direction")
    src = log.column("src")
    # Prefer send side; external sources are only visible at receivers.
    senders, sender_of = np.unique(src, return_inverse=True)
    external = np.array(
        [topology.is_external(int(s)) for s in senders], dtype=bool
    )
    keep = (direction == DIRECTION_SEND) | external[sender_of]

    times = log.column("timestamp")[keep]
    rows = index[src[keep]]
    cols = index[log.column("dst")[keep]]
    window_ids = np.clip((times / window).astype(int), 0, num_windows - 1)
    return window_ids, rows, cols, log.column("num_bytes")[keep]


def tm_series_from_events(
    log,
    topology: ClusterTopology,
    window: float,
    duration: float,
) -> TrafficMatrixSeries:
    """Server-level TM series from socket events.

    ``log`` is a finalized :class:`SocketEventLog`, a trace path, or a
    :class:`~repro.trace.reader.TraceReader` (trace sources are loaded in
    full; use :class:`~repro.core.streaming.StreamingTrafficMatrix` for
    constant-memory accumulation).

    Send-side events are used where available; tuples seen only on the
    receive side (external senders) contribute through their receive
    events.  Event timestamps carry per-server clock skew, so a window
    boundary may misattribute a skew's worth of bytes — the same error a
    real campaign accepts (§3).
    """
    if window <= 0 or duration <= 0:
        raise ValueError("window and duration must be positive")
    log = _resolve_event_log(log)
    index, endpoints = _endpoint_index(topology)
    num_windows = int(np.ceil(duration / window))
    n = endpoints.size
    matrices = np.zeros((num_windows, n, n))
    if len(log) == 0:
        return TrafficMatrixSeries(matrices, window, endpoints)
    window_ids, rows, cols, num_bytes = _event_contributions(
        log, topology, index, window, num_windows
    )
    np.add.at(matrices, (window_ids, rows, cols), num_bytes)
    return TrafficMatrixSeries(matrices, window, endpoints)


def _resolve_event_log(log) -> SocketEventLog:
    """Accept a finalized log, a trace path, or a trace reader."""
    if isinstance(log, SocketEventLog):
        return log
    from ..trace.reader import as_event_log  # lazy: core must not need trace

    return as_event_log(log)


def tm_series_from_transfers(
    transfers: list[Transfer],
    topology: ClusterTopology,
    window: float,
    duration: float,
) -> TrafficMatrixSeries:
    """Ground-truth TM series: transfer bytes spread over their lifetime."""
    if window <= 0 or duration <= 0:
        raise ValueError("window and duration must be positive")
    index, endpoints = _endpoint_index(topology)
    num_windows = int(np.ceil(duration / window))
    n = endpoints.size
    matrices = np.zeros((num_windows, n, n))
    for transfer in transfers:
        row = index[transfer.src]
        col = index[transfer.dst]
        if row < 0 or col < 0:
            continue
        start = transfer.start_time
        end = min(transfer.end_time, duration)
        if end <= start:
            window_id = min(int(start / window), num_windows - 1)
            matrices[window_id, row, col] += transfer.size
            continue
        rate = transfer.size / (transfer.end_time - transfer.start_time)
        for window_id, overlap in split_interval_over_bins(start, end, window):
            if window_id < num_windows:
                matrices[window_id, row, col] += rate * overlap
    return TrafficMatrixSeries(matrices, window, endpoints)


def server_tm_to_tor_tm(
    tm: np.ndarray, topology: ClusterTopology, endpoint_ids: np.ndarray
) -> np.ndarray:
    """Collapse a server-level TM to the ToR-to-ToR TM (zero diagonal).

    External endpoints are dropped: ToR switches only see cluster racks,
    and the paper's ToR TM covers inter-rack traffic only.
    """
    n_racks = topology.num_racks
    tor_tm = np.zeros((n_racks, n_racks))
    racks = np.array(
        [
            topology.rack_of(int(node)) if int(node) < topology.num_servers else -1
            for node in endpoint_ids
        ]
    )
    valid = racks >= 0
    sub = tm[np.ix_(valid, valid)]
    sub_racks = racks[valid]
    np.add.at(tor_tm, (sub_racks[:, None], sub_racks[None, :]), sub)
    np.fill_diagonal(tor_tm, 0.0)
    return tor_tm


def log_matrix(tm: np.ndarray) -> np.ndarray:
    """``log_e(bytes)`` with zero entries mapped to NaN (Fig 2 rendering)."""
    with np.errstate(divide="ignore"):
        logged = np.log(tm)
    return np.where(tm > 0, logged, np.nan)
