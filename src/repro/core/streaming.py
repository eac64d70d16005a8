"""Streaming counterparts of the core analyses.

The paper's pipeline digested two months of socket logs that could never
fit in memory; this module gives the reproduction the same property.
Each accumulator consumes a chunked trace one piece at a time under a
small protocol:

* ``update(chunk)`` — fold in the next *time-contiguous* chunk;
* ``finalize()`` — produce the same result object as the in-memory
  analysis.

Exactness, not approximation
----------------------------
The accumulators are engineered so that streaming reproduces the
in-memory results *bit for bit*, which is what lets the test suite
assert exact array equality instead of tolerances:

* **Traffic matrix** — the in-memory path accumulates with a single
  ``np.add.at``, which applies additions in event order.  Per-chunk
  ``np.add.at`` calls into the same matrix apply them in the same
  order, so every cell sum is the same.
* **Flows** — per-flow byte totals come from ``np.add.reduceat`` over
  the flow's complete event-byte segment on both paths (the reduction
  depends only on the segment's contents), so chunked reconstruction
  cannot drift.  A flow's raw bytes are therefore held while it can
  still change: while its last event is within the inactivity timeout
  of the newest timestamp seen.  Every other flow is reduced at once,
  so memory follows the chunk plus the bytes of flows active within the
  last timeout, not the trace.  The send-side-preference rule — a
  global property of the log — is resolved at finalize from
  per-direction flows.
* **Congestion** — hot runs are tracked as absolute integer bin indices
  and stitched across slab boundaries; times and durations are produced
  by the same ``int * bin_width`` multiplications as
  :func:`~repro.core.congestion.find_episodes`.

:class:`FlowStatsSketch` aggregates integer histograms, exact under any
update order by construction.
"""

from __future__ import annotations

import numpy as np

from ..cluster.topology import ClusterTopology
from ..instrumentation.events import DIRECTION_SEND, SocketEventLog
from .congestion import (
    DEFAULT_THRESHOLD,
    CongestionSummary,
    hot_matrix,
    summarize_episodes,
)
from .congestion import CongestionEpisode
from .flows import DEFAULT_INACTIVITY_TIMEOUT, FlowTable
from .traffic_matrix import (
    TrafficMatrixSeries,
    _endpoint_index,
    _event_contributions,
    _resolve_event_log,
)

__all__ = [
    "StreamingTrafficMatrix",
    "StreamingFlows",
    "StreamingCongestion",
    "FlowStatsSketch",
]


# --------------------------------------------------------------------- TM


class StreamingTrafficMatrix:
    """Chunk-at-a-time accumulation of :func:`tm_series_from_events`.

    Feed time-contiguous chunks through :meth:`update`; ``finalize()``
    returns a :class:`~repro.core.traffic_matrix.TrafficMatrixSeries`
    exactly equal to the in-memory one.
    """

    def __init__(
        self, topology: ClusterTopology, window: float, duration: float
    ) -> None:
        if window <= 0 or duration <= 0:
            raise ValueError("window and duration must be positive")
        self.topology = topology
        self.window = window
        self.duration = duration
        self._index, self._endpoints = _endpoint_index(topology)
        self.num_windows = int(np.ceil(duration / window))
        n = self._endpoints.size
        self._matrices = np.zeros((self.num_windows, n, n))

    def update(self, chunk) -> "StreamingTrafficMatrix":
        """Fold in the next time-contiguous chunk of events."""
        log = _resolve_event_log(chunk)
        if len(log) == 0:
            return self
        window_ids, rows, cols, num_bytes = _event_contributions(
            log, self.topology, self._index, self.window, self.num_windows
        )
        np.add.at(self._matrices, (window_ids, rows, cols), num_bytes)
        return self

    def finalize(self) -> TrafficMatrixSeries:
        """The completed series; the accumulator must not be reused."""
        return TrafficMatrixSeries(self._matrices, self.window, self._endpoints)


# ------------------------------------------------------------------- flows


#: The five-tuple, in the order of the in-memory tuple sort.
_TUPLE = ("src", "src_port", "dst", "dst_port", "protocol")
#: A stream is a five-tuple's events in one direction.
_STREAM = (*_TUPLE, "direction")

#: One row per flow: its stream, first and last event times, event count
#: and the application context of its first event.
_FLOW_DTYPES = (
    ("src", np.int64), ("src_port", np.int64), ("dst", np.int64),
    ("dst_port", np.int64), ("protocol", np.int16), ("direction", np.int8),
    ("start", float), ("end", float), ("events", np.int64),
    ("job_id", np.int64), ("phase_index", np.int64),
)


def _take(table: dict, index) -> dict:
    return {name: column[index] for name, column in table.items()}


def _concat(*tables: dict) -> dict:
    return {
        name: np.concatenate([table[name] for table in tables])
        for name in tables[0]
    }


def _empty_flows() -> dict:
    return {name: np.empty(0, dtype=dtype) for name, dtype in _FLOW_DTYPES}


def _one_segment_each(offsets: np.ndarray, size: int) -> dict:
    """The segment table of flows stored back to back in part 0.

    A held flow's raw bytes are ``parts[part][start:stop]`` over its
    segments (the rows whose ``owner`` is the flow), in table order.
    """
    return {
        "owner": np.arange(offsets.size),
        "part": np.zeros(offsets.size, dtype=np.int64),
        "start": offsets,
        "stop": np.append(offsets, size)[1:],
    }


def _stream_order(table: dict) -> np.ndarray:
    """Stable sort by stream: each stream's rows keep their time order."""
    return np.lexsort([table[name] for name in reversed(_STREAM)])


def _stream_hash(table: dict, rows=slice(None)) -> np.ndarray:
    """A 64-bit hash of the stream of each row (of mask ``rows``)."""
    hashes = np.zeros(table["start"][rows].size, dtype=np.uint64)
    for name in _STREAM:
        hashes = hashes * np.uint64(1_000_003) + table[name][rows].astype(np.uint64)
    return hashes


def _fuse(pieces: dict, order: np.ndarray, timeout: float) -> tuple[dict, np.ndarray]:
    """Join the time-adjacent pieces of each stream into flows.

    A piece is an event or a partial flow; ``order`` sorts the pieces by
    stream (:func:`_stream_order`).  A silence longer than ``timeout``
    between two pieces of a stream starts a new flow, the in-memory rule.
    Returns the flows and the flow index of each sorted piece.
    """
    n = order.size
    if n == 0:
        return _empty_flows(), np.empty(0, dtype=np.int64)
    starts = pieces["start"][order]
    ends = pieces["end"][order]
    new = np.ones(n, dtype=bool)
    new[1:] = starts[1:] - ends[:-1] > timeout
    for name in _STREAM:
        column = pieces[name][order]
        new[1:] |= column[1:] != column[:-1]
    heads = np.flatnonzero(new)
    flows = _take(pieces, order[heads])
    flows["end"] = ends[np.append(heads[1:], n) - 1]
    flows["events"] = np.add.reduceat(pieces["events"][order], heads)
    return flows, np.cumsum(new) - 1


class StreamingFlows:
    """Chunk-at-a-time flow reconstruction (see :func:`reconstruct_flows`).

    State is columnar, one row per flow.  A flow is *held* with its raw
    event bytes while its last event is within the timeout of the newest
    timestamp seen, since a later event may extend it.  Every other flow
    is reduced to its byte total at once.  Held bytes stay in per-chunk
    ``parts`` arrays, located through a segment table, so a chunk does
    not copy the bytes held before it; they are copied together only
    once dead bytes and segments outweigh them.

    The send-side-preference rule — receive events count only for tuples
    with *no* send events anywhere in the log — is global, so both
    direction streams accumulate independently and finalize picks the
    winner per tuple.
    """

    def __init__(
        self, inactivity_timeout: float = DEFAULT_INACTIVITY_TIMEOUT
    ) -> None:
        if inactivity_timeout <= 0:
            raise ValueError("inactivity_timeout must be positive")
        self.inactivity_timeout = inactivity_timeout
        #: Newest timestamp folded in.
        self._newest = -np.inf
        #: Flows that may still change; each stream's rows in time order.
        self._held = _empty_flows()
        self._segments = _one_segment_each(np.empty(0, dtype=np.int64), 0)
        self._parts: list[np.ndarray] = []
        #: Completed flows: ``_FLOW_DTYPES`` tables plus ``num_bytes``.
        self._done: list[dict] = []

    def update(self, chunk) -> "StreamingFlows":
        """Fold in the next time-contiguous chunk of events."""
        log = _resolve_event_log(chunk)
        if len(log) == 0:
            return self
        self._fold(self._from_events(log))
        return self

    def _from_events(self, log: SocketEventLog) -> "StreamingFlows":
        """A settled accumulator over one chunk alone."""
        acc = StreamingFlows(self.inactivity_timeout)
        times = log.column("timestamp")
        acc._newest = float(times[-1])
        events = {
            name: log.column(name)
            for name in (*_STREAM, "job_id", "phase_index")
        }
        events["start"] = events["end"] = times
        events["events"] = np.ones(times.size, dtype=np.int64)
        order = _stream_order(events)
        acc._held, flow_of = _fuse(events, order, self.inactivity_timeout)
        heads = np.flatnonzero(np.diff(flow_of, prepend=-1))
        acc._parts = [log.column("num_bytes")[order]]
        acc._segments = _one_segment_each(heads, times.size)
        acc._settle(first=float(times[0]))
        return acc

    def _fold(self, chunk: "StreamingFlows") -> None:
        """Join the settled accumulator of the next chunk onto ours."""
        # Only our flows still open at our newest event, of streams that
        # ``chunk`` holds flows of, can join onto its flows.  A hash
        # collision only admits a flow that then fuses with nothing.
        held = self._held
        joinable = self._newest - held["end"] <= self.inactivity_timeout
        joinable[joinable] = np.isin(
            _stream_hash(held, joinable), _stream_hash(chunk._held)
        )
        stay = np.flatnonzero(~joinable)
        ours = np.flatnonzero(joinable)
        pieces = _concat(_take(held, ours), chunk._held)
        order = _stream_order(pieces)
        flows, flow_of = _fuse(pieces, order, self.inactivity_timeout)
        # New row of every piece and held row: staying rows, then flows.
        new_row = np.empty(order.size, dtype=np.int64)
        new_row[order] = flow_of + stay.size
        row_of_ours = np.empty(held["end"].size, dtype=np.int64)
        row_of_ours[stay] = np.arange(stay.size)
        row_of_ours[ours] = new_row[:ours.size]
        mine, theirs = self._segments, chunk._segments
        # Our segments first, so a joined flow's bytes stay in order.
        self._segments = _concat(
            dict(mine, owner=row_of_ours[mine["owner"]]),
            dict(theirs, owner=new_row[ours.size + theirs["owner"]],
                 part=theirs["part"] + len(self._parts)),
        )
        self._parts += chunk._parts
        self._done += chunk._done
        self._held = _concat(_take(held, stay), flows)
        self._newest = chunk._newest
        self._settle()

    def _settle(self, first: float | None = None) -> None:
        """Reduce every held flow that can no longer change.

        Chunks are time-sorted and contiguous, so a flow whose last event
        is more than the timeout before the newest timestamp never grows.
        A chunk not yet folded in passes its first timestamp as ``first``:
        its flows that start within the timeout of it may still join a
        held flow, so they stay raw as well.
        """
        held = self._held
        timeout = self.inactivity_timeout
        keep = self._newest - held["end"] <= timeout
        if first is not None:
            keep |= held["start"] - first <= timeout
        if not keep.all():
            done = _take(held, ~keep)
            done["num_bytes"] = self._byte_totals(~keep)
            self._done.append(done)
            self._held = _take(held, keep)
            segments = _take(self._segments, keep[self._segments["owner"]])
            segments["owner"] = (np.cumsum(keep) - 1)[segments["owner"]]
            self._segments = segments
        # Compact to one part, one segment per flow, once the bytes of
        # reduced flows plus the surplus segments (four words each)
        # outweigh the live bytes; the copy is paid for by that growth.
        segments, flows = self._segments["owner"].size, self._held["end"].size
        live = int((self._segments["stop"] - self._segments["start"]).sum())
        stored = sum(part.size for part in self._parts)
        if stored - live + 4 * (segments - flows) > live:
            flat, offsets = self._raw_bytes(np.ones(flows, dtype=bool))
            self._parts = [flat] if flat.size else []
            self._segments = _one_segment_each(offsets, flat.size)

    def _raw_bytes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw bytes of the held flows in mask ``rows``, flow after flow,
        and the offset of each flow's first byte."""
        segments = self._segments
        pick = np.flatnonzero(rows[segments["owner"]])
        pick = pick[np.argsort(segments["owner"][pick], kind="stable")]
        owner, part, start, stop = (
            segments[name][pick] for name in ("owner", "part", "start", "stop")
        )
        lengths = stop - start
        offsets = np.cumsum(lengths) - lengths
        flat = np.empty(int(lengths.sum()))
        for index in np.unique(part):
            in_part = part == index
            sizes = lengths[in_part]
            run = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            flat[np.repeat(offsets[in_part], sizes) + run] = self._parts[index][
                np.repeat(start[in_part], sizes) + run
            ]
        return flat, offsets[np.flatnonzero(np.diff(owner, prepend=-1))]

    def _byte_totals(self, rows: np.ndarray) -> np.ndarray:
        """Byte totals of the held flows in mask ``rows``.

        ``np.add.reduceat`` reduces each flow from its own bytes alone,
        the same reduction the in-memory path runs over the whole log, so
        the totals are equal bit for bit (a running sum would not be).
        """
        flat, offsets = self._raw_bytes(rows)
        if offsets.size == 0:
            return np.empty(0)
        return np.add.reduceat(flat, offsets)

    def finalize(self) -> FlowTable:
        """The completed flow table; repeatable, the state is kept."""
        held = dict(self._held)
        held["num_bytes"] = self._byte_totals(
            np.ones(held["end"].size, dtype=bool)
        )
        flows = _concat(*self._done, held)
        # Tuple-lexicographic order matches np.unique's row ordering in
        # the in-memory path; flows within a stream are in time order.
        order = np.lexsort([
            flows["start"], *(flows[name] for name in reversed(_STREAM))
        ])
        flows = _take(flows, order)
        new_tuple = np.zeros(order.size, dtype=bool)
        new_tuple[:1] = True
        for name in _TUPLE:
            column = flows[name]
            new_tuple[1:] |= column[1:] != column[:-1]
        sends = flows["direction"] == DIRECTION_SEND
        tuple_has_send = np.logical_or.reduceat(sends, np.flatnonzero(new_tuple))
        flows = _take(flows, sends | ~tuple_has_send[np.cumsum(new_tuple) - 1])
        return FlowTable(
            src=flows["src"],
            src_port=flows["src_port"],
            dst=flows["dst"],
            dst_port=flows["dst_port"],
            protocol=flows["protocol"],
            start_time=flows["start"],
            end_time=flows["end"],
            num_bytes=flows["num_bytes"],
            num_events=flows["events"],
            job_id=flows["job_id"],
            phase_index=flows["phase_index"],
        )


# -------------------------------------------------------------- congestion


class StreamingCongestion:
    """Chunk-at-a-time congestion episodes over utilisation bin columns.

    ``update`` takes a ``(num_links, bins)`` slab of the utilisation bins
    that follow the previous slab; runs of hot bins are tracked as
    absolute integer bin indices and stitched across slab boundaries, so
    ``finalize()`` equals :func:`~repro.core.congestion.congestion_summary`
    on the full matrix exactly.
    """

    def __init__(
        self,
        num_links: int,
        threshold: float = DEFAULT_THRESHOLD,
        bin_width: float = 1.0,
        link_ids: np.ndarray | None = None,
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must lie in (0, 1]")
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.num_links = num_links
        self.threshold = threshold
        self.bin_width = bin_width
        ids = link_ids if link_ids is not None else np.arange(num_links)
        self.link_ids = np.asarray(ids)
        #: Per link: half-open ``[start, end)`` runs in absolute bins.
        self._runs: list[list[list[int]]] = [[] for _ in range(num_links)]
        #: Absolute index of the first bin of the next slab.
        self._next_bin = 0

    def update(self, utilization: np.ndarray) -> "StreamingCongestion":
        """Fold in the next consecutive block of utilisation bins."""
        util = np.asarray(utilization, dtype=float)
        if util.ndim != 2 or util.shape[0] != self.num_links:
            raise ValueError(
                f"expected a ({self.num_links}, bins) matrix, got {util.shape}"
            )
        hot = hot_matrix(util, self.threshold)
        for row in range(self.num_links):
            series = hot[row]
            if not series.any():
                continue
            padded = np.concatenate(([False], series, [False]))
            changes = np.diff(padded.astype(np.int8))
            starts = np.flatnonzero(changes == 1) + self._next_bin
            ends = np.flatnonzero(changes == -1) + self._next_bin
            runs = self._runs[row]
            for s, e in zip(starts, ends):
                if runs and runs[-1][1] == s:
                    runs[-1][1] = int(e)  # hot across the slab boundary
                else:
                    runs.append([int(s), int(e)])
        self._next_bin += util.shape[1]
        return self

    def finalize(self) -> CongestionSummary:
        """The Fig 5/6 summary; equals the in-memory one exactly."""
        episodes = [
            CongestionEpisode(
                link_id=int(self.link_ids[row]),
                start=s * self.bin_width,
                duration=(e - s) * self.bin_width,
            )
            for row in range(self.num_links)
            for s, e in self._runs[row]
        ]
        return summarize_episodes(episodes, self.num_links)


# ----------------------------------------------------------------- sketch


class FlowStatsSketch:
    """Histograms of flow sizes, durations and event counts.

    Counts are integers over fixed log-spaced bin edges, so any update
    order yields identical histograms; ``total_bytes`` is a float running
    sum and therefore exact only up to addition order.
    """

    def __init__(
        self,
        byte_edges: np.ndarray | None = None,
        duration_edges: np.ndarray | None = None,
        event_edges: np.ndarray | None = None,
    ) -> None:
        #: Four bins per decade from 1 B to 1 TB.
        self.byte_edges = (
            np.asarray(byte_edges, dtype=float)
            if byte_edges is not None
            else np.logspace(0, 12, 49)
        )
        #: Four bins per decade from 1 ms to ~28 h.
        self.duration_edges = (
            np.asarray(duration_edges, dtype=float)
            if duration_edges is not None
            else np.logspace(-3, 5, 33)
        )
        self.event_edges = (
            np.asarray(event_edges, dtype=float)
            if event_edges is not None
            else np.logspace(0, 6, 25)
        )
        self.byte_counts = np.zeros(self.byte_edges.size + 1, dtype=np.int64)
        self.duration_counts = np.zeros(
            self.duration_edges.size + 1, dtype=np.int64
        )
        self.event_counts = np.zeros(self.event_edges.size + 1, dtype=np.int64)
        self.flows = 0
        self.total_bytes = 0.0
        self.max_bytes = 0.0
        self.max_duration = 0.0

    def _dimensions(self):
        return (
            ("bytes", self.byte_edges, self.byte_counts),
            ("durations", self.duration_edges, self.duration_counts),
            ("events", self.event_edges, self.event_counts),
        )

    def update(self, flows: FlowTable) -> "FlowStatsSketch":
        """Fold in a table of reconstructed flows."""
        if len(flows) == 0:
            return self
        self.flows += len(flows)
        self.total_bytes += float(flows.num_bytes.sum())
        self.max_bytes = max(self.max_bytes, float(flows.num_bytes.max()))
        durations = flows.durations
        self.max_duration = max(self.max_duration, float(durations.max()))
        for values, edges, counts in (
            (flows.num_bytes, self.byte_edges, self.byte_counts),
            (durations, self.duration_edges, self.duration_counts),
            (flows.num_events, self.event_edges, self.event_counts),
        ):
            bins = np.searchsorted(edges, values, side="right")
            counts += np.bincount(bins, minlength=counts.size)
        return self

    def approx_quantile(self, dimension: str, q: float) -> float:
        """Upper bin edge at quantile ``q`` for one dimension.

        Accurate to one log-spaced bin — the resolution the paper's
        distribution figures need.
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must lie in [0, 1]")
        for name, edges, counts in self._dimensions():
            if name == dimension:
                break
        else:
            raise KeyError(f"unknown dimension {dimension!r}")
        total = int(counts.sum())
        if total == 0:
            return float("nan")
        cumulative = np.cumsum(counts)
        bin_index = int(np.searchsorted(cumulative, q * total))
        return float(edges[min(bin_index, edges.size - 1)])

    def finalize(self) -> dict:
        """Histogram arrays plus headline scalars, JSON-friendly."""
        out: dict = {
            "flows": self.flows,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "max_duration": self.max_duration,
        }
        for name, edges, counts in self._dimensions():
            out[name] = {"edges": edges.tolist(), "counts": counts.tolist()}
        if self.flows:
            for name in ("bytes", "durations", "events"):
                out[f"median_{name}"] = self.approx_quantile(name, 0.5)
        return out
