"""Streaming analyses equal their in-memory counterparts."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.core import streaming
from repro.core.congestion import congestion_summary
from repro.core.flows import DEFAULT_INACTIVITY_TIMEOUT, reconstruct_flows
from repro.core.streaming import (
    FlowStatsSketch,
    StreamingCongestion,
    StreamingFlows,
    StreamingTrafficMatrix,
)
from repro.core.traffic_matrix import tm_series_from_events
from repro.instrumentation.events import (
    DIRECTION_RECV,
    DIRECTION_SEND,
    SocketEventLog,
)

FLOW_FIELDS = (
    "src", "src_port", "dst", "dst_port", "protocol",
    "start_time", "end_time", "num_bytes", "num_events",
    "job_id", "phase_index",
)


def small_topology():
    return ClusterTopology(ClusterSpec(racks=2, servers_per_rack=4))


def build_log(events):
    log = SocketEventLog()
    for event in events:
        defaults = dict(
            server=0, direction=DIRECTION_SEND, src=0, src_port=8400,
            dst=1, dst_port=50000, protocol=6, num_bytes=100.0,
            job_id=1, phase_index=0,
        )
        defaults.update(event)
        log.append(**defaults)
    log.finalize()
    return log


def synthetic_log(num_events=400, seed=3, num_servers=8):
    """A messy, realistic log: many tuples, both directions, skewed ties."""
    rng = np.random.default_rng(seed)
    log = SocketEventLog()
    times = np.sort(rng.uniform(0.0, 120.0, size=num_events))
    for t in times:
        src = int(rng.integers(0, num_servers))
        dst = int((src + 1 + rng.integers(0, num_servers - 1)) % num_servers)
        direction = DIRECTION_SEND if rng.random() < 0.7 else DIRECTION_RECV
        log.append(
            timestamp=float(t),
            server=src if direction == DIRECTION_SEND else dst,
            direction=direction,
            src=src, src_port=int(8400 + rng.integers(0, 3)),
            dst=dst, dst_port=int(50000 + rng.integers(0, 4)),
            protocol=6, num_bytes=float(rng.integers(1, 10_000)),
            job_id=int(rng.integers(-1, 4)), phase_index=0,
        )
    log.finalize()
    return log


def short_flows_log(duration, seed=5, num_flows=300):
    """Flows of 1-3 events within a second each, over ``duration`` s."""
    rng = np.random.default_rng(seed)
    log = SocketEventLog()
    for flow in range(num_flows):
        start = float(rng.uniform(0.0, duration - 1.0))
        src = int(rng.integers(0, 8))
        dst = (src + 1 + int(rng.integers(0, 7))) % 8
        port = 30000 + flow % 200  # some tuples carry several flows
        for k in range(int(rng.integers(1, 4))):
            for direction, server in ((DIRECTION_SEND, src), (DIRECTION_RECV, dst)):
                log.append(
                    timestamp=start + 0.3 * k, server=server,
                    direction=direction, src=src, src_port=port, dst=dst,
                    dst_port=8400, protocol=6,
                    num_bytes=float(rng.integers(1, 10_000)),
                    job_id=1, phase_index=0,
                )
    log.finalize()
    return log


def held_raw_bytes(acc):
    """End time and raw byte count of every flow ``acc`` holds."""
    segments = acc._segments
    raw = np.bincount(
        segments["owner"], weights=segments["stop"] - segments["start"],
        minlength=acc._held["end"].size,
    )
    return acc._held["end"], raw


def split_log(log, boundaries):
    """Cut a finalized log into chunks at the given row boundaries."""
    columns = log.to_columns()
    edges = [0, *boundaries, len(log)]
    chunks = []
    for start, stop in zip(edges[:-1], edges[1:]):
        chunks.append(
            SocketEventLog.from_columns(
                {name: col[start:stop] for name, col in columns.items()}
            )
        )
    return chunks


def assert_flow_tables_equal(a, b):
    for name in FLOW_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestStreamingTrafficMatrix:
    @pytest.mark.parametrize("boundaries", [[], [1], [200], [50, 51, 300]])
    def test_chunked_equals_inmemory(self, boundaries):
        log = synthetic_log()
        topology = small_topology()
        expected = tm_series_from_events(log, topology, 10.0, 120.0)
        acc = StreamingTrafficMatrix(topology, 10.0, 120.0)
        for chunk in split_log(log, boundaries):
            acc.update(chunk)
        got = acc.finalize()
        assert np.array_equal(got.matrices, expected.matrices)
        assert np.array_equal(got.endpoint_ids, expected.endpoint_ids)

    def test_empty_chunks_are_noops(self):
        topology = small_topology()
        acc = StreamingTrafficMatrix(topology, 10.0, 60.0)
        acc.update(build_log([]))
        series = acc.finalize()
        assert series.matrices.sum() == 0.0
        assert series.num_windows == 6


class TestStreamingFlows:
    @pytest.mark.parametrize("boundaries", [[], [1], [199], [100, 101, 250]])
    def test_chunked_equals_inmemory(self, boundaries):
        log = synthetic_log()
        expected = reconstruct_flows(log)
        acc = StreamingFlows()
        for chunk in split_log(log, boundaries):
            acc.update(chunk)
        assert_flow_tables_equal(acc.finalize(), expected)

    def test_send_preference_resolved_across_chunks(self):
        # Tuple seen only as RECV in chunk 1, then as SEND in chunk 2:
        # the recv events must be dropped globally, not per chunk.
        log = build_log([
            {"timestamp": 0.0, "direction": DIRECTION_RECV, "server": 1},
            {"timestamp": 1.0, "direction": DIRECTION_SEND, "server": 0},
        ])
        expected = reconstruct_flows(log)
        acc = StreamingFlows()
        for chunk in split_log(log, [1]):
            acc.update(chunk)
        assert_flow_tables_equal(acc.finalize(), expected)

    def test_empty_finalize(self):
        table = StreamingFlows().finalize()
        assert len(table) == 0
        assert table.protocol.dtype == np.int16

    def test_held_bytes_stay_bounded(self):
        # Short flows over 12 timeouts: after every chunk, only flows that
        # may still change (active within the timeout) keep raw bytes, and
        # dead bytes never outweigh live ones.
        timeout = 5.0
        log = short_flows_log(duration=12 * timeout)
        acc = StreamingFlows(inactivity_timeout=timeout)
        edges = list(range(0, len(log), 37))
        peak = 0
        for chunk in split_log(log, edges[1:]):
            acc.update(chunk)
            newest = float(chunk.column("timestamp")[-1])
            end, raw = held_raw_bytes(acc)
            assert not raw[newest - end > timeout].any()
            assert sum(part.size for part in acc._parts) <= 2 * raw.sum()
            peak = max(peak, int(raw.sum()))
        assert peak < len(log) / 4
        expected = reconstruct_flows(log, inactivity_timeout=timeout)
        assert_flow_tables_equal(acc.finalize(), expected)

    def test_stream_hash_collisions_are_harmless(self, monkeypatch):
        # Folding a chunk in matches streams by hash first; if every
        # stream collided, every open flow would be fused, to the same
        # result.
        monkeypatch.setattr(
            streaming, "_stream_hash",
            lambda table, rows=slice(None): np.zeros(
                table["start"][rows].size, dtype=np.uint64
            ),
        )
        log = synthetic_log(num_events=600, seed=9)
        for timeout in (60.0, 5.0):
            expected = reconstruct_flows(log, inactivity_timeout=timeout)
            acc = StreamingFlows(inactivity_timeout=timeout)
            for chunk in split_log(log, [100, 101, 250, 430]):
                acc.update(chunk)
            assert_flow_tables_equal(acc.finalize(), expected)


class TestInactivityTimeoutBoundary:
    """Flow splitting at the inactivity timeout (satellite: boundary tests)."""

    def _log_with_gap(self, gap):
        return build_log([
            {"timestamp": 0.0},
            {"timestamp": 0.0 + gap},
            {"timestamp": 0.0 + gap + 1.0},
        ])

    def test_gap_exactly_at_timeout_does_not_split(self):
        log = self._log_with_gap(DEFAULT_INACTIVITY_TIMEOUT)
        assert len(reconstruct_flows(log)) == 1

    def test_gap_just_under_timeout_does_not_split(self):
        log = self._log_with_gap(DEFAULT_INACTIVITY_TIMEOUT - 1e-6)
        assert len(reconstruct_flows(log)) == 1

    def test_gap_just_over_timeout_splits(self):
        log = self._log_with_gap(np.nextafter(DEFAULT_INACTIVITY_TIMEOUT, np.inf))
        assert len(reconstruct_flows(log)) == 2

    @pytest.mark.parametrize("gap", [
        DEFAULT_INACTIVITY_TIMEOUT,
        DEFAULT_INACTIVITY_TIMEOUT - 1e-6,
        np.nextafter(DEFAULT_INACTIVITY_TIMEOUT, np.inf),
        DEFAULT_INACTIVITY_TIMEOUT + 0.5,
    ])
    def test_streamed_matches_inmemory_at_boundary(self, gap):
        log = self._log_with_gap(gap)
        expected = reconstruct_flows(log)
        for boundaries in ([], [1], [2], [1, 2]):
            acc = StreamingFlows()
            for chunk in split_log(log, boundaries):
                acc.update(chunk)
            assert_flow_tables_equal(acc.finalize(), expected)

    @pytest.mark.parametrize("late, flows", [
        (100.0 + DEFAULT_INACTIVITY_TIMEOUT, 1),
        (np.nextafter(100.0 + DEFAULT_INACTIVITY_TIMEOUT, np.inf), 2),
    ])
    def test_close_rule_boundary_across_chunks(self, late, flows):
        # The flow on port 50000 last sent at t=100.  Another tuple's
        # event ends chunk one at `late`, exactly 100 + timeout in the
        # first case, so the flow must stay open for its next event at
        # `late` in chunk two.
        log = build_log([
            {"timestamp": 0.0, "dst_port": 50001},
            {"timestamp": 100.0},
            {"timestamp": late, "dst_port": 50002},
            {"timestamp": late},
        ])
        expected = reconstruct_flows(log)
        assert np.sum(expected.dst_port == 50000) == flows
        left, right = split_log(log, [3])
        acc = StreamingFlows().update(left).update(right)
        assert_flow_tables_equal(acc.finalize(), expected)

    def test_merge_joins_flows_across_boundary_gap(self):
        # Folding in a chunk whose first flow is within the timeout of the
        # held one must produce ONE flow, matching the in-memory run, and
        # a second finalize returns it again.
        log = self._log_with_gap(1.0)
        expected = reconstruct_flows(log)
        left, right = split_log(log, [2])
        acc = StreamingFlows().update(left).update(right)
        assert_flow_tables_equal(acc.finalize(), expected)
        assert len(acc.finalize()) == 1


class TestStreamingCongestion:
    def _utilization(self, seed=5, links=6, bins=40):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, size=(links, bins))

    @pytest.mark.parametrize("cuts", [[], [1], [20], [13, 14, 31]])
    def test_chunked_equals_inmemory(self, cuts):
        util = self._utilization()
        expected = congestion_summary(util, threshold=0.7)
        acc = StreamingCongestion(num_links=util.shape[0], threshold=0.7)
        edges = [0, *cuts, util.shape[1]]
        for start, stop in zip(edges[:-1], edges[1:]):
            acc.update(util[:, start:stop])
        got = acc.finalize()
        assert got.episodes == expected.episodes
        assert got.longest_episode == expected.longest_episode
        assert got.links_with_any_congestion == expected.links_with_any_congestion


class TestFlowStatsSketch:
    def test_quantiles_reasonable(self):
        log = synthetic_log(num_events=500, seed=22)
        flows = reconstruct_flows(log)
        sketch = FlowStatsSketch().update(flows)
        median = sketch.approx_quantile("bytes", 0.5)
        exact = float(np.median(flows.num_bytes))
        # Log-spaced bins: the approximation lands within one decade.
        assert median / 10 <= exact <= median * 10

    def test_empty_sketch(self):
        stats = FlowStatsSketch().finalize()
        assert stats["flows"] == 0
