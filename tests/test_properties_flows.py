"""Property tests for flow reconstruction and streaming equivalence.

Hypothesis generates structurally valid event logs (``strategies.py``);
the properties assert the contracts the streaming layer is built on:
splitting a log anywhere and streaming the pieces in order equals the
one-shot analysis, and the inactivity timeout splits flows exactly at
gaps strictly longer than the timeout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.core.flows import reconstruct_flows
from repro.core.streaming import StreamingFlows, StreamingTrafficMatrix
from repro.core.traffic_matrix import tm_series_from_events
from repro.instrumentation.events import DIRECTION_SEND, SocketEventLog
from repro.trace.analyze import _flow_tables_equal

from strategies import event_logs

_TOPOLOGY = ClusterTopology(
    ClusterSpec(racks=3, servers_per_rack=4, racks_per_vlan=2,
                external_hosts=1)
)


def _split_rows(log: SocketEventLog, at: int) -> tuple[SocketEventLog, SocketEventLog]:
    """Two time-contiguous halves of a finalized log."""
    columns = log.to_columns()
    head = {name: column[:at] for name, column in columns.items()}
    tail = {name: column[at:] for name, column in columns.items()}
    return SocketEventLog.from_columns(head), SocketEventLog.from_columns(tail)


@given(
    log=event_logs(topology=_TOPOLOGY),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_split_merge_flows_equals_one_shot(log, fraction):
    at = int(round(fraction * len(log)))
    head, tail = _split_rows(log, at)
    streamed = StreamingFlows().update(head).update(tail).finalize()
    assert _flow_tables_equal(streamed, reconstruct_flows(log))


@given(
    log=event_logs(topology=_TOPOLOGY),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_split_merge_tm_equals_one_shot(log, fraction):
    duration = 100.0
    at = int(round(fraction * len(log)))
    head, tail = _split_rows(log, at)
    streamed = (
        StreamingTrafficMatrix(_TOPOLOGY, 10.0, duration)
        .update(head).update(tail).finalize()
    )
    one_shot = tm_series_from_events(log, _TOPOLOGY, 10.0, duration)
    assert np.array_equal(streamed.matrices, one_shot.matrices)
    assert np.array_equal(streamed.endpoint_ids, one_shot.endpoint_ids)


@given(
    log=event_logs(topology=_TOPOLOGY, max_transfers=8),
    pieces=st.integers(min_value=2, max_value=5),
    timeout=st.sampled_from([60.0, 10.0, 1.0]),
)
def test_many_way_split_equals_one_shot(log, pieces, timeout):
    columns = log.to_columns()
    n = len(log)
    bounds = [round(k * n / pieces) for k in range(pieces + 1)]
    chunks = [
        SocketEventLog.from_columns(
            {name: column[bounds[k]:bounds[k + 1]]
             for name, column in columns.items()}
        )
        for k in range(pieces)
    ]
    expected = reconstruct_flows(log, inactivity_timeout=timeout)
    acc = StreamingFlows(inactivity_timeout=timeout)
    for chunk in chunks:
        acc.update(chunk)
    assert _flow_tables_equal(acc.finalize(), expected)


def _two_burst_log(gap: float, t0: float = 5.0) -> SocketEventLog:
    """Two send events on one five-tuple separated by ``gap`` seconds."""
    log = SocketEventLog()
    for timestamp in (t0, t0 + gap):
        log.append(
            timestamp=timestamp, server=0, direction=DIRECTION_SEND,
            src=0, src_port=4000, dst=1, dst_port=80, protocol=0,
            num_bytes=1000.0, job_id=0, phase_index=0,
        )
    log.finalize()
    return log


@given(
    gap=st.floats(min_value=0.01, max_value=500.0),
    timeout=st.floats(min_value=0.5, max_value=120.0),
)
def test_inactivity_timeout_boundary(gap, timeout):
    flows = reconstruct_flows(_two_burst_log(gap), inactivity_timeout=timeout)
    # The reconstruction compares the *stored* timestamps, whose
    # difference can differ from `gap` by one ulp — judge as it does.
    effective_gap = (5.0 + gap) - 5.0
    if effective_gap > timeout:
        assert len(flows) == 2
        assert np.all(flows.num_bytes == 1000.0)
    else:
        assert len(flows) == 1
        assert flows.num_bytes[0] == 2000.0
        assert flows.num_events[0] == 2


@given(gap=st.floats(min_value=0.01, max_value=500.0))
def test_timeout_boundary_matches_streaming_split_at_gap(gap):
    """Splitting exactly inside the gap must not change the verdict."""
    timeout = 60.0
    log = _two_burst_log(gap)
    head, tail = _split_rows(log, 1)
    streamed = (
        StreamingFlows(inactivity_timeout=timeout)
        .update(head).update(tail).finalize()
    )
    one_shot = reconstruct_flows(log, inactivity_timeout=timeout)
    assert _flow_tables_equal(streamed, one_shot)
    effective_gap = (5.0 + gap) - 5.0
    assert len(streamed) == (2 if effective_gap > timeout else 1)
