"""Pinned content digests of the queued transports' outputs.

The queued family (``dctcp``/``reno``/``ecn_taildrop``) integrates
windows and queues on a fixed tick, so a change to the tick that moves
one float of one reduction moves completion times, and with them every
later output.  These digests pin, bit for bit, the socket log, the
completed transfers, the :class:`~repro.simulation.cc.transport.CCReport`
and the link-load byte and queue-depth matrices of synchronized incasts
of every variant and of short campaigns on the multipath fabrics.  A
pure speed-up of the tick leaves every one of them unchanged; a change
that alters a result (a window transition skipped, a reduction
reordered) fails here even where the leaf-spine DCTCP benchmark pins
cannot see it.

The second half runs one campaign three ways — plain, with inline
validation after every engine batch, and streamed into a trace — and
asserts the same digests: reading the transport between ticks
(``active_rates``, ``earliest_active_start``) must never perturb it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.experiments import small_config
from repro.instrumentation.events import SocketEventLog
from repro.simulation.cc.scenarios import incast_result
from repro.simulation.simulator import Simulator, simulate
from repro.trace.format import content_hash
from repro.trace.reader import TraceReader
from repro.trace.record import record_trace
from repro.util.units import GBPS

#: Simulated seconds of the fabric campaigns: the first ~60-75
#: transfers, about a second of test time each.
CAMPAIGN_SECONDS = 10.0


def _hash(arrays: dict[str, np.ndarray]) -> str:
    return content_hash(arrays, sorted(arrays))[:16]


def queued_digests(result, socket_log=None) -> dict[str, str]:
    """Content digests of one queued-transport run, by output.

    ``socket_log`` replaces ``result.socket_log`` for a streamed run,
    whose events went to the trace instead.
    """
    log_names = [name for name, _ in SocketEventLog.column_spec()]
    transfers = result.transfers

    def column(getter, dtype) -> np.ndarray:
        return np.array([getter(t) for t in transfers], dtype=dtype)

    def optional(value) -> int:
        return -1 if value is None else int(value)

    cc = result.cc
    loads = result.link_loads
    depth = loads.queue_depth_matrix()
    return {
        "socket_log": content_hash(
            (socket_log or result.socket_log).to_columns(), log_names
        )[:16],
        "transfers": _hash({
            "transfer_id": column(lambda t: t.transfer_id, np.int64),
            "src": column(lambda t: t.src, np.int64),
            "dst": column(lambda t: t.dst, np.int64),
            "size": column(lambda t: t.size, float),
            "start_time": column(lambda t: t.start_time, float),
            "end_time": column(lambda t: t.end_time, float),
            "kind": column(lambda t: t.meta.kind, str),
            "job_id": column(lambda t: optional(t.meta.job_id), np.int64),
            "phase_index": column(
                lambda t: optional(t.meta.phase_index), np.int64
            ),
            "vertex_id": column(
                lambda t: optional(t.meta.vertex_id), np.int64
            ),
        }),
        "cc": _hash({
            "scalars": np.array([
                cc.ticks, cc.marked_packets, cc.dropped_packets,
                cc.forwarded_packets, cc.peak_queue_bytes,
            ], dtype=float),
            "flow_fct": cc.flow_fct,
            "flow_sizes": cc.flow_sizes,
            "flow_retransmitted_bytes": cc.flow_retransmitted_bytes,
            "flow_timeouts": cc.flow_timeouts,
            "flow_mean_rtt": cc.flow_mean_rtt,
            "enqueued_bytes": cc.enqueued_bytes,
            "dequeued_bytes": cc.dequeued_bytes,
            "dropped_bytes": cc.dropped_bytes,
            "resident_bytes": cc.resident_bytes,
        }),
        "linkloads": _hash({
            "bytes": loads.byte_matrix(),
            "queue_depth": (
                np.zeros((0, 0)) if depth is None else depth
            ),
        }),
    }


def leafspine_config(transport: str, routing: str):
    """perfbench's leaf-spine fabric, cut to :data:`CAMPAIGN_SECONDS`."""
    return replace(
        small_config(seed=3),
        cluster=ClusterSpec.leaf_spine(
            racks=6, spines=2, servers_per_rack=8, external_hosts=2,
            tor_uplink_capacity=2.5 * GBPS,
        ),
        routing_impl=routing,
        transport_impl=transport,
        duration=CAMPAIGN_SECONDS,
    )


def fat_tree_config(transport: str, routing: str):
    """The small campaign on a k=4 fat-tree."""
    return replace(
        small_config(seed=3),
        cluster=ClusterSpec.fat_tree(4),
        routing_impl=routing,
        transport_impl=transport,
        duration=CAMPAIGN_SECONDS,
    )


#: Pinned digests per run: (socket_log, transfers, cc, linkloads).
PINNED = {
    "fat_tree/ecn_taildrop/ecmp": (
        "79ee5f2e4ae5bbbc", "11744ea81e5217cd",
        "55d5a2a25beceef1", "a308cb53142d7e39",
    ),
    "incast/dctcp/16": (
        "1f8fbd736be149e6", "a13713606691cbb5",
        "6e7ed42402ccd432", "843370f62c8102cb",
    ),
    "incast/dctcp/4": (
        "e9299368ec721173", "8e674fd48227b808",
        "ccb19fc1d6097567", "06f66cc38005dbcd",
    ),
    "incast/dctcp/8": (
        "7d85b398adc99e29", "e819bbfe46a71b52",
        "0b3e62c9ff57ee95", "fcb82ddfcfe00917",
    ),
    "incast/ecn_taildrop/16": (
        "1f8fbd736be149e6", "783c1745d77a9a72",
        "b6d0a0d30ca772ba", "3fbbfb4c0ccd0f4f",
    ),
    "incast/ecn_taildrop/4": (
        "e9299368ec721173", "f9c606b3e75f062b",
        "a851cef82faf9eb9", "242ad246ae13e303",
    ),
    "incast/ecn_taildrop/8": (
        "7d85b398adc99e29", "9a2d9cfb0a60978f",
        "d381c16a1e283a79", "48e3c7872d3dac43",
    ),
    "incast/reno/16": (
        "1f8fbd736be149e6", "6f3ed42903ac2c1f",
        "61b9dfec8900a4d7", "3974e2136cb08ffe",
    ),
    "incast/reno/4": (
        "e9299368ec721173", "8e674fd48227b808",
        "a6d04d3ef8d1e510", "610ad8943bd87c37",
    ),
    "incast/reno/8": (
        "7d85b398adc99e29", "19f5e4c72c00afda",
        "7c832d18b7277fc2", "f7cc39813ffa1cdd",
    ),
    "leafspine/dctcp/ecmp": (
        "b9ac2e4e19331ade", "414c139276df485c",
        "d0a43c71fec07a11", "75a769b49c3811d9",
    ),
    "leafspine/reno/flowlet": (
        "ef8946060c61cc75", "e27f58e45ea36f12",
        "e9bcb309815bb118", "1a7cba0b86898420",
    ),
}


def _run(name: str):
    family, *rest = name.split("/")
    if family == "incast":
        variant, senders = rest
        return incast_result(variant, int(senders))
    factory = leafspine_config if family == "leafspine" else fat_tree_config
    return simulate(factory(*rest))


def _assert_pinned(name: str, observed: dict[str, str]) -> None:
    pinned = dict(zip(("socket_log", "transfers", "cc", "linkloads"),
                      PINNED[name]))
    changed = {
        key: (value, pinned.get(key))
        for key, value in observed.items()
        if pinned.get(key) != value
    }
    assert not changed, (
        f"{name}: outputs changed (observed, pinned) {changed} "
        f"under numpy {np.__version__}"
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_queued_outputs_pinned(name):
    _assert_pinned(name, queued_digests(_run(name)))


def test_reading_the_transport_mid_run_does_not_perturb_it(tmp_path):
    """Plain, inline-validated and streamed runs give identical outputs.

    Inline validation calls ``active_rates`` and
    ``earliest_active_start`` after every engine batch, and the stream
    flush calls ``earliest_active_start``: reads between ticks that must
    leave the transport's state exactly as they found it.
    """
    config = leafspine_config("dctcp", "ecmp")
    plain = queued_digests(simulate(config))

    simulator = Simulator(replace(config, validate_every_n_batches=1))
    validated = queued_digests(simulator.run())
    assert simulator.inline_validations > 1000

    path = tmp_path / "leafspine.reprotrace"
    recorded = record_trace(config, path, chunk_size=64, flush_interval=0.25)
    streamed = queued_digests(
        recorded.result, socket_log=TraceReader(path).read_all()
    )

    assert validated == plain
    assert streamed == plain
    _assert_pinned("leafspine/dctcp/ecmp", plain)
