"""Pinned content digests of the fluid transport's outputs.

The fluid family integrates max-min rates between events, so a change
that moves one float of one allocation or one integration step moves
completion times, and with them every later output.  These digests pin,
bit for bit, the socket log, the completed transfers, the link-load
byte matrix and the run's allocation and completion counts for short
campaigns under both fluid ``transport_impl`` values and the exact
allocator's two oracles (``reference`` and ``csr``, forced by the
``force_allocator`` fixture), under ``fairness="bottleneck"``, on the
multipath fabrics, and for a run that evacuates servers.  A pure
speed-up of the transport, the allocator or block placement leaves
every one of them unchanged; a change that alters a result (a reduction
reordered, a slot reused in another order, a replica drawn from another
list) fails here.

perfbench's ``tree_exact`` digests cover only the tree under
single-path ``vectorized``; the runs here add the other impls, the
ablation fairness mode and the ECMP/flowlet fabrics, which exercise
flow arrival, completion and integration along different paths, and
evacuations, which no perfbench workload schedules.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import small_config
from repro.instrumentation.events import SocketEventLog
from repro.simulation.simulator import simulate
from repro.simulation.waterfill import FULL_SOLVE_REASONS
from repro.telemetry import Telemetry
from repro.trace.format import content_hash

from test_cc_digests import fat_tree_config, leafspine_config

#: Simulated seconds per run: ~1,400-1,650 completed transfers with
#: hundreds of slot reuses, about half a second of test time each.
CAMPAIGN_SECONDS = 45.0
#: Evacuation events per second of the ``evacuating`` run.  The small
#: config's rate schedules none in ``CAMPAIGN_SECONDS``; this one starts
#: four (at 17.3, 26.5, 26.9 and 43.0 s), which drain twelve servers, so
#: placement, evacuation and the copies it streams all reach the digests.
EVACUATION_RATE = 0.1


def _hash(arrays: dict[str, np.ndarray]) -> str:
    return content_hash(arrays, sorted(arrays))[:16]


def fluid_digests(result) -> dict[str, str]:
    """Content digests of one fluid-transport run, by output."""
    log_names = [name for name, _ in SocketEventLog.column_spec()]
    transfers = result.transfers

    def column(getter, dtype) -> np.ndarray:
        return np.array([getter(t) for t in transfers], dtype=dtype)

    def optional(value) -> int:
        return -1 if value is None else int(value)

    return {
        "socket_log": content_hash(
            result.socket_log.to_columns(), log_names
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
        "linkloads": _hash({"bytes": result.link_loads.byte_matrix()}),
        "counts": (
            f"{int(result.stats['rate_recomputes'])}/"
            f"{int(result.stats['transfers_completed'])}"
        ),
    }


def _config(name: str, transport_impl: str | None = None):
    """The run ``name``, under ``transport_impl`` when given (what a
    forced oracle runs as) and else under the impl the name gives."""
    fabric, impl, variant = name.split("/")
    impl = transport_impl or impl
    if fabric == "tree":
        config = replace(
            small_config(seed=3), transport_impl=impl, duration=CAMPAIGN_SECONDS
        )
        if variant == "evacuating":
            return replace(config, workload=replace(
                config.workload, evacuation_rate=EVACUATION_RATE
            ))
        return replace(config, fairness=variant)
    factory = leafspine_config if fabric == "leafspine" else fat_tree_config
    return replace(factory(impl, variant), duration=CAMPAIGN_SECONDS)


#: Pinned digests per run, keyed ``fabric/impl/fairness-or-routing``
#: (``evacuating``: the tree under max-min at ``EVACUATION_RATE``):
#: (socket_log, transfers, linkloads, "rate_recomputes/transfers").
PINNED = {
    "fat_tree/vectorized/ecmp": (
        "aacde098f605f533", "def6f05fb4cb369f",
        "dcab12f2ddf3019b", "1112/1406",
    ),
    "leafspine/vectorized/ecmp": (
        "e8130d2e940d420d", "e06ec1f613a3c2a2",
        "55c3cc486e954966", "1142/1632",
    ),
    "leafspine/vectorized/flowlet": (
        "0d2ef98179d2664a", "f8e5b2f99ffdde73",
        "a62a55bd09d97220", "1139/1596",
    ),
    "tree/csr/maxmin": (
        "7b3d137ec6840318", "4a8e3154eb4f6ed3",
        "d0e5a4f96722c56c", "1172/1627",
    ),
    "tree/incremental/maxmin": (
        "d52f1441c587899d", "2b93a162b7f56376",
        "56de04da1f0e7381", "1183/1587",
    ),
    "tree/reference/maxmin": (
        "7b3d137ec6840318", "4a8e3154eb4f6ed3",
        "d0e5a4f96722c56c", "1172/1627",
    ),
    "tree/vectorized/bottleneck": (
        "36a89e6d7b38ea25", "2279a8f1140b62f6",
        "0beb65686748c2e2", "1158/1571",
    ),
    "tree/vectorized/evacuating": (
        "65f1e957fe89b72f", "433f1324eeee8c94",
        "52a09ce175c47100", "1210/1650",
    ),
    "tree/vectorized/maxmin": (
        "7b3d137ec6840318", "4a8e3154eb4f6ed3",
        "d0e5a4f96722c56c", "1172/1627",
    ),
}


def _pinned(name: str) -> dict[str, str]:
    return dict(zip(("socket_log", "transfers", "linkloads", "counts"),
                    PINNED[name]))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fluid_outputs_pinned(name, force_allocator):
    with force_allocator(name.split("/")[1]) as transport_impl:
        observed = fluid_digests(simulate(_config(name, transport_impl)))
    pinned = _pinned(name)
    changed = {
        key: (value, pinned[key])
        for key, value in observed.items()
        if pinned[key] != value
    }
    assert not changed, (
        f"{name}: outputs changed (observed, pinned) {changed} "
        f"under numpy {np.__version__}"
    )


def test_evacuating_run_evacuates():
    """The ``evacuating`` run drains servers within its simulated time
    and completes some of the copies, so its digests cover them."""
    result = simulate(_config("tree/vectorized/evacuating"))
    starts = sorted({record.time for record in result.applog.evacuations})
    copies = [t for t in result.transfers if t.meta.kind == "evacuation"]
    assert len(starts) >= 2
    assert starts[-1] < CAMPAIGN_SECONDS
    assert copies


def test_incremental_full_solves_split_by_reason():
    """The ``incremental`` run publishes why each full solve ran: the
    per-reason counts add up to the total, and telemetry leaves the
    pinned outputs as they are."""
    name = "tree/incremental/maxmin"
    tele = Telemetry()
    result = simulate(_config(name), telemetry=tele)
    total = tele.counter("transport.incremental_full_solves").value
    by_reason = {
        reason: tele.counter(
            "transport.incremental_full_solves_by_reason", reason=reason
        ).value
        for reason in FULL_SOLVE_REASONS
    }
    assert total > 0
    assert sum(by_reason.values()) == total, by_reason
    assert fluid_digests(result) == _pinned(name)
