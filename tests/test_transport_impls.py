"""Differential test: the fluid allocators and their oracles, end to end.

Runs the seeded fuzz configs from :mod:`test_differential` through full
campaigns under both fluid ``transport_impl`` settings and under the
exact allocator's two oracles, forced by the ``force_allocator``
fixture.  ``vectorized`` and its CSR regime forced on every solve
(``csr``) must be *identical* to the round-based ``reference`` loop —
socket-event logs column for column, reconstructed flow tables,
link-load matrices, and congestion episodes.  ``incremental`` is
tolerance-based by design
(documented ``INCREMENTAL_RTOL``): those campaigns are checked for
matching workload structure plus the inline
``transport.incremental_equivalence`` validator on every batch, which
bounds rate drift against a from-scratch reference solve throughout the
run.  Unlike the three-path trace fuzz (which is ``slow``-marked),
these configs are small enough to run in the tier-1 suite, so any float
divergence fails fast on every push.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.congestion import find_episodes
from repro.core.flows import reconstruct_flows
from repro.simulation.simulator import simulate
from repro.trace.analyze import _flow_tables_equal

from test_differential import _random_configs


@pytest.mark.parametrize("impl", ["vectorized", "csr"])
@pytest.mark.parametrize("index,config", list(enumerate(_random_configs(3))))
def test_exact_impls_match_reference(index, config, impl, force_allocator):
    with force_allocator(impl) as transport_impl:
        result_vec = simulate(
            dataclasses.replace(config, transport_impl=transport_impl)
        )
    with force_allocator("reference") as transport_impl:
        result_ref = simulate(
            dataclasses.replace(config, transport_impl=transport_impl)
        )

    # Socket-event logs: identical column for column (bitwise).
    columns_vec = result_vec.socket_log.to_columns()
    columns_ref = result_ref.socket_log.to_columns()
    assert columns_vec.keys() == columns_ref.keys()
    for name in columns_vec:
        assert np.array_equal(columns_vec[name], columns_ref[name]), (
            f"config {index}: column {name!r} diverged"
        )

    # Reconstructed flow tables.
    assert _flow_tables_equal(
        reconstruct_flows(result_vec.socket_log),
        reconstruct_flows(result_ref.socket_log),
    )

    # Link loads: every one-second byte bin on every link.
    assert np.array_equal(
        result_vec.link_loads.byte_matrix(), result_ref.link_loads.byte_matrix()
    )

    # Congestion episodes (paper §4.2) — derived, but cheap to pin.
    hot_vec = (
        result_vec.link_loads.utilization_matrix()
        >= config.congestion_threshold
    )
    hot_ref = (
        result_ref.link_loads.utilization_matrix()
        >= config.congestion_threshold
    )
    assert find_episodes(hot_vec) == find_episodes(hot_ref)

    # And the run-level stats counters.
    assert result_vec.stats == result_ref.stats


@pytest.mark.parametrize("index,config", list(enumerate(_random_configs(2))))
def test_incremental_tracks_reference_within_tolerance(
    index, config, force_allocator
):
    """Incremental campaigns finish the same workload with continuously
    validated rates.

    ``validate_every_n_batches=1`` runs the
    ``transport.incremental_equivalence`` checker after *every* engine
    batch: any live rate further than ``INCREMENTAL_RTOL`` from a
    from-scratch reference solve, or any oversubscribed link, aborts the
    run.  Workload-level outputs (jobs, transfer population, byte
    volume) must agree with the reference campaign — completion
    *timestamps* may legitimately drift within the rate tolerance.
    """
    result_inc = simulate(
        dataclasses.replace(
            config, transport_impl="incremental", validate_every_n_batches=1
        )
    )
    with force_allocator("reference") as transport_impl:
        result_ref = simulate(
            dataclasses.replace(config, transport_impl=transport_impl)
        )

    assert result_inc.stats["jobs_submitted"] == result_ref.stats["jobs_submitted"]
    assert result_inc.stats["jobs_finished"] == result_ref.stats["jobs_finished"]
    assert (
        result_inc.stats["transfers_started"]
        == result_ref.stats["transfers_started"]
    )

    # Completed-transfer population: same flows (src, dst, size), order-
    # and timing-insensitive.
    def population(result):
        return sorted(
            (t.src, t.dst, t.size, t.meta.kind) for t in result.transfers
        )

    assert population(result_inc) == population(result_ref)

    # Byte conservation at the link level: total bytes moved agree to the
    # documented tolerance (drifted completions shift bins, not volume).
    bytes_inc = result_inc.link_loads.byte_matrix().sum()
    bytes_ref = result_ref.link_loads.byte_matrix().sum()
    assert bytes_inc == pytest.approx(bytes_ref, rel=0.05)
