"""Allocator edge cases across every water-filling allocator, plus the
add/finish interleaving property test.

The round-based reference loop, the exact allocator (``vectorized``),
its CSR regime (``csr``, called directly) and the incremental allocator
share one contract: no link is ever oversubscribed, and rates agree
with the round-based reference — bitwise for the exact ones, within
``INCREMENTAL_RTOL`` for the incremental allocator.  The edge cases
here are the shapes a campaign hits rarely but fatally: zero-capacity
links, a path saturated end to end, arrivals and departures folded into
one batch, and the active set draining to empty.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.simulation import waterfill
from repro.simulation.transport import FluidTransport, TransferMeta
from repro.simulation.waterfill import (
    INCREMENTAL_RTOL,
    IncidenceTable,
    IncrementalMaxMin,
    maxmin_rates_reference,
    maxmin_rates_vectorized,
)

from strategies import churn_ops

IMPLS = ["reference", "vectorized", "csr", "incremental"]

#: Equivalence bound per impl: the exact impls must be bitwise-tight,
#: the incremental allocator is tolerance-based by design.
RTOL = {impl: 1e-9 for impl in ("reference", "vectorized", "csr")}
RTOL["incremental"] = INCREMENTAL_RTOL


def _paths_array(flows, width: int | None = None):
    """Padded (paths, valid) arrays from a list of link tuples."""
    width = width or max((len(links) for links in flows), default=1)
    paths = np.full((len(flows), max(width, 1)), -1, dtype=np.int64)
    for row, links in enumerate(flows):
        paths[row, : len(links)] = links
    return paths, paths >= 0


def _solve(impl: str, flows, capacities: np.ndarray) -> np.ndarray:
    """One-shot solve of ``flows`` (list of link tuples) under ``impl``."""
    num_links = capacities.size
    paths, valid = _paths_array(flows)
    if impl == "reference":
        return maxmin_rates_reference(paths, valid, capacities, num_links)
    if impl == "vectorized":
        return maxmin_rates_vectorized(paths, valid, capacities, num_links)
    if impl == "csr":
        return waterfill._maxmin_csr(paths, valid, capacities, num_links)
    inc = IncrementalMaxMin(capacities, num_links)
    for slot, links in enumerate(flows):
        inc.on_add(slot, tuple(links))
    return inc.solve(np.arange(len(flows), dtype=np.int64), paths, valid)


def _assert_feasible(flows, rates, capacities):
    """No link carries more than its capacity (float slack only)."""
    paths, valid = _paths_array(flows)
    consumed = np.bincount(
        paths[valid],
        weights=np.repeat(rates, valid.sum(axis=1)),
        minlength=capacities.size,
    )
    assert (consumed <= capacities * (1.0 + 1e-6) + 1e-9).all()


@pytest.mark.parametrize("impl", IMPLS)
def test_zero_capacity_link_starves_only_its_flows(impl):
    """Flows crossing a dead link get rate zero; everyone else shares
    the live links as if the dead flows were absent."""
    capacities = np.array([100.0, 0.0, 100.0])
    flows = [(0,), (1,), (0, 2), (1, 2)]
    rates = _solve(impl, flows, capacities)
    assert rates[1] == 0.0
    assert rates[3] == 0.0
    ref = _solve("reference", flows, capacities)
    np.testing.assert_allclose(rates, ref, rtol=RTOL[impl], atol=1e-9)
    _assert_feasible(flows, rates, capacities)


@pytest.mark.parametrize("impl", IMPLS)
def test_fully_saturated_path_splits_the_bottleneck(impl):
    """Identical flows over one end-to-end path split its tightest link
    equally and leave the wider links unsaturated."""
    capacities = np.array([50.0, 10.0, 50.0])
    flows = [(0, 1, 2)] * 5
    rates = _solve(impl, flows, capacities)
    np.testing.assert_allclose(rates, 2.0, rtol=RTOL[impl])
    _assert_feasible(flows, rates, capacities)


@pytest.mark.parametrize("impl", IMPLS)
def test_simultaneous_arrival_and_departure_batch(impl):
    """Departures and arrivals folded into one rate recomputation.

    The incremental allocator sees them as queued ``on_remove`` and
    ``on_add`` events absorbed by a single ``solve``; the stateless
    impls simply solve the final set.  Both must land on the reference
    allocation of the final set.
    """
    capacities = np.array([100.0, 100.0, 100.0, 100.0])
    first = [(0, 1), (1, 2), (2, 3)]
    final = [(0, 1), (0, 3), (1, 3)]
    if impl == "incremental":
        inc = IncrementalMaxMin(capacities, capacities.size)
        for slot, links in enumerate(first):
            inc.on_add(slot, links)
        paths, valid = _paths_array(first)
        inc.solve(np.arange(3, dtype=np.int64), paths, valid)
        # One batch: two departures and two arrivals, then one solve.
        inc.on_remove(1)
        inc.on_remove(2)
        inc.on_add(3, (0, 3))
        inc.on_add(4, (1, 3))
        paths, valid = _paths_array(final)
        rates = inc.solve(np.array([0, 3, 4], dtype=np.int64), paths, valid)
    else:
        rates = _solve(impl, final, capacities)
    ref = _solve("reference", final, capacities)
    np.testing.assert_allclose(rates, ref, rtol=RTOL[impl], atol=1e-9)
    _assert_feasible(final, rates, capacities)


@pytest.mark.parametrize("impl", IMPLS)
def test_empty_active_set_after_mass_completion(impl):
    """Draining every flow yields an empty solve; the next arrival gets
    the full link back."""
    capacities = np.array([100.0])
    if impl == "incremental":
        inc = IncrementalMaxMin(capacities, 1)
        inc.on_add(0, (0,))
        inc.on_add(1, (0,))
        paths, valid = _paths_array([(0,), (0,)])
        inc.solve(np.array([0, 1], dtype=np.int64), paths, valid)
        inc.on_remove(0)
        inc.on_remove(1)
        empty = inc.solve(
            np.empty(0, dtype=np.int64),
            np.empty((0, 1), dtype=np.int64),
            np.empty((0, 1), dtype=bool),
        )
        assert empty.size == 0
        # Recovery: a fresh arrival is granted the freed capacity.
        inc.on_add(2, (0,))
        paths, valid = _paths_array([(0,)])
        rates = inc.solve(np.array([2], dtype=np.int64), paths, valid)
        np.testing.assert_allclose(rates, [100.0], rtol=INCREMENTAL_RTOL)
    else:
        empty = _solve(impl, [], capacities)
        assert empty.size == 0


# ------------------------------------------------------- property test


@settings(max_examples=40, deadline=None)
@given(ops=churn_ops())
def test_incremental_tracks_reference_over_interleavings(ops):
    """Any add/finish interleaving stays within ``INCREMENTAL_RTOL``.

    Drives the stateful incremental allocator through a random arrival/
    departure sequence on a real routed topology and, after *every*
    step, compares its live rates against a from-scratch reference
    solve of the same flow set — the exact bound the
    ``transport.incremental_equivalence`` checker enforces inline — and
    re-checks link feasibility.
    """
    topo = ClusterTopology(
        ClusterSpec(racks=4, servers_per_rack=3, racks_per_vlan=2,
                    external_hosts=0)
    )
    router = Router(topo)
    capacities = topo.capacities
    num_links = topo.num_links
    endpoints = topo.endpoints()
    inc = IncrementalMaxMin(capacities, num_links)
    active: dict[int, tuple[int, ...]] = {}
    next_slot = 0

    for op in ops:
        if op[0] == "add":
            src = endpoints[op[1] % len(endpoints)]
            others = [e for e in endpoints if e != src]
            dst = others[op[2] % len(others)]
            links = tuple(
                int(link) for link in router.path_links(int(src), int(dst))
            )
            inc.on_add(next_slot, links)
            active[next_slot] = links
            next_slot += 1
        else:
            if not active:
                continue
            slots = sorted(active)
            slot = slots[op[1] % len(slots)]
            inc.on_remove(slot)
            del active[slot]

        slots = np.array(sorted(active), dtype=np.int64)
        flows = [active[int(slot)] for slot in slots]
        paths, valid = _paths_array(flows, width=8)
        rates = inc.solve(slots, paths, valid)
        if slots.size == 0:
            assert rates.size == 0
            continue
        ref = maxmin_rates_reference(paths, valid, capacities, num_links)
        err = np.abs(rates - ref) / np.maximum(np.abs(ref), 1.0)
        assert float(err.max()) <= INCREMENTAL_RTOL + 1e-9
        _assert_feasible(flows, rates, capacities)


def _drive_table_path(ops, capacity_override=None):
    """Run ``ops`` through a ``vectorized`` transport, checking each step.

    Adds route a flow between the picked endpoints; finishes complete
    the picked live flow through the transport's completion path.
    After every step the rates are recomputed and must equal, bit for
    bit, a from-scratch reference solve of the live set (floored at the
    transport's minimum rate), and the maintained incidence must equal
    one built from scratch.  Slots must be reused last-freed-first.
    Returns how many heap-regime allocations ran.
    """
    topo = ClusterTopology(
        ClusterSpec(racks=4, servers_per_rack=3, racks_per_vlan=2,
                    external_hosts=0)
    )
    router = Router(topo)
    transport = FluidTransport(topo, impl="vectorized")
    if capacity_override is not None:
        link, capacity = capacity_override
        transport.capacities[link] = capacity
    endpoints = topo.endpoints()
    meta = TransferMeta(kind="fetch")
    freed: list[int] = []
    next_unused = 0
    solves = 0
    for op in ops:
        if op[0] == "add":
            src = endpoints[op[1] % len(endpoints)]
            others = [e for e in endpoints if e != src]
            dst = others[op[2] % len(others)]
            slot = transport.add_flow(
                int(src), int(dst), 1e9,
                router.path_links(int(src), int(dst)), meta,
            )
            if freed:
                assert slot == freed.pop()
            else:
                assert slot == next_unused
                next_unused += 1
        else:
            slots = transport.active_flows().slots
            if not slots.size:
                continue
            position = op[1] % slots.size
            transport._finish(np.array([position]))
            assert len(transport.pop_completed()) == 1
            freed.append(int(slots[position]))
        transport.recompute_rates()
        active = transport.active_flows()
        if not active.slots.size:
            continue
        solves += 1
        expected = maxmin_rates_reference(
            active.paths, active.valid, transport.capacities,
            transport.num_links,
        )
        assert np.array_equal(
            transport.active_rates(), np.maximum(expected, 1.0)
        )
        table = transport._incidence
        fresh = IncidenceTable.from_paths(
            active.paths, active.valid, transport.num_links
        )
        slot_list = active.slots.tolist()
        assert table.slots == slot_list
        assert table.counts == fresh.counts
        assert table.link_slots == [
            [slot_list[row] for row in rows] for rows in fresh.link_slots
        ]
    return solves


@settings(max_examples=40, deadline=None)
@given(ops=churn_ops())
def test_table_heap_regime_matches_reference_over_interleavings(ops):
    """Any add/finish interleaving keeps the maintained table exact.

    The transport's heap regime reads the incidence table that
    ``add_flow`` and completion keep up to date; after *every* step its
    rates must equal a from-scratch reference solve bit for bit.
    """
    _drive_table_path(ops)


@settings(max_examples=15, deadline=None)
@given(ops=churn_ops())
def test_table_heap_regime_with_a_zero_capacity_link(ops):
    """A dead link (a server's uplink) starves exactly its flows through
    the table path too: its level-zero round assigns them rate 0."""
    _drive_table_path(ops, capacity_override=(0, 0.0))


def test_unassigned_fallback_runs_through_the_table(monkeypatch):
    """Flows no round can assign take their bottleneck share.

    A negative capacity makes the round threshold fall below the level
    itself, so no link saturates: both the reference and the table's
    heap loop hand every flow to ``bottleneck_rates``, with the same
    floats.
    """
    calls = []
    original = waterfill.bottleneck_rates

    def spy(paths, valid, capacities, num_links):
        calls.append(paths.shape[0])
        return original(paths, valid, capacities, num_links)

    monkeypatch.setattr(waterfill, "bottleneck_rates", spy)
    capacities = np.array([100.0, -1.0, 100.0])
    flows = [(0,), (1,), (0, 2), (1, 2)]
    paths, valid = _paths_array(flows)
    table = IncidenceTable(capacities.size)
    for slot, links in enumerate(flows):
        table.add(slot, links)
    heap = waterfill._maxmin_heap(table, capacities)
    assert calls == [4]
    ref = maxmin_rates_reference(paths, valid, capacities, capacities.size)
    assert np.array_equal(heap, ref)
