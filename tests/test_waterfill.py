"""Bitwise equivalence of the water-filling allocators.

The vectorized allocator's entire claim is that it replays the reference
loop's floating-point operations exactly — not approximately.  Every
assertion here is ``array_equal`` (bitwise), never ``allclose``: a
single ULP of drift would compound over thousands of rate recomputations
into different completion times and therefore a different event log.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.simulation import waterfill
from repro.simulation.transport import FluidTransport, TransferMeta
from repro.simulation.waterfill import (
    IncidenceTable,
    _maxmin_csr,
    _maxmin_heap,
    bottleneck_rates,
    maxmin_rates_reference,
    maxmin_rates_vectorized,
)

_META = TransferMeta(kind="fetch")


def _random_problem(rng, num_flows, spec=None):
    """A random active set over a random small topology."""
    spec = spec or ClusterSpec(
        racks=int(rng.integers(2, 8)),
        servers_per_rack=int(rng.integers(2, 8)),
        racks_per_vlan=int(rng.integers(1, 4)),
        external_hosts=int(rng.integers(0, 4)),
    )
    topo = ClusterTopology(spec)
    router = Router(topo)
    endpoints = topo.endpoints()
    paths = np.full((num_flows, 8), -1, dtype=np.int64)
    for i in range(num_flows):
        src, dst = rng.choice(endpoints, size=2, replace=False)
        links = router.path_links(int(src), int(dst))
        paths[i, : len(links)] = links
    return paths, paths >= 0, topo.capacities, topo.num_links


class TestAllocatorEquivalence:
    def test_randomized_bitwise_equal(self):
        rng = np.random.default_rng(20260806)
        for trial in range(25):
            num_flows = int(rng.integers(1, 400))
            paths, valid, caps, num_links = _random_problem(rng, num_flows)
            expected = maxmin_rates_reference(paths, valid, caps, num_links)
            got = maxmin_rates_vectorized(paths, valid, caps, num_links)
            assert np.array_equal(expected, got), f"trial {trial} diverged"

    def test_both_internal_paths_bitwise_equal(self):
        """Heap and CSR regimes agree with the reference (and so with
        each other) on the same problems, regardless of the dispatch
        threshold."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            num_flows = int(rng.integers(2, 300))
            paths, valid, caps, num_links = _random_problem(rng, num_flows)
            table = IncidenceTable.from_paths(paths, valid, num_links)
            expected = maxmin_rates_reference(paths, valid, caps, num_links)
            heap = _maxmin_heap(table, caps)
            csr = _maxmin_csr(paths, valid, caps, num_links)
            assert np.array_equal(expected, heap)
            assert np.array_equal(expected, csr)

    def test_csr_dispatch_threshold(self, monkeypatch):
        """Dispatch switches on the threshold, invisibly to callers."""
        rng = np.random.default_rng(3)
        paths, valid, caps, num_links = _random_problem(rng, 64)
        expected = maxmin_rates_reference(paths, valid, caps, num_links)
        monkeypatch.setattr(waterfill, "_CSR_FLOW_THRESHOLD", 1)
        assert np.array_equal(
            expected, maxmin_rates_vectorized(paths, valid, caps, num_links)
        )
        monkeypatch.setattr(waterfill, "_CSR_FLOW_THRESHOLD", 10**9)
        assert np.array_equal(
            expected, maxmin_rates_vectorized(paths, valid, caps, num_links)
        )

    def test_empty_active_set(self):
        caps = np.array([1.0, 2.0])
        empty = np.zeros((0, 8), dtype=np.int64)
        assert maxmin_rates_vectorized(empty, empty >= 0, caps, 2).shape == (0,)

    def test_single_flow_gets_bottleneck_capacity(self):
        caps = np.array([100.0, 40.0, 70.0])
        paths = np.array([[0, 1, 2, -1, -1, -1, -1, -1]], dtype=np.int64)
        rates = maxmin_rates_vectorized(paths, paths >= 0, caps, 3)
        assert np.array_equal(rates, np.array([40.0]))

    def test_incidence_reuse_is_pure(self):
        """Repeated allocation through one maintained incidence table
        returns identical results and leaves the table as it was — the
        per-call state must be copied, never mutated in place."""
        rng = np.random.default_rng(11)
        paths, valid, caps, num_links = _random_problem(rng, 120)
        table = IncidenceTable.from_paths(paths, valid, num_links)
        before = (
            list(table.slots), list(table.counts),
            [list(slots) for slots in table.link_slots],
        )
        first = maxmin_rates_vectorized(
            paths, valid, caps, num_links, table=table
        )
        second = maxmin_rates_vectorized(
            paths, valid, caps, num_links, table=table
        )
        assert np.array_equal(first, second)
        assert np.array_equal(
            first, maxmin_rates_reference(paths, valid, caps, num_links)
        )
        assert before == (
            table.slots, table.counts,
            [list(slots) for slots in table.link_slots],
        )


class TestTransportIntegration:
    def _transport(self, impl, num_flows=60, seed=2):
        topo = ClusterTopology(
            ClusterSpec(racks=4, servers_per_rack=4, racks_per_vlan=2,
                        external_hosts=1)
        )
        router = Router(topo)
        transport = FluidTransport(topo, impl=impl)
        rng = np.random.default_rng(seed)
        endpoints = topo.endpoints()
        for _ in range(num_flows):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            transport.add_flow(int(src), int(dst), 1e8,
                               router.path_links(int(src), int(dst)), _META)
        return transport

    def test_invalid_impl_rejected(self):
        topo = ClusterTopology(ClusterSpec(racks=2, servers_per_rack=2))
        with pytest.raises(ValueError, match="transport impl"):
            FluidTransport(topo, impl="turbo")

    def test_impls_allocate_identical_rates(self, force_allocator):
        vec = self._transport("vectorized")
        ref = self._transport("vectorized")
        vec.recompute_rates()
        with force_allocator("reference"):
            ref.recompute_rates()
        assert np.array_equal(vec.active_rates(), ref.active_rates())

    def test_cache_invalidated_on_add_and_finish(self):
        """The maintained incidence follows every add and completion:
        rates after each match a reference solve of the live set."""
        transport = self._transport("vectorized", num_flows=10)
        transport.recompute_rates()
        before = transport.active_flows().slots
        topo = transport.topology
        router = Router(topo)
        endpoints = topo.endpoints()
        rng = np.random.default_rng(9)
        src, dst = rng.choice(endpoints, size=2, replace=False)
        transport.add_flow(int(src), int(dst), 1e6,
                           router.path_links(int(src), int(dst)), _META)
        assert transport.active_flows().slots.size == before.size + 1
        transport.recompute_rates()
        # Rates after the add must match a fresh transport built with the
        # same final flow set computed by the reference allocator.
        active = transport.active_flows()
        expected = maxmin_rates_reference(
            active.paths, active.valid, transport.capacities,
            transport.num_links,
        )
        assert np.array_equal(active.rates, np.maximum(expected, 1.0))
        # Completions must update it too: run until one drains.
        horizon = transport.next_completion_time()
        assert horizon is not None
        transport.advance_to(horizon + 1e-6)
        done = transport.pop_completed()
        assert done
        transport.recompute_rates()
        active = transport.active_flows()
        assert active.slots.size == before.size + 1 - len(done)
        expected = maxmin_rates_reference(
            active.paths, active.valid, transport.capacities,
            transport.num_links,
        )
        assert np.array_equal(active.rates, np.maximum(expected, 1.0))

    def test_bottleneck_mode_unchanged(self):
        topo = ClusterTopology(
            ClusterSpec(racks=3, servers_per_rack=3, racks_per_vlan=1)
        )
        transport = FluidTransport(topo, fairness="bottleneck")
        router = Router(topo)
        endpoints = topo.endpoints()
        rng = np.random.default_rng(4)
        for _ in range(20):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            transport.add_flow(int(src), int(dst), 1e7,
                               router.path_links(int(src), int(dst)), _META)
        transport.recompute_rates()
        active = transport.active_flows()
        expected = bottleneck_rates(
            active.paths, active.valid, transport.capacities,
            transport.num_links,
        )
        assert np.array_equal(active.rates, np.maximum(expected, 1.0))
