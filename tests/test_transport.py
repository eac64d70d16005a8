"""Transports: the active-flow contract both families keep, and the
fluid transport's max-min fairness, integration and completion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.simulation.cc.transport import QueuedTransport
from repro.simulation.linkloads import LinkLoadTracker
from repro.simulation.transport import FluidTransport, TransferMeta
from repro.util.units import GBPS


@pytest.fixture()
def topo():
    return ClusterTopology(
        ClusterSpec(racks=2, servers_per_rack=4, racks_per_vlan=2, external_hosts=0,
                    tor_uplink_capacity=2 * GBPS)
    )


@pytest.fixture()
def router(topo):
    return Router(topo)


def make_transport(topo, sinks=None, fairness="maxmin"):
    return FluidTransport(topo, sinks=sinks, fairness=fairness)


META = TransferMeta(kind="fetch")

#: Both transport families, for the cases of the shared active-flow table.
FAMILIES = {
    "fluid": FluidTransport,
    "queued": lambda topo: QueuedTransport(topo, impl="dctcp"),
}
each_family = pytest.mark.parametrize("family", list(FAMILIES))


class TestSingleFlow:
    def test_nic_limited_rate(self, topo, router):
        transport = make_transport(topo)
        transport.add_flow(0, 1, 125e6, router.path_links(0, 1), META)
        transport.recompute_rates()
        assert transport.next_completion_time() == pytest.approx(1.0)

    def test_completion_produces_transfer(self, topo, router):
        transport = make_transport(topo)
        transport.add_flow(0, 1, 125e6, router.path_links(0, 1), META,
                           on_complete=None)
        transport.recompute_rates()
        transport.advance_to(1.0 + 1e-9)
        completed = transport.pop_completed()
        assert len(completed) == 1
        transfer, callback = completed[0]
        assert callback is None
        assert transfer.size == 125e6
        assert transfer.src == 0 and transfer.dst == 1
        assert transfer.end_time == pytest.approx(1.0, rel=1e-6)

    def test_queued_completion_produces_transfer(self, topo, router):
        transport = QueuedTransport(topo, impl="dctcp")
        transport.advance_to(0.25)
        meta = TransferMeta(kind="fetch", job_id=7)
        transport.add_flow(0, 1, 1e5, router.path_links(0, 1), meta)
        assert transport.earliest_active_start() == 0.25
        for _ in range(10_000):
            if not transport.active_count:
                break
            transport.advance_to(transport.next_completion_wakeup())
        ((transfer, callback),) = transport.pop_completed()
        assert callback is None
        assert transfer.transfer_id == 0
        assert (transfer.src, transfer.dst, transfer.size) == (0, 1, 1e5)
        assert transfer.meta == meta
        assert transfer.start_time == 0.25
        assert transfer.end_time == transport.now > 0.25
        assert transport.pop_completed() == []
        assert transport.earliest_active_start() is None

    @each_family
    def test_invalid_flow_rejected(self, family, topo, router):
        transport = FAMILIES[family](topo)
        with pytest.raises(ValueError):
            transport.add_flow(0, 1, 0.0, router.path_links(0, 1), META)
        with pytest.raises(ValueError):
            transport.add_flow(0, 1, 1.0, (), META)
        with pytest.raises(ValueError):
            transport.add_flow(0, 1, 1.0, tuple(range(9)), META)
        assert transport.active_count == 0


class TestFairness:
    def test_two_flows_share_shared_nic(self, topo, router):
        transport = make_transport(topo)
        transport.add_flow(0, 2, 1e9, router.path_links(0, 2), META)
        transport.add_flow(0, 3, 1e9, router.path_links(0, 3), META)
        transport.recompute_rates()
        rates = transport.active_rates()
        assert np.allclose(rates, 62.5e6, rtol=1e-6)

    def test_disjoint_flows_full_rate(self, topo, router):
        transport = make_transport(topo)
        transport.add_flow(0, 1, 1e9, router.path_links(0, 1), META)
        transport.add_flow(2, 3, 1e9, router.path_links(2, 3), META)
        transport.recompute_rates()
        rates = transport.active_rates()
        assert np.allclose(rates, 125e6, rtol=1e-6)

    def test_maxmin_redistributes_leftover(self, topo, router):
        """Three flows into server 1 plus one 0->2 flow: the 0->2 flow
        should pick up the share the bottlenecked flows cannot use."""
        transport = make_transport(topo)
        for src in (2, 3, 4):
            transport.add_flow(src, 1, 1e9, router.path_links(src, 1), META)
        slot = transport.add_flow(0, 5, 1e9, router.path_links(0, 5), META)
        transport.recompute_rates()
        # flows into server 1 share its NIC: ~41.7 MB/s each; flow 0->5
        # is limited only by its own NICs: full 125 MB/s.
        active = transport.active_flows()
        rate = active.rates[active.slots == slot][0]
        assert rate == pytest.approx(125e6, rel=0.05)

    def test_no_link_oversubscribed(self, topo, router):
        rng = np.random.default_rng(5)
        transport = make_transport(topo)
        endpoints = topo.endpoints()
        for _ in range(40):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            transport.add_flow(int(src), int(dst), 1e9,
                               router.path_links(int(src), int(dst)), META)
        transport.recompute_rates()
        utilization = transport.utilization_snapshot()
        assert utilization.max() <= 1.0 + 0.03  # level-grouping tolerance

    def test_every_flow_positive_rate(self, topo, router):
        rng = np.random.default_rng(7)
        transport = make_transport(topo)
        endpoints = topo.endpoints()
        for _ in range(60):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            transport.add_flow(int(src), int(dst), 1e9,
                               router.path_links(int(src), int(dst)), META)
        transport.recompute_rates()
        assert (transport.active_rates() > 0).all()

    def test_bottleneck_mode_never_exceeds_maxmin_total(self, topo, router):
        rng = np.random.default_rng(9)
        flows = []
        endpoints = topo.endpoints()
        for _ in range(30):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            flows.append((int(src), int(dst)))
        totals = {}
        for mode in ("maxmin", "bottleneck"):
            transport = make_transport(topo, fairness=mode)
            for src, dst in flows:
                transport.add_flow(src, dst, 1e9, router.path_links(src, dst), META)
            transport.recompute_rates()
            totals[mode] = transport.active_rates().sum()
        assert totals["bottleneck"] <= totals["maxmin"] * 1.03

    def test_unknown_fairness_rejected(self, topo):
        with pytest.raises(ValueError):
            FluidTransport(topo, fairness="magic")


class TestIntegration:
    def test_bytes_flow_into_sink(self, topo, router):
        tracker = LinkLoadTracker(topo)
        transport = make_transport(topo, sinks=[tracker])
        transport.add_flow(0, 1, 125e6, router.path_links(0, 1), META)
        transport.recompute_rates()
        transport.advance_to(1.0)
        for link_id in router.path_links(0, 1):
            assert tracker.link_totals()[link_id] == pytest.approx(125e6, rel=1e-6)

    @each_family
    def test_advance_backwards_rejected(self, family, topo):
        transport = FAMILIES[family](topo)
        transport.advance_to(5.0)
        with pytest.raises(ValueError):
            transport.advance_to(4.0)

    def test_remaining_decreases(self, topo, router):
        transport = make_transport(topo)
        slot = transport.add_flow(0, 1, 125e6, router.path_links(0, 1), META)
        transport.recompute_rates()
        transport.advance_to(0.5)
        active = transport.active_flows()
        assert active.slots.tolist() == [slot]
        assert active.remaining[0] == pytest.approx(62.5e6, rel=1e-6)

    @each_family
    def test_slot_reuse_after_completion(self, family, topo, router):
        transport = FAMILIES[family](topo)
        slot = transport.add_flow(0, 1, 1e3, router.path_links(0, 1), META)
        transport.recompute_rates()
        transport.advance_to(1.0)
        transport.pop_completed()
        slot2 = transport.add_flow(0, 1, 1e3, router.path_links(0, 1), META)
        assert slot2 == slot

    @each_family
    def test_growth_beyond_initial_capacity(self, family, topo, router):
        """The active set has no preset capacity: it grows flow by flow,
        and slots are handed out in order while none has been freed."""
        transport = FAMILIES[family](topo)
        slots = [
            transport.add_flow(0, 1, 1e9, router.path_links(0, 1), META)
            for _ in range(300)
        ]
        assert slots == list(range(300))
        assert transport.active_count == 300
        assert transport._incidence.slots == slots

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_byte_conservation(self, num_flows, seed):
        """Whatever the flow mix, completed bytes equal injected bytes."""
        topo = ClusterTopology(
            ClusterSpec(racks=2, servers_per_rack=3, racks_per_vlan=2,
                        external_hosts=0)
        )
        router = Router(topo)
        tracker = LinkLoadTracker(topo)
        transport = FluidTransport(topo, sinks=[tracker])
        rng = np.random.default_rng(seed)
        injected = 0.0
        for _ in range(num_flows):
            src, dst = rng.choice(topo.num_servers, size=2, replace=False)
            size = float(rng.uniform(1e4, 1e8))
            injected += size
            transport.add_flow(int(src), int(dst), size,
                               router.path_links(int(src), int(dst)), META)
        transport.recompute_rates()
        # run to completion
        for _ in range(10 * num_flows):
            next_time = transport.next_completion_time()
            if next_time is None:
                break
            transport.advance_to(next_time)
            transport.pop_completed()
            transport.recompute_rates()
        completed_bytes = injected - transport.active_flows().remaining.sum()
        assert completed_bytes == pytest.approx(injected, rel=1e-6)
        assert transport.active_count == 0
        # The link-load sink saw the same bytes the flows carried: every
        # flow crosses exactly one server->ToR first hop, so summing the
        # server-egress links recovers the injected volume.
        egress_links = [
            topo.link_between(s, topo.tor_of_rack(topo.rack_of(s))).link_id
            for s in range(topo.num_servers)
        ]
        assert tracker.link_totals()[egress_links].sum() == pytest.approx(
            injected, rel=1e-6
        )