"""Queue-aware congestion-control transports (repro.simulation.cc)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.config import SimulationConfig
from repro.simulation.cc import (
    CC_VARIANTS,
    CongestionControlConfig,
    LinkQueues,
    run_incast,
)
from repro.simulation.cc.transport import QueuedTransport
from repro.simulation.cc.cwnd import (
    dctcp_cut,
    dctcp_update_alpha,
    grow,
    halve,
    timeout_collapse,
)
from repro.simulation.transport import TRANSPORT_IMPLS, TransferMeta
from repro.validate import ValidationContext
from strategies import cc_configs


class TestCwnd:
    def test_dctcp_alpha_ewma(self):
        alpha = np.array([0.0, 1.0])
        updated = dctcp_update_alpha(alpha, np.array([1.0, 0.0]), gain=0.25)
        assert updated == pytest.approx([0.25, 0.75])

    def test_dctcp_alpha_decays_without_marks(self):
        alpha = np.array([0.8])
        for _ in range(50):
            alpha = dctcp_update_alpha(alpha, np.array([0.0]), gain=0.0625)
        assert alpha[0] < 0.05

    def test_dctcp_cut_proportional_vs_reno_halving(self):
        cwnd = np.array([32.0])
        gentle = dctcp_cut(cwnd, np.array([0.1]), min_cwnd=1.0)
        harsh = dctcp_cut(cwnd, np.array([1.0]), min_cwnd=1.0)
        halved, ssthresh = halve(cwnd, min_cwnd=1.0)
        assert gentle[0] == pytest.approx(32.0 * 0.95)
        # With alpha = 1 DCTCP's cut equals Reno's halving.
        assert harsh[0] == pytest.approx(halved[0]) == pytest.approx(16.0)
        assert ssthresh[0] == pytest.approx(16.0)

    def test_slow_start_doubles_then_exits_at_ssthresh(self):
        cwnd = np.array([2.0])
        ssthresh = np.array([12.0])
        seen = []
        for _ in range(4):
            cwnd = grow(cwnd, ssthresh, max_cwnd=1024.0)
            seen.append(float(cwnd[0]))
        # 2 -> 4 -> 8 -> clipped at 12 -> additive from there on.
        assert seen == pytest.approx([4.0, 8.0, 12.0, 13.0])

    def test_grow_respects_max_cwnd(self):
        cwnd = np.array([1000.0])
        grown = grow(cwnd, np.array([2048.0]), max_cwnd=1024.0)
        assert grown[0] == pytest.approx(1024.0)

    def test_timeout_collapse_restarts_slow_start(self):
        cwnd = np.array([64.0])
        collapsed, ssthresh = timeout_collapse(cwnd, min_cwnd=1.0)
        assert collapsed[0] == pytest.approx(1.0)
        assert ssthresh[0] == pytest.approx(32.0)
        # The floor of 2 * min_cwnd keeps a tiny window in slow start.
        _, floor = timeout_collapse(np.array([1.0]), min_cwnd=1.0)
        assert floor[0] == pytest.approx(2.0)


class TestLinkQueues:
    def _queues(self, **overrides) -> LinkQueues:
        params = CongestionControlConfig(**overrides)
        return LinkQueues(1, np.array([1500.0]), params)

    def test_marks_at_exactly_threshold(self):
        queues = self._queues(queue_capacity_packets=10,
                              ecn_threshold_packets=2)
        serviced_capacity = 1500.0  # capacity * dt at dt = 1
        arrivals = np.array([serviced_capacity + queues.threshold_bytes])
        _, drop_frac, mark_frac = queues.step(arrivals, dt=1.0)
        # Post-service backlog sits at exactly K -> the arrival is marked.
        assert queues.backlog_bytes[0] == pytest.approx(queues.threshold_bytes)
        assert mark_frac[0] == 1.0
        assert drop_frac[0] == 0.0

    def test_no_mark_below_threshold(self):
        queues = self._queues(queue_capacity_packets=10,
                              ecn_threshold_packets=2)
        arrivals = np.array([1500.0 + queues.threshold_bytes - 1.0])
        _, _, mark_frac = queues.step(arrivals, dt=1.0)
        assert queues.backlog_bytes[0] == pytest.approx(
            queues.threshold_bytes - 1.0
        )
        assert mark_frac[0] == 0.0

    def test_tail_drop_beyond_capacity(self):
        queues = self._queues(queue_capacity_packets=4,
                              ecn_threshold_packets=2)
        arrivals = np.array([1500.0 + queues.capacity_bytes + 3000.0])
        _, drop_frac, _ = queues.step(arrivals, dt=1.0)
        assert queues.backlog_bytes[0] == pytest.approx(queues.capacity_bytes)
        assert queues.dropped_bytes[0] == pytest.approx(3000.0)
        assert drop_frac[0] == pytest.approx(
            3000.0 / float(arrivals[0])
        )

    @given(params=cc_configs(), data=st.data())
    def test_queue_conservation_property(self, params, data):
        """enqueued == dequeued + resident at every step, under arbitrary
        arrival sequences over arbitrary valid parameter sets (drops are
        excluded from the enqueued ledger by construction)."""
        num_links = data.draw(st.integers(min_value=1, max_value=4))
        capacities = np.array(data.draw(st.lists(
            st.floats(min_value=1e3, max_value=1e9),
            min_size=num_links, max_size=num_links,
        )))
        queues = LinkQueues(num_links, capacities, params)
        steps = data.draw(st.integers(min_value=1, max_value=30))
        for _ in range(steps):
            arrivals = np.array(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=5e6),
                min_size=num_links, max_size=num_links,
            )))
            queues.step(arrivals, params.tick)
            assert np.all(queues.backlog_bytes >= 0.0)
            assert np.all(
                queues.backlog_bytes <= queues.capacity_bytes + 1e-6
            )
            residual = queues.conservation_residual()
            scale = np.maximum(queues.enqueued_bytes, 1.0)
            assert np.all(np.abs(residual) <= 1e-9 * scale + 1e-6)


class TestPacingRates:
    """``active_rates`` and ``utilization_snapshot`` report the pacing
    the next tick actually applies, even while queues add delay."""

    def test_reported_rates_are_the_paced_rates_under_queueing(self):
        params = CongestionControlConfig()
        topology = ClusterTopology(ClusterSpec(
            racks=2, servers_per_rack=16, racks_per_vlan=2, external_hosts=0,
        ))
        router = Router(topology)
        transport = QueuedTransport(topology, impl="dctcp", params=params)
        victim = 0
        uplinks = []
        for src in topology.servers_in_rack(1):
            path = router.path_links(int(src), victim)
            uplinks.append(path[0])
            transport.add_flow(
                int(src), victim, 256_000.0, path, TransferMeta(kind="incast"),
            )
        # 13 ticks into the 16-to-1 burst the victim's downlink holds a
        # backlog, so the live RTT exceeds the base RTT.
        transport.advance_to(13 * params.tick)
        assert transport.queues.backlog_bytes.max() > 30_000.0
        rates = transport.active_rates()
        utilization = transport.utilization_snapshot()
        before = transport.queues.enqueued_bytes[uplinks].copy()
        transport.advance_to(14 * params.tick)
        # Each sender's access uplink carries only its own flow and never
        # drops, so its enqueued bytes over the tick are the paced bytes.
        paced = (transport.queues.enqueued_bytes[uplinks] - before) / params.tick
        assert rates == pytest.approx(paced, rel=1e-9)
        assert utilization[uplinks] * transport.capacities[uplinks] == (
            pytest.approx(paced, rel=1e-9)
        )


class TestTickReductionOrder:
    """The compact tick's per-path reductions reproduce NumPy's order
    over the 8-wide, sentinel-padded path row bit for bit: the pairwise
    sum of ``sum(axis=1)`` for queueing delays and the sequential
    product of ``prod(axis=1)`` for survival factors."""

    @pytest.mark.parametrize("seed", range(20))
    def test_path_sums_and_products_match_row_reductions(self, seed):
        rng = np.random.default_rng(seed)
        topology = ClusterTopology(ClusterSpec(
            racks=4, servers_per_rack=4, racks_per_vlan=2, external_hosts=0,
        ))
        transport = QueuedTransport(topology)
        links = topology.num_links
        for _ in range(int(rng.integers(1, 60))):
            hops = int(rng.integers(1, transport.max_path + 1))
            path = tuple(int(link) for link in rng.integers(0, links, hops))
            transport.add_flow(0, 1, 1e6, path, TransferMeta(kind="probe"))
        # Delays spanning many magnitudes, some links idle, so the order
        # of the additions shows in the last bits.
        delay = rng.random(links) * 10.0 ** rng.integers(-9, 0, links)
        delay[rng.random(links) < 0.3] = 0.0
        keep = 1.0 - rng.random((2, links)) * rng.choice([0.0, 1e-3, 0.5], (2, links))
        transport._delay[:-1] = delay
        transport._keep[:links] = keep[0]
        transport._keep[links + 1 : -1] = keep[1]

        padded = transport._links
        real = padded < links
        rows = np.where(real, np.append(delay, 0.0)[padded], 0.0)
        expected_rtt = transport.params.base_rtt + rows.sum(axis=1)
        assert np.array_equal(transport._path_rtts(), expected_rtt)
        factors = transport._keep[transport._keep_index].prod(axis=1)
        for half in range(2):
            expected = np.where(
                real, np.append(keep[half], 1.0)[padded], 1.0
            ).prod(axis=1)
            assert np.array_equal(factors[half], expected)


def _family(impl: str) -> str:
    """The family a config context running ``impl`` reads as."""
    config = SimulationConfig(transport_impl=impl)
    return ValidationContext(config=config).transport_family


class TestRegistry:
    """The ``transport_impl`` contract: the five names the config
    accepts, and the family each one reads as."""

    def test_all_variants_registered_as_queued(self):
        for variant in CC_VARIANTS:
            assert _family(variant) == "queued"

    def test_fluid_impls_still_fluid(self):
        assert TRANSPORT_IMPLS == ("vectorized", "incremental")
        for impl in TRANSPORT_IMPLS:
            assert _family(impl) == "fluid"

    def test_unknown_impl_rejected_with_catalogue(self):
        # The exact allocator's oracles are test fixtures, not configs.
        for name in ("reference", "csr", "bogus"):
            with pytest.raises(ValueError, match="transport impl") as info:
                SimulationConfig(transport_impl=name)
            for accepted in TRANSPORT_IMPLS + CC_VARIANTS:
                assert repr(accepted) in str(info.value)

    def test_config_accepts_queued_impl(self):
        config = SimulationConfig(transport_impl="dctcp")
        assert config.cc.ecn_threshold_packets == 30

    def test_config_rejects_unknown_impl(self):
        with pytest.raises(ValueError, match="transport impl"):
            SimulationConfig(transport_impl="warp-speed")

    def test_cc_params_validated(self):
        with pytest.raises(ValueError):
            CongestionControlConfig(tick=0.0)
        with pytest.raises(ValueError):
            CongestionControlConfig(ecn_threshold_packets=0)
        with pytest.raises(ValueError):
            CongestionControlConfig(timeout_loss_fraction=1.5)


class TestIncastRegression:
    """Deterministic pins of the collapse physics.

    The scenario consumes no randomness, so these values are exact
    reruns; the asserted bands are wide enough to survive benign
    parameter-tuning drift but not a broken mechanism.
    """

    def test_reno_onset_between_4_and_8_senders(self):
        mild = run_incast("reno", 4)
        collapsed = run_incast("reno", 8)
        assert mild.timeouts == 0
        assert mild.goodput_ratio > 0.5
        assert collapsed.timeouts > 0
        assert collapsed.goodput_ratio < 0.3

    def test_dctcp_resists_collapse_at_8(self):
        run = run_incast("dctcp", 8)
        assert run.timeouts == 0
        assert run.goodput_ratio > 0.6

    def test_ecn_taildrop_between(self):
        run = run_incast("ecn_taildrop", 8)
        assert run.timeouts == 0
        assert run.goodput_ratio > 0.4

    def test_dctcp_beats_reno_under_collapse(self):
        dctcp = run_incast("dctcp", 16)
        reno = run_incast("reno", 16)
        assert dctcp.goodput_ratio > reno.goodput_ratio + 0.3

    def test_all_flows_complete(self):
        for variant in CC_VARIANTS:
            run = run_incast(variant, 8)
            assert run.completed == 8

    def test_ecn_threshold_tradeoff(self):
        low = run_incast("dctcp", 2, bytes_per_sender=8_000_000.0,
                         cc=replace(CongestionControlConfig(),
                                    ecn_threshold_packets=10))
        high = run_incast("dctcp", 2, bytes_per_sender=8_000_000.0,
                          cc=replace(CongestionControlConfig(),
                                     ecn_threshold_packets=60))
        # Low K: shorter queues, some throughput given up; high K the
        # reverse — the fixed-threshold trade-off.
        assert low.mean_queue_delay < high.mean_queue_delay
        assert low.goodput_ratio < high.goodput_ratio
