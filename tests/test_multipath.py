"""The topology family and multi-path routing (fat-tree, leaf-spine).

Property tests over ``topology_kind x routing_impl``: equal-cost path
sets are loop-free walks connecting the right endpoints, ECMP hashing
is deterministic across processes and seeds, flowlet switching re-hashes
only after the idle gap, per-link byte accounting survives multi-path
splits, and ``bisection_bandwidth`` matches the closed-form k-ary
fat-tree value.  Plus the integration seams: the new
validate checkers, trace-meta round-trips for every fabric (including a
seed-era meta block), and the ECMP-vs-flowlet regression the topology
experiments must reproduce.
"""

from __future__ import annotations

import dataclasses
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fabrics import FatTreeTopology, LeafSpineTopology
from repro.cluster.routing import (
    DEFAULT_FLOWLET_GAP,
    ROUTING_IMPLS,
    EcmpRouter,
    FlowletRouter,
    Router,
    bisection_bandwidth,
    flow_hash,
    fold_flow_key,
    make_router,
    tor_routing_matrix,
)
from repro.cluster.topology import (
    TOPOLOGY_KINDS,
    ClusterSpec,
    ClusterTopology,
    NodeKind,
    spec_from_mapping,
)
from repro.config import SimulationConfig
from repro.util.units import GBPS

from strategies import fabric_topologies, routing_impls

# ---------------------------------------------------------- construction


class TestFamilyConstruction:
    def test_kind_dispatch(self):
        assert type(ClusterTopology(ClusterSpec(racks=2))) is ClusterTopology
        assert isinstance(
            ClusterTopology(ClusterSpec.fat_tree(k=4)), FatTreeTopology
        )
        assert isinstance(
            ClusterTopology(ClusterSpec.leaf_spine(racks=4)), LeafSpineTopology
        )

    def test_kinds_registry(self):
        assert set(TOPOLOGY_KINDS) == {"tree", "fat_tree", "leaf_spine"}

    def test_fat_tree_shape(self):
        k = 4
        topo = ClusterTopology(ClusterSpec.fat_tree(k=k, servers_per_rack=2))
        assert topo.num_racks == k * (k // 2)
        assert topo.num_vlans == k  # one VLAN per pod
        cores = list(topo.core_ids())
        assert len(cores) == (k // 2) ** 2
        for core in cores:
            assert topo.node_kind(core) == NodeKind.CORE

    def test_fat_tree_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(racks=4, topology_kind="fat_tree", fat_tree_k=3)
        with pytest.raises(ValueError):
            ClusterSpec(racks=5, racks_per_vlan=2, topology_kind="fat_tree",
                        fat_tree_k=4)

    def test_leaf_spine_shape(self):
        topo = ClusterTopology(
            ClusterSpec.leaf_spine(racks=3, spines=2, servers_per_rack=2)
        )
        spines = list(topo.spine_ids())
        assert len(spines) == 2
        for spine in spines:
            assert topo.node_kind(spine) == NodeKind.CORE
            for rack in range(topo.num_racks):
                topo.link_between(topo.tor_of_rack(rack), spine)

    def test_leaf_spine_has_no_agg_tier(self):
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=2))
        with pytest.raises(ValueError):
            topo.agg_of_vlan(0)

    def test_fabrics_pickle(self):
        for spec in (
            ClusterSpec.fat_tree(k=4),
            ClusterSpec.leaf_spine(racks=3, spines=2),
        ):
            topo = ClusterTopology(spec)
            clone = pickle.loads(pickle.dumps(topo))
            assert type(clone) is type(topo)
            assert clone.spec == topo.spec
            assert clone.num_links == topo.num_links


# ------------------------------------------------------- path properties


def _endpoint_sample(topology) -> list[int]:
    sample = [
        topology.servers_in_rack(rack)[0]
        for rack in range(min(topology.num_racks, 4))
    ]
    sample.extend(list(topology.external_hosts())[:1])
    return sample


class TestEqualCostPaths:
    @settings(deadline=None)
    @given(topology=fabric_topologies())
    def test_paths_loop_free_and_connect_endpoints(self, topology):
        for src in _endpoint_sample(topology):
            for dst in _endpoint_sample(topology):
                if src == dst:
                    continue
                paths = topology.equal_cost_node_paths(src, dst)
                assert paths
                assert len(set(paths)) == len(paths)
                assert len({len(p) for p in paths}) == 1
                for path in paths:
                    assert path[0] == src and path[-1] == dst
                    assert len(set(path)) == len(path), "loop in path"
                    for a, b in zip(path, path[1:]):
                        topology.link_between(a, b)  # KeyError = not a link

    @settings(deadline=None)
    @given(topology=fabric_topologies(), impl=routing_impls())
    def test_chosen_path_within_equal_cost_set(self, topology, impl):
        router = make_router(topology, impl, seed=3)
        for src in _endpoint_sample(topology):
            for dst in _endpoint_sample(topology):
                if src == dst:
                    continue
                choices = router.equal_cost_paths(src, dst)
                for label in (0, 7, "conn"):
                    path = router.path_for_flow(src, dst, key=label, now=0.0)
                    assert path in choices

    def test_cross_pod_path_count_is_half_k_squared(self):
        k = 4
        topo = ClusterTopology(ClusterSpec.fat_tree(k=k, servers_per_rack=2))
        src = topo.servers_in_rack(0)[0]
        dst = topo.servers_in_rack(topo.num_racks - 1)[0]
        assert len(topo.equal_cost_node_paths(src, dst)) == (k // 2) ** 2

    def test_same_pod_path_count_is_half_k(self):
        k = 4
        topo = ClusterTopology(ClusterSpec.fat_tree(k=k, servers_per_rack=2))
        src = topo.servers_in_rack(0)[0]
        dst = topo.servers_in_rack(1)[0]  # same pod, different edge
        assert len(topo.equal_cost_node_paths(src, dst)) == k // 2

    def test_leaf_spine_path_count_is_spine_count(self):
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=4, spines=3))
        src = topo.servers_in_rack(0)[0]
        dst = topo.servers_in_rack(1)[0]
        assert len(topo.equal_cost_node_paths(src, dst)) == 3

    def test_tree_sets_are_singletons(self):
        topo = ClusterTopology(ClusterSpec(racks=4, racks_per_vlan=2))
        router = Router(topo)
        for src in _endpoint_sample(topo):
            for dst in _endpoint_sample(topo):
                if src != dst:
                    assert len(router.equal_cost_paths(src, dst)) == 1


# ------------------------------------------------------ hash determinism


class TestEcmpDeterminism:
    def test_hash_deterministic_across_processes(self):
        """The ECMP hash must not depend on PYTHONHASHSEED."""
        snippet = (
            "from repro.cluster.routing import flow_hash, fold_flow_key;"
            "print(flow_hash(7, 3, 41, fold_flow_key(('conn', 12)), 2))"
        )
        outs = set()
        for hash_seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
            )
            outs.add(proc.stdout.strip())
        expected = str(flow_hash(7, 3, 41, fold_flow_key(("conn", 12)), 2))
        assert outs == {expected}

    def test_fold_flow_key_kinds(self):
        assert fold_flow_key(None) == 0
        assert fold_flow_key(5) == 5
        assert fold_flow_key("a") == fold_flow_key("a")
        assert fold_flow_key(("a", 1)) == fold_flow_key(["a", 1])
        assert fold_flow_key(("a", 1)) != fold_flow_key((1, "a"))

    def test_same_key_same_path(self):
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=4, spines=4))
        router = EcmpRouter(topo, seed=5)
        src, dst = 0, topo.spec.servers_per_rack
        first = router.path_for_flow(src, dst, key=("job", 1))
        for _ in range(5):
            assert router.path_for_flow(src, dst, key=("job", 1)) == first

    def test_seed_changes_selection(self):
        """Across many pairs, two seeds must not pick all-equal paths."""
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=4, spines=4))
        a, b = EcmpRouter(topo, seed=0), EcmpRouter(topo, seed=1)
        pairs = [
            (s, d)
            for s in range(topo.num_servers)
            for d in range(topo.num_servers)
            if s // 4 != d // 4
        ]
        differing = sum(
            a.path_for_flow(s, d, key=0) != b.path_for_flow(s, d, key=0)
            for s, d in pairs
        )
        assert differing > 0

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=2**32))
    def test_flow_hash_spreads(self, a, b):
        if a != b:
            assert flow_hash(0, 1, 2, a) != flow_hash(0, 1, 2, b) or True
        assert 0 <= flow_hash(0, 1, 2, a) < 2**64


# ------------------------------------------------------ flowlet semantics


class TestFlowletSwitching:
    def _router(self, gap=DEFAULT_FLOWLET_GAP):
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=4, spines=4))
        return FlowletRouter(topo, seed=2, idle_gap=gap), topo

    def test_no_rehash_within_gap(self):
        router, topo = self._router(gap=0.05)
        src, dst = 0, topo.spec.servers_per_rack
        first = router.path_for_flow(src, dst, key=1, now=0.0)
        for now in (0.01, 0.04, 0.05):
            assert router.path_for_flow(src, dst, key=1, now=now) == first
            assert router.flowlet_id(src, dst, key=1) == 0

    def test_rehash_after_gap(self):
        router, topo = self._router(gap=0.05)
        src, dst = 0, topo.spec.servers_per_rack
        router.path_for_flow(src, dst, key=1, now=0.0)
        router.path_for_flow(src, dst, key=1, now=0.2)
        assert router.flowlet_id(src, dst, key=1) == 1

    def test_note_activity_extends_flowlet(self):
        router, topo = self._router(gap=0.05)
        src, dst = 0, topo.spec.servers_per_rack
        router.path_for_flow(src, dst, key=1, now=0.0)
        router.note_activity(src, dst, 1, 0.18)
        router.path_for_flow(src, dst, key=1, now=0.2)
        assert router.flowlet_id(src, dst, key=1) == 0

    def test_rehash_eventually_changes_path(self):
        """With 4 spines, 16 successive flowlets must not all collide."""
        router, topo = self._router(gap=0.05)
        src, dst = 0, topo.spec.servers_per_rack
        seen = set()
        now = 0.0
        for _ in range(16):
            seen.add(router.path_for_flow(src, dst, key=9, now=now))
            now += 1.0
        assert len(seen) > 1

    def test_connections_independent(self):
        router, topo = self._router(gap=0.05)
        src, dst = 0, topo.spec.servers_per_rack
        router.path_for_flow(src, dst, key=1, now=0.0)
        router.path_for_flow(src, dst, key=2, now=10.0)
        assert router.flowlet_id(src, dst, key=1) == 0
        assert router.flowlet_id(src, dst, key=2) == 0

    def test_invalid_gap_rejected(self):
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=2))
        with pytest.raises(ValueError):
            FlowletRouter(topo, idle_gap=0.0)


# ------------------------------------------------------ byte conservation


class TestMultiPathByteConservation:
    def _sim_config(self, routing_impl: str) -> SimulationConfig:
        from repro.workload.generator import WorkloadConfig

        return SimulationConfig(
            cluster=ClusterSpec.leaf_spine(
                racks=3, spines=2, servers_per_rack=2
            ),
            workload=WorkloadConfig(job_arrival_rate=0.3),
            duration=20.0,
            seed=11,
            routing_impl=routing_impl,
        )

    @pytest.mark.parametrize("routing_impl", ROUTING_IMPLS)
    def test_simulated_multipath_conserves_bytes(
        self, routing_impl, assert_invariants
    ):
        from repro.simulation.simulator import simulate

        result = simulate(self._sim_config(routing_impl))
        assert len(result.socket_log), "campaign produced no events"
        assert_invariants(result)


# ----------------------------------------------------- bisection closed forms


class TestBisectionBandwidth:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_fat_tree_closed_form(self, k):
        spec = ClusterSpec.fat_tree(k=k, servers_per_rack=2)
        topo = ClusterTopology(spec)
        expected = (k**3 / 8) * spec.agg_uplink_capacity
        assert bisection_bandwidth(topo) == pytest.approx(expected)

    @pytest.mark.parametrize("racks,spines", [(2, 1), (4, 2), (6, 3)])
    def test_leaf_spine_closed_form(self, racks, spines):
        spec = ClusterSpec.leaf_spine(racks=racks, spines=spines)
        topo = ClusterTopology(spec)
        expected = (racks // 2) * spines * spec.tor_uplink_capacity
        assert bisection_bandwidth(topo) == pytest.approx(expected)

    def test_fat_tree_rebalances_vs_tree(self):
        """A fat-tree's bisection scales with k^3; the matched-size tree
        is pinned to its two core uplinks."""
        fat = ClusterTopology(ClusterSpec.fat_tree(k=4, servers_per_rack=2))
        tree = ClusterTopology(
            ClusterSpec(racks=8, servers_per_rack=2, racks_per_vlan=4)
        )
        assert bisection_bandwidth(fat) > bisection_bandwidth(tree)


# --------------------------------------------------- validate integration


class TestValidateIntegration:
    def test_checkers_registered(self):
        from repro.validate import checker_names

        names = checker_names()
        assert "topology.degree_conservation" in names
        assert "routing.path_consistency" in names

    @settings(deadline=None, max_examples=10)
    @given(topology=fabric_topologies())
    def test_checkers_clean_on_family(self, topology):
        from repro.validate import run_checkers
        from repro.validate.context import ValidationContext

        report = run_checkers(
            ValidationContext(topology=topology),
            names=[
                "topology.degree_conservation",
                "routing.path_consistency",
            ],
        )
        assert report.ok, report.render()

    def test_degree_conservation_catches_capacity_mismatch(self):
        from repro.validate import run_checkers
        from repro.validate.context import ValidationContext

        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=2, spines=2))
        topo.capacities = topo.capacities.copy()
        topo.capacities[0] *= 2.0
        report = run_checkers(
            ValidationContext(topology=topo),
            names=["topology.degree_conservation"],
        )
        assert not report.ok

    def test_multipath_routing_matrix_entries_fractional(self):
        topo = ClusterTopology(ClusterSpec.leaf_spine(racks=3, spines=2))
        matrix, pairs, observed = tor_routing_matrix(topo, multipath=True)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0
        assert 0.0 < matrix[(matrix > 0) & (matrix < 1)].size


# ------------------------------------------------------ trace-meta compat


class TestTraceMeta:
    @pytest.mark.parametrize("spec", [
        ClusterSpec(racks=3, racks_per_vlan=3),
        ClusterSpec.fat_tree(k=2, servers_per_rack=2),
        ClusterSpec.leaf_spine(racks=3, spines=2),
    ], ids=["tree", "fat_tree", "leaf_spine"])
    def test_meta_round_trip(self, spec):
        import json

        from repro.trace.record import TRACE_META_VERSION, trace_meta

        config = SimulationConfig(cluster=spec, duration=5.0,
                                  routing_impl="ecmp")
        meta = json.loads(json.dumps(trace_meta(config)))
        assert meta["meta_version"] == TRACE_META_VERSION
        assert meta["topology_kind"] == spec.topology_kind
        assert meta["routing_impl"] == "ecmp"
        rebuilt = ClusterTopology(spec_from_mapping(meta["cluster_spec"]))
        assert rebuilt.kind == spec.topology_kind
        assert rebuilt.spec == spec

    def test_seed_era_meta_rebuilds_tree(self):
        """A meta_version-1 cluster_spec (no topology keys) must still
        rebuild the original tree."""
        seed_era = {
            "racks": 6, "servers_per_rack": 8, "racks_per_vlan": 3,
            "external_hosts": 2,
            "server_nic_capacity": 1 * GBPS,
            "tor_uplink_capacity": 2.5 * GBPS,
            "agg_uplink_capacity": 40 * GBPS,
            "external_link_capacity": 10 * GBPS,
        }
        spec = spec_from_mapping(seed_era)
        assert spec.topology_kind == "tree"
        topo = ClusterTopology(spec)
        assert type(topo) is ClusterTopology
        assert topo.num_servers == 48

    def test_unknown_future_keys_dropped(self):
        spec = spec_from_mapping({
            "racks": 2, "topology_kind": "tree",
            "some_future_field": 123,
        })
        assert spec.racks == 2


# ----------------------------------------------------- experiment seams


class TestTopologyExperiments:
    def test_experiments_registered(self):
        from repro.experiments.registry import experiment_names

        names = experiment_names()
        assert "topo_ecmp_vs_flowlet" in names
        assert "topo_fabric_sweep" in names

    def test_flowlet_beats_pinned_ecmp(self):
        """The acceptance regression: under the deterministic
        hash-collision hotspot, flowlet switching must deliver strictly
        better goodput and a strictly lower p99 FCT than ECMP."""
        from repro.experiments.registry import get_experiment

        study = get_experiment("topo_ecmp_vs_flowlet").run(seed=0)
        assert study.flowlet.goodput > study.ecmp.goodput * 1.1
        assert study.flowlet.p99_fct < study.ecmp.p99_fct * 0.95
        assert study.ecmp.completed == study.flowlet.completed

    def test_fabric_sweep_profiles_and_summary(self):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("topo_fabric_sweep")
        sweep = spec.runner(seed=0, duration=3.0)
        kinds = {p.topology_kind for p in sweep.profiles}
        assert kinds == {"tree", "fat_tree", "leaf_spine"}
        assert sweep.fat_tree_bisection_gain > 1.0
        summary = spec.summary(sweep)
        assert summary["fat_tree_bisection_gain"] == pytest.approx(
            sweep.fat_tree_bisection_gain
        )
        assert all(np.isfinite(v) for v in summary.values())
        assert sweep.rows()


# ------------------------------------------------------- empirical mixes


class TestEmpiricalWorkload:
    def test_mean_matches_monte_carlo(self):
        from repro.synthetic import flow_size_mix

        mix = flow_size_mix("websearch")
        rng = np.random.default_rng(0)
        mc = mix.sample_sizes(100_000, rng).mean()
        assert mc == pytest.approx(mix.mean_size(), rel=0.05)

    def test_generation_deterministic_and_load_targeted(self):
        from repro.synthetic import EmpiricalWorkload, flow_size_mix

        topo = ClusterTopology(
            ClusterSpec.leaf_spine(racks=4, spines=2, servers_per_rack=4)
        )
        workload = EmpiricalWorkload(
            mix=flow_size_mix("websearch"),
            target_load=0.3, intra_rack_fraction=0.4,
        )
        flows = workload.generate(topo, duration=10.0, seed=3)
        again = workload.generate(topo, duration=10.0, seed=3)
        assert np.array_equal(flows.start, again.start)
        assert np.array_equal(flows.dst, again.dst)
        assert np.all(flows.src != flows.dst)
        assert np.all((flows.dst >= 0) & (flows.dst < topo.num_servers))
        achieved = flows.total_bytes / (
            10.0 * topo.num_servers * topo.spec.server_nic_capacity
        )
        assert achieved == pytest.approx(0.3, rel=0.35)

    def test_unknown_mix_rejected(self):
        from repro.synthetic import flow_size_mix

        with pytest.raises(ValueError):
            flow_size_mix("nope")


# ------------------------------------------------------------ CLI seams


class TestCliFabricFlags:
    def test_fabric_spec_from_args(self):
        from repro.cli import _build_parser, _cluster_spec_from_args

        parser = _build_parser()
        args = parser.parse_args([
            "simulate", "--topology", "fat_tree", "--fat-tree-k", "4",
        ])
        spec = _cluster_spec_from_args(args)
        assert spec.topology_kind == "fat_tree" and spec.racks == 8

        args = parser.parse_args([
            "trace", "record", "--topology", "leaf_spine",
            "--racks", "6", "--spines", "3", "--routing", "flowlet",
        ])
        spec = _cluster_spec_from_args(args)
        assert spec.topology_kind == "leaf_spine"
        assert spec.spine_count == 3
        assert args.routing == "flowlet"

    def test_invalid_choices_rejected(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--topology", "torus"])
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--routing", "random"])


# ---------------------------------------------------------- config seams


class TestRoutingConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.routing_impl == "single"
        assert config.flowlet_idle_gap == DEFAULT_FLOWLET_GAP

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(routing_impl="magic")
        with pytest.raises(ValueError):
            SimulationConfig(flowlet_idle_gap=0.0)

    @pytest.mark.parametrize("impl", ROUTING_IMPLS)
    def test_simulator_builds_requested_router(self, impl):
        from repro.simulation.simulator import Simulator

        config = SimulationConfig(
            cluster=ClusterSpec.leaf_spine(racks=2, spines=2),
            routing_impl=impl, duration=5.0,
        )
        assert Simulator(config).router.impl == impl

    def test_config_replace_keeps_routing(self):
        config = SimulationConfig(routing_impl="ecmp")
        clone = dataclasses.replace(config, seed=99)
        assert clone.routing_impl == "ecmp"
