"""Differential fuzzing: in-memory vs streaming vs trace-backed.

Seeded random small configs drive all three derivation paths over the
same campaign and assert exact agreement, plus a full invariant sweep on
each. Marked ``slow``: run by CI's trace-smoke job and locally via
``pytest -m slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.config import SimulationConfig
from repro.core.flows import reconstruct_flows
from repro.core.traffic_matrix import tm_series_from_events
from repro.experiments.common import dataset_from_trace
from repro.simulation.simulator import simulate
from repro.trace.analyze import _flow_tables_equal, analyze_trace
from repro.trace.record import record_trace
from repro.workload.generator import WorkloadConfig

pytestmark = pytest.mark.slow

#: Fixed fuzz seed: CI failures must reproduce locally byte for byte.
_FUZZ_SEED = 20260806


def _random_configs(count: int) -> list[SimulationConfig]:
    rng = np.random.default_rng(_FUZZ_SEED)
    configs = []
    for _ in range(count):
        configs.append(SimulationConfig(
            cluster=ClusterSpec(
                racks=int(rng.integers(2, 5)),
                servers_per_rack=int(rng.integers(2, 5)),
                racks_per_vlan=int(rng.integers(1, 3)),
                external_hosts=int(rng.integers(0, 3)),
            ),
            workload=WorkloadConfig(
                job_arrival_rate=float(rng.uniform(0.1, 0.4))
            ),
            duration=float(rng.uniform(10.0, 25.0)),
            seed=int(rng.integers(0, 2**31)),
        ))
    return configs


@pytest.mark.parametrize("index,config", list(enumerate(_random_configs(3))))
def test_three_paths_agree(index, config, tmp_path, assert_invariants):
    trace_path = tmp_path / f"fuzz-{index}.reprotrace"
    record = record_trace(config, trace_path, chunk_size=512)

    # Path 1: classic in-memory pipeline.
    result = simulate(config)
    flows_mem = reconstruct_flows(result.socket_log)
    tm_mem = tm_series_from_events(
        result.socket_log, result.topology, 10.0, config.duration
    )

    # Recording must not perturb the simulation.
    assert record.result.stats["socket_events_streamed"] == len(
        result.socket_log
    )

    # Path 2: streaming analysis over the recorded trace.
    analysis = analyze_trace(trace_path, window=10.0)
    assert _flow_tables_equal(analysis.flows, flows_mem)
    assert np.array_equal(analysis.tm.matrices, tm_mem.matrices)

    # Path 3: trace-backed dataset.
    dataset = dataset_from_trace(trace_path)
    assert _flow_tables_equal(dataset.flows, flows_mem)
    assert np.array_equal(dataset.tm10.matrices, tm_mem.matrices)
    assert np.array_equal(
        dataset.utilization, result.link_loads.utilization_matrix()
    )

    # And every invariant checker passes on both live and trace contexts.
    assert_invariants(result)
    assert_invariants(str(trace_path))


# ------------------------------------------------- topology dimension


def _chunk_hashes(manifest: dict) -> list[str]:
    return [chunk["sha256"] for chunk in manifest["chunks"]]


_TREE_CONFIG = SimulationConfig(
    cluster=ClusterSpec(racks=3, servers_per_rack=3, racks_per_vlan=2),
    workload=WorkloadConfig(job_arrival_rate=0.3),
    duration=15.0,
    seed=_FUZZ_SEED % 1000,
)

#: The two fluid ``transport_impl`` values and the exact allocator's two
#: oracles, which run under ``force_allocator``.
_FLUID_IMPLS = ("vectorized", "reference", "csr", "incremental")


@pytest.mark.parametrize("transport_impl", _FLUID_IMPLS)
def test_tree_bit_identical_across_routing(
    transport_impl, tmp_path, force_allocator
):
    """On the tree every equal-cost set is a singleton, so ECMP and
    flowlet routing degenerate to the canonical path: per transport
    impl, every routing impl must produce byte-identical event streams
    (chunk content hashes) and link-load sidecars.  (Impls are compared
    within themselves, not to each other — completion ordering between
    the incremental and batch allocators differs by design, and did at
    the seed revision too.)  ``reference`` and ``csr`` are the exact
    allocator's oracles, forced by the ``force_allocator`` fixture."""
    import dataclasses

    baseline = None
    for routing_impl in ("single", "ecmp", "flowlet"):
        with force_allocator(transport_impl) as impl:
            config = dataclasses.replace(
                _TREE_CONFIG, transport_impl=impl, routing_impl=routing_impl
            )
            record = record_trace(
                config,
                tmp_path / f"tree-{transport_impl}-{routing_impl}.reprotrace",
                chunk_size=512,
            )
        hashes = _chunk_hashes(record.manifest)
        loads_hash = record.manifest["linkloads"]["sha256"]
        assert hashes, "campaign produced no events"
        if baseline is None:
            baseline = (hashes, loads_hash)
        else:
            assert (hashes, loads_hash) == baseline, (
                f"{transport_impl}/{routing_impl} diverged from "
                f"{transport_impl}/single on the tree"
            )


def _fabric_configs() -> list[SimulationConfig]:
    seed = _FUZZ_SEED % 997
    workload = WorkloadConfig(job_arrival_rate=0.3)
    return [
        SimulationConfig(
            cluster=ClusterSpec.fat_tree(k=2, servers_per_rack=3),
            workload=workload, duration=15.0, seed=seed,
            routing_impl="ecmp",
        ),
        SimulationConfig(
            cluster=ClusterSpec.leaf_spine(racks=3, spines=2,
                                           servers_per_rack=3),
            workload=workload, duration=15.0, seed=seed,
            routing_impl="flowlet",
        ),
    ]


@pytest.mark.parametrize(
    "config", _fabric_configs(),
    ids=lambda c: f"{c.cluster.topology_kind}-{c.routing_impl}",
)
def test_fabric_three_paths_agree(config, tmp_path, assert_invariants):
    """The in-memory / streaming / trace-backed agreement holds on the
    multi-path fabrics too, including trace-meta topology rehydration."""
    trace_path = tmp_path / f"{config.cluster.topology_kind}.reprotrace"
    record = record_trace(config, trace_path, chunk_size=512)

    result = simulate(config)
    flows_mem = reconstruct_flows(result.socket_log)
    assert record.result.stats["socket_events_streamed"] == len(
        result.socket_log
    )

    analysis = analyze_trace(trace_path, window=10.0)
    assert _flow_tables_equal(analysis.flows, flows_mem)

    dataset = dataset_from_trace(trace_path)
    assert dataset.result.topology.kind == config.cluster.topology_kind
    assert _flow_tables_equal(dataset.flows, flows_mem)
    assert np.array_equal(
        dataset.utilization, result.link_loads.utilization_matrix()
    )

    assert_invariants(result)
    assert_invariants(str(trace_path))
