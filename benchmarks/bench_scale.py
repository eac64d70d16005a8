"""Paper-scale benchmarks: allocator event latency and a full campaign.

The IMC'09 cluster has ~1500 servers; these benchmarks pin the cost of
running a *single* simulated campaign at that size.  Three angles:

* Steady-state arrival/departure latency — one flow finishes, one flow
  arrives, rates recompute — at 2k / 8k / 32k concurrent flows on the
  1536-server topology, for the incremental allocator and (at the sizes
  where they are tolerable) the exact allocator and the round-based
  reference loop, which the benchmark substitutes for the exact one.
  This is the allocator's actual unit of work during a run: the event
  loop pays it once per batch.
* Wall-clock and peak RSS for an end-to-end 1536-server campaign under
  the exact allocator (``transport_impl="vectorized"``), with its work
  pinned — the number a user planning a paper-scale reproduction
  actually needs (see EXPERIMENTS.md) — and, separately, the set-up it
  pays once per seed: building the simulator, which places the
  cluster's 49,152 standing blocks.
* The same campaign under the queued ``dctcp`` transport, with its tick
  count, transfers and peak active flows pinned: at this size the
  per-tick arithmetic over 3216 links and ~1.3k active flows, not the
  per-call overhead, sets the cost of a tick.

Each timed call covers ``_EVENTS_PER_ROUND`` churn events, so
``wall_seconds / _EVENTS_PER_ROUND`` is the per-event latency.
"""

import numpy as np
import pytest

from repro.cluster.routing import Router, make_router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.simulation import transport as transport_module
from repro.simulation.transport import FluidTransport, TransferMeta
from repro.simulation.waterfill import maxmin_rates_reference

#: The paper-scale cluster: 64 racks x 24 servers, 8 racks per VLAN —
#: 1536 servers, 3216 links (matches EXPERIMENTS.md scale defaults).
PAPER_SPEC = ClusterSpec(
    racks=64, servers_per_rack=24, racks_per_vlan=8, external_hosts=0
)

#: The same server count on a k=16 fat-tree: 128 edge racks x 12
#: servers.  Longer paths (up to 6 links) and 64-way cross-pod path
#: diversity exercise the allocator's incidence structures harder than
#: the tree's fixed 6-hop worst case.
FAT_TREE_SPEC = ClusterSpec.fat_tree(
    k=16, servers_per_rack=12, external_hosts=0
)

_EVENTS_PER_ROUND = 50


class _ChurnHarness:
    """A loaded transport plus a steady-state churn step.

    Every step retires one random active flow, admits one fresh random
    flow, and recomputes rates — the arrival/departure cycle the event
    engine drives millions of times per campaign.  ``routing`` selects
    the per-flow path policy (ECMP spreads flows across a multi-path
    fabric's equal-cost sets; each flow gets a distinct hash key).
    """

    def __init__(
        self,
        impl: str,
        num_flows: int,
        seed: int = 0,
        spec: ClusterSpec = PAPER_SPEC,
        routing: str = "single",
    ) -> None:
        self.topo = ClusterTopology(spec)
        self.router = make_router(self.topo, routing, seed=seed)
        self.transport = FluidTransport(self.topo, impl=impl)
        self.rng = np.random.default_rng(seed)
        self.meta = TransferMeta(kind="fetch")
        self.endpoints = self.topo.endpoints()
        self._flow_serial = 0
        for _ in range(num_flows):
            self._add_one()
        self.transport.recompute_rates()

    def _add_one(self) -> None:
        src, dst = self.rng.choice(self.endpoints, size=2, replace=False)
        self._flow_serial += 1
        self.transport.add_flow(
            int(src), int(dst), 1e12,
            self.router.path_for_flow(
                int(src), int(dst), key=self._flow_serial
            ),
            self.meta,
        )

    def churn(self, events: int = _EVENTS_PER_ROUND) -> None:
        transport = self.transport
        for _ in range(events):
            slots = transport.active_flows().slots
            slot = int(self.rng.choice(slots))
            # Retire the flow early: a completion without the drain.
            transport._finish(np.flatnonzero(slots == slot))
            self._add_one()
            transport.recompute_rates()


@pytest.mark.parametrize(
    "num_flows", [2000, 8000, 32000], ids=["n2000", "n8000", "n32000"]
)
def test_event_latency_incremental(benchmark, num_flows):
    harness = _ChurnHarness("incremental", num_flows)
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05
    # The incremental path must actually be taken, not fall back to
    # full re-solves every event.
    inc = harness.transport._inc
    assert inc.incremental_solves > inc.full_solves


@pytest.mark.parametrize("num_flows", [2000, 8000], ids=["n2000", "n8000"])
def test_event_latency_vectorized(benchmark, num_flows):
    """The exact allocator: the heap loop over the maintained table at
    2k flows, the batched CSR elimination at 8k."""
    harness = _ChurnHarness("vectorized", num_flows)
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05


@pytest.mark.parametrize("num_flows", [2000, 8000], ids=["n2000", "n8000"])
def test_event_latency_reference(benchmark, monkeypatch, num_flows):
    """From-scratch baseline at the sizes where it finishes in seconds.

    No config selects the round-based reference loop, so the benchmark
    puts it where the fluid transport calls the exact allocator.  At 32k
    flows it costs ~300 ms *per event*; the incremental/reference
    speedup there is documented in EXPERIMENTS.md rather than
    re-measured on every bench run.
    """
    calls = []

    def reference(paths, valid, capacities, num_links, table=None):
        calls.append(paths.shape[0])
        return maxmin_rates_reference(paths, valid, capacities, num_links)

    monkeypatch.setattr(transport_module, "maxmin_rates_vectorized", reference)
    harness = _ChurnHarness("vectorized", num_flows)
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05
    assert calls, "the reference loop never ran"


@pytest.mark.parametrize("num_flows", [2000, 8000], ids=["n2000", "n8000"])
def test_event_latency_fat_tree_ecmp(benchmark, bench_record, num_flows):
    """Incremental-allocator churn on the paper-scale k=16 fat-tree.

    ECMP routing spreads flows over up to 64 equal-cost cross-pod
    paths, so the incidence matrix is denser and less tree-structured
    than the 2-tier baseline — the realistic worst case for the
    incremental solver's frontier updates.
    """
    harness = _ChurnHarness(
        "incremental", num_flows, spec=FAT_TREE_SPEC, routing="ecmp",
    )
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05
    inc = harness.transport._inc
    assert inc.incremental_solves > inc.full_solves
    bench_record(
        f"fat_tree_allocator_n{num_flows}",
        {
            "servers": FAT_TREE_SPEC.racks * FAT_TREE_SPEC.servers_per_rack,
            "fat_tree_k": FAT_TREE_SPEC.fat_tree_k,
            "num_links": int(harness.topo.num_links),
            "flows": num_flows,
            "events_per_round": _EVENTS_PER_ROUND,
            "routing": "ecmp",
        },
    )


def test_event_latency_queued(benchmark, bench_record):
    """Tick-stepping cost of the queued (DCTCP) transport under load.

    A 32-to-1 incast holds every queue busy, so each measured span pays
    the full per-tick path: pacing, queue integration, marking, round
    closes.  The recorded metric is wall time per simulated tick — the
    queued transports' unit of work, as arrival/departure churn is for
    the fluid allocators.
    """
    from repro.simulation.cc import CongestionControlConfig
    from repro.simulation.cc.transport import QueuedTransport

    params = CongestionControlConfig()
    spec = ClusterSpec(racks=2, servers_per_rack=32, racks_per_vlan=2,
                       external_hosts=0)
    topo = ClusterTopology(spec)
    router = Router(topo)
    transport = QueuedTransport(topo, impl="dctcp", params=params)
    victim = 0
    meta = TransferMeta(kind="incast")
    for src in topo.servers_in_rack(1):
        transport.add_flow(
            int(src), victim, 1e12, router.path_links(int(src), victim), meta,
        )

    span = 200 * params.tick
    cursor = {"now": 0.0}

    def advance():
        cursor["now"] += span
        transport.advance_to(cursor["now"])

    benchmark(advance)
    assert int(transport.ticks) > 0
    # The timing entry's wall_seconds divided by ticks_per_round is the
    # per-tick latency; recorded here so `repro telemetry diff` reads a
    # flat timing list while the scale metrics stay self-describing.
    bench_record(
        "queued_transport_tick",
        {
            "flows": 32,
            "ticks_per_round": 200,
            "ticks_total": int(transport.ticks),
        },
    )


def _paper_scale_config(transport_impl: str):
    """The paper-scale campaign: 15 simulated seconds, seed 7."""
    from repro.config import SimulationConfig
    from repro.workload.generator import WorkloadConfig

    return SimulationConfig(
        cluster=PAPER_SPEC,
        workload=WorkloadConfig(job_arrival_rate=4.0),
        duration=15.0,
        seed=7,
        transport_impl=transport_impl,
    )


def test_paper_scale_setup(benchmark, bench_record, report):
    """Building the 1536-server simulator, before any event runs.

    Almost all of it is placing the cluster's standing blocks: with the
    default 8 GB per server in 256 MB blocks, 32 blocks per server.
    ``store_bytes`` records the block store's row arrays.
    """
    from repro.simulation.simulator import Simulator

    config = _paper_scale_config("vectorized")
    simulator = benchmark.pedantic(Simulator, args=(config,), rounds=3)
    store = simulator.executor.blockstore
    blocks = store.num_blocks
    assert blocks == 49152
    bench_record(
        "paper_scale_setup",
        {
            "servers": PAPER_SPEC.racks * PAPER_SPEC.servers_per_rack,
            "blocks_placed": blocks,
            "store_bytes": store.nbytes,
        },
    )
    report(
        f"paper-scale set-up (1536 servers): {blocks} standing blocks placed, "
        f"{store.nbytes / 2**20:.2f} MiB of block rows"
    )


#: Work of the paper-scale campaign on the exact allocator (15 simulated
#: seconds, seed 7).  The exact allocator is bit-reproducible, so a
#: change that moves these counts changed what the campaign does, not
#: how fast.
PAPER_SCALE_WORK = {
    "transfers_completed": 13047,
    "events_processed": 14174,
    "rate_recomputes": 1237,
    "peak_active_flows": 1281,
}


def test_paper_scale_campaign(benchmark, bench_record, report):
    """End-to-end 1536-server campaign: wall-clock plus peak RSS."""
    from repro.simulation.simulator import Simulator
    from repro.telemetry.resources import read_rss_bytes

    config = _paper_scale_config("vectorized")

    def campaign():
        simulator = Simulator(config)
        return simulator, simulator.run()

    simulator, result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    stats = result.stats
    work = {
        "transfers_completed": int(stats["transfers_completed"]),
        "events_processed": int(stats["events_processed"]),
        "rate_recomputes": int(stats["rate_recomputes"]),
        "peak_active_flows": int(simulator.transport.peak_active),
    }
    assert work == PAPER_SCALE_WORK

    peak_rss = read_rss_bytes()
    bench_record(
        "paper_scale_campaign",
        {
            "servers": PAPER_SPEC.racks * PAPER_SPEC.servers_per_rack,
            "duration_simulated_seconds": config.duration,
            "peak_rss_bytes": peak_rss,
            **work,
        },
    )
    rss_mb = peak_rss / 1e6 if peak_rss else float("nan")
    report(
        "paper-scale campaign (1536 servers, exact allocator): "
        f"{config.duration:.0f}s simulated, peak RSS {rss_mb:.0f} MB, "
        f"{work['transfers_completed']} transfers completed"
    )


#: Work of the paper-scale DCTCP campaign (15 simulated seconds, seed 7).
#: The campaign consumes no wall-clock input, so a change that moves
#: these counts changed what the campaign does, not how fast.
PAPER_SCALE_DCTCP_WORK = {
    "cc_ticks": 34209,
    "transfers_completed": 12358,
    "peak_active_flows": 1267,
}


def test_paper_scale_dctcp_campaign(benchmark, bench_record, report):
    """The 1536-server campaign under the queued DCTCP transport."""
    from repro.simulation.simulator import Simulator

    config = _paper_scale_config("dctcp")
    simulator = Simulator(config)
    result = benchmark.pedantic(simulator.run, rounds=1, iterations=1)
    work = {
        "cc_ticks": int(result.cc.ticks),
        "transfers_completed": int(result.stats["transfers_completed"]),
        "peak_active_flows": int(simulator.transport.peak_active),
    }
    assert work == PAPER_SCALE_DCTCP_WORK
    bench_record(
        "paper_scale_dctcp_campaign",
        {
            "servers": PAPER_SPEC.racks * PAPER_SPEC.servers_per_rack,
            "num_links": int(simulator.topology.num_links),
            "duration_simulated_seconds": config.duration,
            **work,
        },
    )
    report(
        "paper-scale campaign (1536 servers, dctcp): "
        f"{config.duration:.0f}s simulated, {work['cc_ticks']} ticks, "
        f"{work['transfers_completed']} transfers, peak "
        f"{work['peak_active_flows']} active flows"
    )
