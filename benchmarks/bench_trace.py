"""Trace-store benchmarks: streaming vs in-memory analysis.

Standalone (not pytest-benchmark): run ``PYTHONPATH=src python
benchmarks/bench_trace.py`` and it writes ``benchmarks/BENCH_trace.json``
through :func:`repro.bench.results.write_results` — the schema every
BENCH file shares, so ``repro telemetry diff`` compares two runs — with

* one ``benchmarks`` timing entry per wall-clock measurement:
  ``benchmarks/bench_trace.py::inmemory`` (the traditional pipeline:
  load the full trace, then TM + flows + congestion),
  ``::streaming[<chunk>]`` (one pass of
  :func:`repro.trace.analyze.analyze_trace`) and ``::record[<chunk>]``
  (recording the trace) for each chunk size;
* peak traced allocations for the in-memory pipeline vs the streaming
  pass;
* a chunk-size sweep plus a trace-size scaling pair showing the
  streaming pass's peak memory follows the *chunk* size, not the trace
  size — the property that lets the same code chew through a
  month-long campaign;
* a built-in exactness check (streamed == in-memory, exact equality)
  so the speed numbers can't silently come from a wrong answer.

Peak memory is ``tracemalloc``'s traced peak (numpy registers its
allocations), sampled per measurement so runs don't contaminate each
other.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import tempfile
import time
import tracemalloc

from repro.bench.results import BenchResult, write_results
from repro.cluster.topology import ClusterSpec
from repro.config import SimulationConfig, WorkloadConfig
from repro.instrumentation.collector import CollectorConfig
from repro.core.congestion import congestion_summary
from repro.core.flows import reconstruct_flows
from repro.core.traffic_matrix import tm_series_from_events
from repro.trace import TraceReader, analyze_trace, check_against_inmemory, record_trace
from repro.trace.analyze import DEFAULT_TM_WINDOW, _duration_from, _topology_from_meta

CHUNK_SIZES = [1024, 8192, 65536]
SCALING_CHUNK_SIZE = 8192
SCALING_EVENT_CAPS = (16, 64)
BENCH_ID = "benchmarks/bench_trace.py::{}"


def bench_config() -> SimulationConfig:
    """Big enough that chunking matters, small enough to run in seconds.

    The collector is tuned dense (small write size, high event cap) so
    events-per-flow lands in the regime the streaming layer exists for:
    raw event volume dwarfing the per-flow state, as in the paper's
    multi-week socket logs.
    """
    return SimulationConfig(
        cluster=ClusterSpec(racks=4, servers_per_rack=8, racks_per_vlan=2,
                            external_hosts=2),
        workload=WorkloadConfig(job_arrival_rate=0.4, day_load_factors=(1.0,),
                                day_length=120.0),
        collector=CollectorConfig(chunk_bytes=1e6, max_events_per_transfer=64),
        duration=120.0,
        seed=42,
    )


def _measured(fn):
    """(wall seconds, tracemalloc peak bytes, result) for one call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return wall, peak, result


def bench_inmemory(path) -> tuple[float, dict]:
    """(wall seconds, summary) of the load-everything pipeline."""

    def run():
        reader = TraceReader(path)
        log = reader.read_all()
        topology = _topology_from_meta(reader.meta)
        tm = tm_series_from_events(log, topology, DEFAULT_TM_WINDOW,
                                   _duration_from(reader))
        flows = reconstruct_flows(log)
        loads = reader.linkloads()
        observed = loads.utilization_matrix()[loads.observed_links]
        summary = congestion_summary(observed, bin_width=loads.bin_width)
        return len(flows), float(tm.matrices.sum()), len(summary.episodes)

    wall, peak, headline = _measured(run)
    return wall, {"peak_traced_bytes": peak, "num_flows": headline[0]}


def bench_streaming(path) -> tuple[float, dict]:
    """(wall seconds, summary) of one streaming pass."""
    wall, peak, analysis = _measured(lambda: analyze_trace(path))
    return wall, {"peak_traced_bytes": peak, "num_flows": len(analysis.flows)}


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-trace-"))
    config = bench_config()
    walls: dict[str, float] = {}
    try:
        sweep = []
        for chunk_size in CHUNK_SIZES:
            path = workdir / f"chunk-{chunk_size}.reprotrace"
            start = time.perf_counter()
            record_trace(config, path, chunk_size=chunk_size)
            walls[f"record[{chunk_size}]"] = time.perf_counter() - start
            reader = TraceReader(path)
            walls[f"streaming[{chunk_size}]"], streaming = bench_streaming(path)
            sweep.append({
                "chunk_size": chunk_size,
                "chunks": reader.num_chunks,
                "rows": reader.total_rows,
                "bytes_on_disk": reader.bytes_on_disk(),
                "streaming": streaming,
            })

        # One exactness gate + the in-memory baseline, on the finest-chunked
        # trace (where streaming differs from loading the most).
        baseline_path = workdir / f"chunk-{CHUNK_SIZES[0]}.reprotrace"
        checks = check_against_inmemory(baseline_path)
        assert checks["all_equal"], checks
        walls["inmemory"], inmemory = bench_inmemory(baseline_path)

        # Scale the trace, hold the chunk size AND the flow population:
        # the same workload logged at higher event density (bigger
        # ``max_events_per_transfer``) yields a several-times-larger
        # trace over identical flows.  The in-memory peak must track the
        # trace; the streaming peak is chunk + live-flow state and barely
        # moves.
        scaling = []
        for cap in SCALING_EVENT_CAPS:
            dense = dataclasses.replace(
                config,
                collector=CollectorConfig(
                    chunk_bytes=0.25e6, max_events_per_transfer=cap
                ),
            )
            path = workdir / f"scale-{cap}.reprotrace"
            record_trace(dense, path, chunk_size=SCALING_CHUNK_SIZE)
            scaling.append({
                "max_events_per_transfer": cap,
                "rows": TraceReader(path).total_rows,
                "inmemory_peak_bytes": bench_inmemory(path)[1]["peak_traced_bytes"],
                "streaming_peak_bytes": bench_streaming(path)[1]["peak_traced_bytes"],
            })
        trace_growth = scaling[1]["rows"] / scaling[0]["rows"]
        inmemory_growth = (
            scaling[1]["inmemory_peak_bytes"] / scaling[0]["inmemory_peak_bytes"]
        )
        streaming_growth = (
            scaling[1]["streaming_peak_bytes"] / scaling[0]["streaming_peak_bytes"]
        )

        extra = {
            "config": {
                "racks": config.cluster.racks,
                "servers_per_rack": config.cluster.servers_per_rack,
                "duration": config.duration,
                "seed": config.seed,
            },
            "inmemory": inmemory,
            "chunk_size_sweep": sweep,
            "trace_size_scaling": scaling,
            "streamed_equals_inmemory": checks["all_equal"],
            # The headline property: every streaming pass peaks below
            # the load-everything baseline, and doubling the trace grows
            # the in-memory peak far faster than the streaming peak —
            # memory follows the chunk, not the trace.
            "streaming_peak_vs_inmemory": round(
                min(e["streaming"]["peak_traced_bytes"] for e in sweep)
                / inmemory["peak_traced_bytes"], 3
            ),
            "trace_rows_growth": round(trace_growth, 2),
            "inmemory_peak_growth": round(inmemory_growth, 2),
            "streaming_peak_growth": round(streaming_growth, 2),
            "streaming_peak_bounded_by_chunk": streaming_growth < inmemory_growth,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = pathlib.Path(__file__).parent / "BENCH_trace.json"
    results = [
        BenchResult(id=BENCH_ID.format(name), wall_seconds=wall)
        for name, wall in walls.items()
    ]
    payload = write_results(out, results, extra=extra)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
