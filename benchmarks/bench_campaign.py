"""Campaign-level benchmarks: dataset cache, warm work-queue pool, resume.

Standalone (not pytest-benchmark): run ``PYTHONPATH=src python
benchmarks/bench_campaign.py`` and it writes
``benchmarks/BENCH_campaign.json`` through
:func:`repro.bench.results.write_results` — the schema every BENCH file
shares, so ``repro telemetry diff`` compares two runs.  Each wall-clock
measurement is one ``benchmarks`` timing entry
(``benchmarks/bench_campaign.py::cold_build``, ``::warm_disk_load``,
``::serial``, ``::warm_pool``, ``::warm_resume``); the rest rides along
as extra keys:

* cold vs warm-disk dataset build time for the small config — the
  speedup a second process gets from ``.repro-cache``;
* serial (``jobs=1``: the work queue run in-process) vs warm
  work-queue pool (``jobs=2``) wall time for a 4-seed campaign over
  fig02+fig09, with per-seed content hashes so the run doubles as a
  determinism check, plus each run's merged-timeline **phase
  breakdown** (spawn / import / claim / wait / dataset-load / compute /
  merge seconds and lane coverage) — the cross-process telemetry makes
  the campaign explain its own wall-clock;
* a resumed re-run of the warm campaign (``resume=True`` against the
  same queue) — every seed loads from the published results, so this
  is the floor for "picking up where an interrupted campaign stopped".

Interpretation keys recorded alongside: ``host.cpu_count`` (on a
single-core host the parallel pool cannot beat serial; the build gate
serialises simulations so the *summed* ``dataset-load`` stays within
1.2x of serial — the honest comparison there), and
``dataset_load_ratio`` itself.  ``parallel_speedup > 1.0`` is asserted
only on multi-core hosts.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time

from repro.bench.results import BenchResult, write_results
from repro.experiments import run_campaign, small_config
from repro.experiments.common import build_dataset, clear_dataset_cache
from repro.telemetry import Telemetry

SEEDS = 4
JOBS_PARALLEL = 2
EXPERIMENTS = ["fig02", "fig09"]

#: Concurrent builds must not inflate total simulation work beyond this
#: factor of the serial run (the build gate serialises CPU-bound builds
#: to the core count, so contention shows up as ``wait``, not as slower
#: ``dataset-load``).
MAX_DATASET_LOAD_RATIO = 1.2
BENCH_ID = "benchmarks/bench_campaign.py::{}"


def bench_dataset_cache(workdir: pathlib.Path, walls: dict[str, float]) -> dict:
    cache_dir = workdir / "dataset-cache"
    config = small_config(seed=101)

    start = time.perf_counter()
    build_dataset(config, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - start

    clear_dataset_cache()  # a second cold process, minus the interpreter
    tele = Telemetry()
    start = time.perf_counter()
    build_dataset(config, telemetry=tele, cache_dir=cache_dir)
    warm_seconds = time.perf_counter() - start
    hits = tele.metrics.snapshot()["dataset.disk_cache_hits"]["value"]
    assert hits == 1, f"warm build should hit the disk cache, saw {hits}"

    walls["cold_build"], walls["warm_disk_load"] = cold_seconds, warm_seconds
    return {
        "config": "small",
        "disk_cache_speedup": round(cold_seconds / warm_seconds, 1),
    }


def _run(label: str, workdir: pathlib.Path, walls: dict[str, float], *,
         jobs: int, resume: bool = False,
         cache_dir: pathlib.Path | None = None):
    clear_dataset_cache()
    cache_dir = cache_dir or workdir / f"campaign-cache-{label}"
    start = time.perf_counter()
    result = run_campaign(
        small_config(), seeds=SEEDS, experiments=EXPERIMENTS,
        jobs=jobs, resume=resume, cache_dir=cache_dir,
    )
    walls[label] = time.perf_counter() - start
    timeline = result.timeline
    summary = {
        "jobs": jobs,
        "per_seed_build_seconds": [
            round(run.build_seconds, 3) for run in result.seed_runs
        ],
        "phase_seconds": {
            name: round(seconds, 3)
            for name, seconds in timeline.get("phase_totals", {}).items()
        },
        "timeline_coverage": round(timeline.get("coverage", 0.0), 4),
        "lease_takeovers": result.scheduler["takeovers"],
        "worker_respawns": result.scheduler["respawns"],
    }
    if resume:
        summary["resumed_seeds"] = len(result.scheduler["resumed_seeds"])
    return result, summary, cache_dir


def bench_campaign(workdir: pathlib.Path, walls: dict[str, float]) -> dict:
    cores = os.cpu_count() or 1
    out: dict = {"seeds": SEEDS, "experiments": EXPERIMENTS}

    serial, out["serial"], _ = _run("serial", workdir, walls, jobs=1)
    warm, out["warm_pool"], warm_cache = _run(
        "warm_pool", workdir, walls, jobs=JOBS_PARALLEL
    )
    _, out["warm_resume"], _ = _run(
        "warm_resume", workdir, walls, jobs=JOBS_PARALLEL, resume=True,
        cache_dir=warm_cache,
    )

    serial_load = out["serial"]["phase_seconds"].get("dataset-load", 0.0)
    warm_load = out["warm_pool"]["phase_seconds"].get("dataset-load", 0.0)
    out["dataset_load_ratio"] = round(warm_load / max(serial_load, 1e-9), 3)
    out["parallel_speedup"] = round(walls["serial"] / walls["warm_pool"], 2)
    out["resume_speedup"] = round(walls["warm_pool"] / walls["warm_resume"], 1)

    hashes = {run.seed: run.content_hash for run in serial.seed_runs}
    out["serial_parallel_hashes_identical"] = hashes == {
        run.seed: run.content_hash for run in warm.seed_runs
    }
    assert out["serial_parallel_hashes_identical"], "warm pool broke determinism"
    assert out["warm_resume"]["resumed_seeds"] == SEEDS, out["warm_resume"]
    assert out["dataset_load_ratio"] <= MAX_DATASET_LOAD_RATIO, (
        f"summed dataset-load {out['dataset_load_ratio']}x serial exceeds "
        f"{MAX_DATASET_LOAD_RATIO}x: the build gate is not serialising builds"
    )
    if cores > 1:
        assert out["parallel_speedup"] > 1.0, (
            f"warm pool slower than serial on a {cores}-core host"
        )
    return out


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-campaign-"))
    walls: dict[str, float] = {}
    try:
        extra = {
            "dataset_cache": bench_dataset_cache(workdir, walls),
            "campaign": bench_campaign(workdir, walls),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = pathlib.Path(__file__).parent / "BENCH_campaign.json"
    results = [
        BenchResult(id=BENCH_ID.format(name), wall_seconds=wall)
        for name, wall in walls.items()
    ]
    payload = write_results(out, results, extra=extra)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
