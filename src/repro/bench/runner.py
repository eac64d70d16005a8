"""Subprocess driver behind ``repro bench run``.

Benchmarks run in a fresh interpreter via ``python -m pytest`` so the
measuring process carries none of the CLI's import or telemetry state,
and so a crashing benchmark cannot take the CLI down with it.  The
``benchmarks/conftest.py`` session writes the results JSON; the output
path is passed down through the ``REPRO_BENCH_OUT`` environment
variable.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

__all__ = ["QUICK_SELECTION", "run_benchmarks"]

#: ``--quick`` runs only benchmarks that need no standard dataset — the
#: session-scoped standard campaign takes minutes to build, while these
#: finish in seconds and still cover the transport hot paths end to end:
#: the fluid allocator's churn and the queued transports' tick.
QUICK_SELECTION = (
    "maxmin_waterfill or small_campaign_simulation"
    " or (event_latency_incremental and n2000)"
    " or event_latency_queued"
)

#: Environment variable the benchmarks conftest reads for the output path.
ENV_BENCH_OUT = "REPRO_BENCH_OUT"
#: When set, benchmarks/conftest.py wraps the whole pytest session in
#: cProfile and dumps the top entries next to the results JSON.
ENV_BENCH_PROFILE = "REPRO_BENCH_PROFILE"


def run_benchmarks(
    out: str | pathlib.Path,
    benchmarks_dir: str | pathlib.Path = "benchmarks",
    quick: bool = False,
    keyword: str | None = None,
    verbose: bool = False,
    profile: bool = False,
) -> int:
    """Run the benchmark suite, writing results JSON to ``out``.

    Returns the pytest exit code (0 = all benchmarks passed).  ``quick``
    restricts to the fast no-dataset subset; ``keyword`` is an explicit
    pytest ``-k`` expression overriding it.  ``profile`` wraps the
    measuring process in cProfile and writes a ``*.profile.txt`` dump
    next to ``out``.
    """
    benchmarks_dir = pathlib.Path(benchmarks_dir)
    if not benchmarks_dir.is_dir():
        raise FileNotFoundError(f"benchmarks directory not found: {benchmarks_dir}")
    out = pathlib.Path(out).resolve()
    # The timing fixture in benchmarks/conftest.py shadows
    # pytest-benchmark's; disable the plugin so it doesn't reject the
    # shadow (it is not a CI dependency, so this also keeps local and CI
    # runs identical).
    command = [
        sys.executable, "-m", "pytest", str(benchmarks_dir),
        "-p", "no:benchmark", "-v" if verbose else "-q",
    ]
    selection = keyword if keyword is not None else (QUICK_SELECTION if quick else None)
    if selection:
        command += ["-k", selection]
    env = dict(os.environ)
    env[ENV_BENCH_OUT] = str(out)
    if profile:
        env[ENV_BENCH_PROFILE] = "1"
    src_root = str(pathlib.Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_root, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(command, env=env)
    return completed.returncode
