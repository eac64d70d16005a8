"""Performance-regression harness.

The repro's north star is running the paper's analyses "as fast as the
hardware allows" at cluster scales well beyond the original testbed —
which makes performance a correctness property worth guarding like any
other.  This package provides the plumbing:

* :mod:`repro.bench.timing` — the shared repeat/min measurement helper
  every benchmark under ``benchmarks/`` goes through, so numbers from
  different files (and different machines) mean the same thing.
* :mod:`repro.bench.results` — the one ``BENCH_*.json`` schema every
  results file uses: benchmark wall-times plus enough host metadata
  (platform, Python, NumPy, CPU count) to judge whether two result
  files are comparable at all.
* :mod:`repro.bench.runner` — subprocess driver behind
  ``repro bench run``, executing the ``benchmarks/`` suite and
  collecting its JSON output.

Comparison is not done here: ``repro telemetry diff`` reads BENCH files
(one row per benchmark id, its ``wall_seconds``) through the same
ok / regression / improved / new / missing contract as manifests and
timelines.  The committed ``benchmarks/BENCH_core_ops.json`` is the
baseline; ``repro bench run --quick`` followed by ``repro telemetry
diff benchmarks/BENCH_core_ops.json BENCH_current.json`` is the local
workflow, and CI runs the same pair as a non-blocking smoke job.
"""

from .results import BenchResult, host_metadata, load_results, write_results
from .timing import Timing, measure

__all__ = [
    "BenchResult",
    "Timing",
    "host_metadata",
    "load_results",
    "measure",
    "write_results",
]
