"""Import footprint: scipy loads only when a tomography solver runs."""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports the package, the CLI, the campaign workers and the analysis
#: entry points, checks that no scipy module loaded, then runs one
#: tomogravity solve and checks that ``scipy.optimize`` loaded.
_PROBE = """
import sys

import repro
import repro.cli
import repro.experiments
import repro.experiments.scheduler
import repro.tomography
import repro.trace.analyze
import repro.validate

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

print("before", scipy_modules())
from repro.tomography import tomogravity_estimate

estimate = tomogravity_estimate([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                [2.0, 3.0, 5.0], [1.0, 1.0])
print("estimate", estimate.shape, bool((estimate >= 0).all()))
print("after", "scipy.optimize" in scipy_modules())
"""


def test_scipy_loads_only_inside_the_solvers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(_SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines == ["before []", "estimate (2,) True", "after True"], lines
