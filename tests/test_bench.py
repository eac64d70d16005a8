"""The perf-regression harness: timing, results files, the bench CLI.

BENCH files are compared by ``repro telemetry diff``; the tests here
drive it end to end on files written by :func:`write_results`.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.bench.results import (
    BenchResult,
    host_metadata,
    load_results,
    write_results,
)
from repro.bench.runner import ENV_BENCH_OUT, ENV_BENCH_PROFILE
from repro.bench.timing import measure
from repro.cli import _build_parser, main

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestMeasure:
    def test_returns_result_and_counts_calls(self):
        calls = []

        def fn(value):
            calls.append(value)
            return value * 2

        result, timing = measure(fn, 21, rounds=3, iterations=2, warmup=1)
        assert result == 42
        assert len(calls) == 1 + 3 * 2
        assert timing.rounds == 3
        assert timing.iterations == 2

    def test_best_is_minimum_of_rounds(self):
        result, timing = measure(lambda: None, rounds=5)
        assert timing.best <= timing.mean <= timing.worst
        assert timing.total > 0

    def test_kwargs_forwarded(self):
        result, _ = measure(lambda a, b=0: a + b, 1, b=2, rounds=1, warmup=0)
        assert result == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            measure(lambda: None, rounds=0)
        with pytest.raises(ValueError):
            measure(lambda: None, iterations=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)


class TestResultsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_results(path, [
            BenchResult(id="b::one", wall_seconds=0.5, mean_seconds=0.6,
                        rounds=3, iterations=1),
            BenchResult(id="b::two", wall_seconds=1.5),
        ])
        loaded = load_results(path)
        assert set(loaded) == {"b::one", "b::two"}
        assert loaded["b::one"].wall_seconds == 0.5
        assert loaded["b::one"].rounds == 3
        assert loaded["b::two"].mean_seconds is None

    def test_host_metadata_recorded(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        payload = write_results(path, [])
        for key in ("platform", "python", "numpy", "cpu_count", "timestamp"):
            assert key in payload["host"]
        assert json.loads(path.read_text())["schema_version"] == 2

    def test_schema_v1_loads(self, tmp_path):
        """Historical committed baselines (schema 1) stay comparable."""
        path = tmp_path / "BENCH_v1.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "benchmarks": [{"id": "b::old", "wall_seconds": 2.0}],
        }))
        loaded = load_results(path)
        assert loaded["b::old"].wall_seconds == 2.0

    def test_non_bench_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="benchmarks"):
            load_results(path)

    def test_host_metadata_standalone(self):
        meta = host_metadata()
        assert meta["cpu_count"] >= 1


class TestBenchCli:
    def _write(self, path, wall):
        write_results(path, [BenchResult(id="b::t", wall_seconds=wall)])

    def _diff(self, base, cur, *flags):
        return main(["telemetry", "diff", str(base), str(cur), *flags])

    def test_compare_ok_exit_zero(self, tmp_path, capsys):
        base, cur = tmp_path / "b.json", tmp_path / "c.json"
        self._write(base, 1.0)
        self._write(cur, 1.1)
        assert self._diff(base, cur) == 0
        out = capsys.readouterr().out
        assert "b::t" in out
        assert "1 metric(s), 0 regression(s)" in out

    def test_compare_regression_gates_only_with_flag(self, tmp_path, capsys):
        base, cur = tmp_path / "b.json", tmp_path / "c.json"
        self._write(base, 1.0)
        self._write(cur, 3.0)
        assert self._diff(base, cur) == 0
        assert self._diff(base, cur, "--fail-on-regression") == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_compare_tolerance_flag(self, tmp_path):
        base, cur = tmp_path / "b.json", tmp_path / "c.json"
        self._write(base, 1.0)
        self._write(cur, 1.4)
        assert self._diff(base, cur, "--tolerance", "0.5",
                          "--fail-on-regression") == 0
        assert self._diff(base, cur, "--tolerance", "0.1",
                          "--fail-on-regression") == 1

    def test_compare_missing_file_exit_two(self, tmp_path, capsys):
        code = self._diff(tmp_path / "nope.json", tmp_path / "nope2.json")
        assert code == 2
        assert "error" in capsys.readouterr().err
        # A JSON file that is neither a BENCH file, a manifest nor a
        # timeline is unreadable input too: exit 2, no traceback.
        base, other = tmp_path / "b.json", tmp_path / "other.json"
        self._write(base, 1.0)
        other.write_text('{"hello": 1}')
        assert self._diff(base, other) == 2
        assert "neither" in capsys.readouterr().err

    def test_bench_compare_subcommand_is_gone(self):
        """``telemetry diff`` is the only comparator."""
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["bench", "compare"])

    def test_run_missing_benchmarks_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["bench", "run", "--benchmarks-dir",
                  str(tmp_path / "missing"), "--out",
                  str(tmp_path / "out.json")])


class TestBenchConftest:
    """``benchmarks/conftest.py`` writes results only where told to."""

    _BENCH = (
        "def test_tiny(benchmark, report):\n"
        "    assert benchmark(sum, [1, 2, 3]) == 6\n"
        "    report('tiny report')\n"
    )

    def test_bare_session_writes_no_bench_file(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        shutil.copy(_REPO_ROOT / "benchmarks" / "conftest.py", suite)
        (suite / "test_tiny.py").write_text(self._BENCH)
        env = {key: value for key, value in os.environ.items()
               if key not in (ENV_BENCH_OUT, ENV_BENCH_PROFILE)}
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(_REPO_ROOT / "src"), env.get("PYTHONPATH"))
            if part
        )
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", str(suite), "-q",
             "-p", "no:benchmark", "-p", "no:cacheprovider"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "1 passed" in completed.stdout
        assert (suite / "report.txt").read_text() == "tiny report\n"
        assert not list(tmp_path.rglob("BENCH_*.json"))

        # `repro bench run` always names the output, so it still collects.
        out = tmp_path / "BENCH_out.json"
        assert main(["bench", "run", "--benchmarks-dir", str(suite),
                     "--out", str(out)]) == 0
        results = load_results(out)
        assert len(results) == 1
        (result,) = results.values()
        assert result.id.endswith("test_tiny.py::test_tiny")
        assert not list(suite.glob("BENCH_*.json"))

    def test_selected_session_keeps_report(self, tmp_path):
        """A ``-k`` session prints its tables but leaves the full run's
        ``report.txt`` in place."""
        suite = tmp_path / "suite"
        suite.mkdir()
        shutil.copy(_REPO_ROOT / "benchmarks" / "conftest.py", suite)
        (suite / "test_tiny.py").write_text(self._BENCH)
        (suite / "report.txt").write_text("full-run report\n")
        out = tmp_path / "BENCH_out.json"
        assert main(["bench", "run", "-k", "tiny", "--benchmarks-dir",
                     str(suite), "--out", str(out)]) == 0
        assert len(load_results(out)) == 1
        assert (suite / "report.txt").read_text() == "full-run report\n"
