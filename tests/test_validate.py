"""The invariant validation subsystem: registry, context, checkers, CLI.

Positive paths (fresh artefacts report zero violations) and negative
paths (hand-broken artefacts are caught by the *named* checker the issue
demands) are both covered; corruption of on-disk traces lives in
``test_corruption.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.instrumentation.events import (
    DIRECTION_RECV,
    DIRECTION_SEND,
    SocketEventLog,
)
from repro.simulation.simulator import Simulator, simulate
from repro.telemetry import Telemetry
from repro.trace import TraceReader, TraceWriter
from repro.validate import (
    ValidationContext,
    ValidationError,
    ValidationReport,
    checker,
    checker_names,
    checker_specs,
    get_checker,
    run_checkers,
    run_inline_checks,
    validate,
)

from conftest import micro_trace_config


@pytest.fixture(scope="module")
def micro_result():
    return simulate(micro_trace_config())


class TestRegistry:
    def test_builtins_registered(self):
        names = checker_names()
        for expected in (
            "events.sane", "events.monotone", "bytes.conservation",
            "bytes.link_conservation", "linkloads.sane",
            "bytes.linkloads_cover_events", "analysis.streaming_equal",
            "trace.manifest", "trace.chunk_hashes", "trace.sidecar",
            "trace.roundtrip", "congestion.in_bounds",
            "tomography.link_consistency", "inline.engine_time",
            "inline.linkloads", "inline.transport",
            "transport.allocator_equivalence",
            "transport.incremental_equivalence",
        ):
            assert expected in names

    def test_specs_carry_descriptions_and_tags(self):
        for spec in checker_specs():
            assert spec.description, spec.name
            assert spec.tags, spec.name

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="events.sane"):
            get_checker("no.such.checker")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @checker("events.sane")
            def clash(ctx):  # pragma: no cover
                return []

    def test_tag_selection(self):
        cheap = checker_names(tag="cheap")
        assert "events.sane" in cheap
        assert "analysis.streaming_equal" not in cheap

    def test_default_selection_excludes_inline(self, micro_result):
        report = validate(micro_result)
        run = {r.name for r in report.results}
        assert not any(name.startswith("inline.") for name in run)

    def test_missing_requirements_are_recorded_as_skips(self, micro_result):
        report = validate(micro_result)
        skipped = report.result_for("trace.chunk_hashes")
        assert skipped.status == "skipped"
        assert "trace" in skipped.detail


class TestTransportFamily:
    """Which family a context reads, for traces of every vintage."""

    @pytest.mark.parametrize("meta,family", [
        # Fluid names no config accepts any more: the exact allocator's
        # oracles, once selectable as ``transport_impl`` values.
        ({"transport_impl": "reference"}, "fluid"),
        ({"transport_impl": "csr"}, "fluid"),
        ({"transport_impl": "dctcp"}, "queued"),
        # Recorded before traces named their transport.
        ({}, "fluid"),
    ], ids=["reference", "csr", "dctcp", "unnamed"])
    def test_old_traces_stay_readable(self, tmp_path, meta, family):
        path = tmp_path / "old.reprotrace"
        with TraceWriter(path, chunk_size=50, meta=meta):
            pass
        reader = TraceReader(path)
        assert ValidationContext.from_trace(reader).transport_family == family

    def test_incremental_config_reads_as_fluid(self):
        config = SimulationConfig(transport_impl="incremental")
        assert ValidationContext(config=config).transport_family == "fluid"


class TestFreshArtifactsAreClean:
    def test_simulation_result(self, micro_result, assert_invariants):
        report = assert_invariants(micro_result)
        assert report.checkers_run >= 9
        assert report.result_for("bytes.conservation").status == "ok"

    def test_recorded_trace(self, recorded_trace, assert_invariants):
        report = assert_invariants(recorded_trace)
        # A full trace context satisfies every non-inline checker.
        assert report.checkers_skipped == 0
        assert report.result_for("trace.roundtrip").status == "ok"

    def test_session_dataset(self, dataset, assert_invariants):
        assert_invariants(dataset)

    def test_telemetry_counters(self, micro_result):
        tele = Telemetry()
        report = validate(micro_result, telemetry=tele)
        metrics = tele.metrics.snapshot()
        assert metrics["validate.checkers_run"]["value"] == report.checkers_run
        assert (
            metrics["validate.checkers_skipped"]["value"]
            == report.checkers_skipped
        )
        assert "validate.violations" not in metrics


def _edited_log(log: SocketEventLog, **overrides) -> SocketEventLog:
    """Copy a finalized log with some columns overwritten."""
    columns = {name: column.copy() for name, column in log.to_columns().items()}
    columns.update(overrides)
    return SocketEventLog.from_columns(columns)


class TestBrokenArtifactsAreCaught:
    """Each corruption class is detected by its named checker."""

    def _ctx_with_log(self, result, log) -> ValidationContext:
        ctx = ValidationContext.from_result(result)
        ctx._log = log
        return ctx

    def test_byte_conservation_break(self, micro_result):
        # Reconstruct flows from the pristine log, then inflate one send
        # event — the flow table no longer accounts for the log's bytes.
        log = micro_result.socket_log
        num_bytes = log.column("num_bytes").copy()
        send = int(np.flatnonzero(log.column("direction") == DIRECTION_SEND)[0])
        num_bytes[send] += 1e9
        ctx = ValidationContext.from_result(micro_result)
        from repro.core.flows import reconstruct_flows
        ctx._flows = reconstruct_flows(log)
        ctx._log = _edited_log(log, num_bytes=num_bytes)
        report = run_checkers(ctx, names=["bytes.conservation"])
        assert not report.ok
        violation = report.violations[0]
        assert violation.checker == "bytes.conservation"
        assert "flow bytes" in violation.message

    def test_src_equals_dst(self, micro_result):
        log = micro_result.socket_log
        dst = log.column("dst").copy()
        dst[:5] = log.column("src")[:5]
        ctx = self._ctx_with_log(micro_result, _edited_log(log, dst=dst))
        report = run_checkers(ctx, names=["events.sane"])
        assert not report.ok
        assert any("src == dst" in v.message for v in report.violations)

    def test_negative_bytes(self, micro_result):
        log = micro_result.socket_log
        num_bytes = log.column("num_bytes").copy()
        num_bytes[3] = -10.0
        ctx = self._ctx_with_log(micro_result, _edited_log(log, num_bytes=num_bytes))
        report = run_checkers(ctx, names=["events.sane"])
        assert any("negative or non-finite bytes" in v.message
                   for v in report.violations)

    def test_timestamps_out_of_bounds(self, micro_result):
        log = micro_result.socket_log
        times = log.column("timestamp").copy()
        times[-1] = micro_result.duration + 50.0
        ctx = self._ctx_with_log(micro_result, _edited_log(log, timestamp=times))
        report = run_checkers(ctx, names=["events.sane"])
        assert any("outside run bounds" in v.message for v in report.violations)

    def test_unsorted_timestamps(self, micro_result):
        log = micro_result.socket_log
        edited = _edited_log(log)
        # from_columns re-sorts, so poke the finalized arrays directly —
        # modelling a buggy merge that breaks the watermark ordering.
        edited._arrays["timestamp"][5] = edited._arrays["timestamp"][4] - 1.0
        ctx = self._ctx_with_log(micro_result, edited)
        report = run_checkers(ctx, names=["events.monotone"])
        assert not report.ok

    def test_linkload_over_capacity(self, micro_result):
        from repro.trace.reader import TraceLinkLoads

        loads = micro_result.link_loads
        byte_matrix = loads.byte_matrix().copy()
        busiest = np.unravel_index(np.argmax(byte_matrix), byte_matrix.shape)
        byte_matrix[busiest] *= 1e6
        doctored = TraceLinkLoads(
            byte_counts=byte_matrix,
            capacities=loads.capacities,
            bin_width=loads.bin_width,
            observed_links=np.array(
                [l.link_id for l in micro_result.topology.inter_switch_links()]
            ),
        )
        ctx = ValidationContext.from_result(micro_result)
        ctx._link_loads = doctored
        report = run_checkers(ctx, names=["linkloads.sane"])
        assert any("exceeds capacity" in v.message for v in report.violations)

    def test_violation_render_and_raise(self, micro_result):
        log = micro_result.socket_log
        num_bytes = log.column("num_bytes").copy()
        num_bytes[3] = -10.0
        ctx = self._ctx_with_log(micro_result, _edited_log(log, num_bytes=num_bytes))
        report = run_checkers(ctx, names=["events.sane"])
        assert "[events.sane]" in report.render()
        with pytest.raises(ValidationError) as exc_info:
            report.raise_if_violations()
        assert exc_info.value.violations == report.violations


class TestInlineMode:
    def test_disabled_by_default(self):
        config = micro_trace_config()
        assert config.validate_every_n_batches == 0
        sim = Simulator(config)
        sim.run()
        assert sim.inline_validations == 0

    def test_negative_interval_rejected(self):
        import dataclasses

        with pytest.raises(ValueError, match="validate_every_n_batches"):
            dataclasses.replace(
                micro_trace_config(), validate_every_n_batches=-1
            )

    def test_sampled_runs_and_determinism(self):
        import dataclasses

        base = micro_trace_config()
        plain = Simulator(base).run()
        checked_sim = Simulator(
            dataclasses.replace(base, validate_every_n_batches=25)
        )
        checked = checked_sim.run()
        assert checked_sim.inline_validations > 0
        for name in ("timestamp", "src", "dst", "num_bytes"):
            assert np.array_equal(
                plain.socket_log.column(name), checked.socket_log.column(name)
            )

    def test_run_inline_checks_directly(self):
        sim = Simulator(micro_trace_config())
        report = run_inline_checks(sim)
        assert report.ok
        run = {r.name for r in report.results}
        assert run == {"inline.engine_time", "inline.linkloads",
                       "inline.transport",
                       "transport.allocator_equivalence",
                       "transport.incremental_equivalence"}

    def test_inline_violation_aborts_run(self):
        import dataclasses

        sim = Simulator(
            dataclasses.replace(micro_trace_config(),
                                validate_every_n_batches=1)
        )
        # Sabotage the live state: an impossible engine clock.
        sim.engine.now = sim.config.duration + 1000.0
        with pytest.raises(ValidationError):
            sim._run_inline_validation()


class TestCli:
    def test_list(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "events.sane" in out
        assert "tomography.link_consistency" in out

    def test_fresh_trace_exits_zero(self, recorded_trace, capsys):
        assert main(["validate", str(recorded_trace)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_checker_subset(self, recorded_trace, capsys):
        code = main(["validate", str(recorded_trace),
                     "--checkers", "events.sane,trace.manifest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 checker(s) run" in out

    def test_unknown_checker_is_usage_error(self, recorded_trace):
        assert main(["validate", str(recorded_trace),
                     "--checkers", "bogus.checker"]) == 2

    def test_bad_target_is_usage_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope")]) == 2

    def test_manifest_out(self, recorded_trace, tmp_path):
        from repro.telemetry import RunManifest

        out = tmp_path / "validate-manifest.json"
        assert main(["validate", str(recorded_trace),
                     "--manifest-out", str(out)]) == 0
        manifest = RunManifest.load(out)
        assert manifest.command == "validate"
        assert manifest.extra["violations"] == 0
        assert manifest.metrics["validate.checkers_run"]["value"] >= 13

    def test_corrupt_trace_exits_one(self, recorded_trace, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken.reprotrace"
        shutil.copytree(recorded_trace, broken)
        chunk = sorted(broken.glob("events-*.npz"))[0]
        data = bytearray(chunk.read_bytes())
        data[len(data) // 2] ^= 0xFF
        chunk.write_bytes(bytes(data))
        assert main(["validate", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "trace.chunk_hashes" in out
