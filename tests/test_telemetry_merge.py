"""Cross-process telemetry fan-in: merge semantics, profiling, export.

Covers the merge algebra instrument-by-instrument (counters sum, gauges
last-writer-win on their timestamps, histogram reservoirs merge with
bounded quantile error), the determinism of span-lane interleaving under
shuffled report arrival, the resource profiler, and the timeline export
and diff surfaces.
"""

import json
import random
import time

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    ResourceProfiler,
    Telemetry,
    interleave_spans,
    load_spans,
    load_timeline,
    merge_worker_reports,
    phase_totals,
    worker_report,
    write_timeline,
)
from repro.bench.results import BenchResult, write_results
from repro.telemetry.export import (
    DEFAULT_DIFF_TOLERANCE,
    diff_observables,
    format_diff_table,
    load_observable,
    render_timeline,
    to_chrome_trace,
    to_prometheus,
)
from repro.telemetry.resources import (
    PHASE_COMPUTE,
    PHASE_IMPORT,
    PHASE_SPAWN,
    PHASE_WAIT,
    process_create_time,
    read_cpu_seconds,
    read_rss_bytes,
)


class TestCounterMerge:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("events").inc(10)
        b.counter("events").inc(32)
        a.merge_state(b.export_state())
        assert a.counter("events").value == 42

    def test_missing_counter_is_created(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("only_in_b", worker="1").inc(7)
        a.merge_state(b.export_state())
        assert a.counter("only_in_b", worker="1").value == 7

    def test_labelled_series_stay_separate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("jobs", outcome="ok").inc(2)
        b.counter("jobs", outcome="ok").inc(3)
        b.counter("jobs", outcome="killed").inc(1)
        a.merge_state(b.export_state())
        assert a.counter("jobs", outcome="ok").value == 5
        assert a.counter("jobs", outcome="killed").value == 1


class TestGaugeMerge:
    def test_latest_writer_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(5)
        b.gauge("depth").set(9)  # written after a's
        state = b.export_state()
        a.merge_state(state)
        assert a.gauge("depth").value == 9

    def test_stale_write_is_ignored(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.gauge("depth").set(9)
        a.gauge("depth").set(5)  # a is now the latest writer
        a.merge_state(b.export_state())
        assert a.gauge("depth").value == 5

    def test_writes_carry_timestamps(self):
        gauge = MetricsRegistry().gauge("depth")
        assert gauge.updated_at == 0.0
        gauge.set(1)
        first = gauge.updated_at
        assert first > 0
        gauge.max(2)
        assert gauge.updated_at >= first


class TestHistogramMerge:
    def test_exact_moments_combine(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.histogram("lat").observe(v)
        for v in (10.0, 20.0):
            b.histogram("lat").observe(v)
        a.merge_state(b.export_state())
        h = a.histogram("lat")
        assert h.count == 5
        assert h.total == 36.0
        assert h.min_value == 1.0
        assert h.max_value == 20.0

    def test_empty_target_adopts_source(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in range(100):
            b.histogram("lat").observe(float(v))
        a.merge_state(b.export_state())
        assert a.histogram("lat").count == 100
        assert a.histogram("lat").quantile(0.5) > 0

    def test_merging_empty_source_is_noop(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat").observe(4.0)
        a.merge_state(b.export_state() + [b.histogram("lat").state()])
        assert a.histogram("lat").count == 1

    def test_reservoir_stays_bounded(self):
        a, b = MetricsRegistry(reservoir_size=64), MetricsRegistry(reservoir_size=64)
        for v in range(1000):
            a.histogram("lat").observe(float(v))
            b.histogram("lat").observe(float(v) + 1000.0)
        a.merge_state(b.export_state())
        assert len(a.histogram("lat")._reservoir) <= 64

    def test_merged_quantiles_within_error_bounds(self):
        # Two disjoint uniform halves of [0, 2000): the merged median
        # must land near 1000 and p90 near 1800, inside the usual
        # reservoir error for a 512-slot sample.
        a, b = MetricsRegistry(), MetricsRegistry()
        rng = random.Random(7)
        lo = [rng.uniform(0, 1000) for _ in range(4000)]
        hi = [rng.uniform(1000, 2000) for _ in range(4000)]
        for v in lo:
            a.histogram("lat").observe(v)
        for v in hi:
            b.histogram("lat").observe(v)
        a.merge_state(b.export_state())
        h = a.histogram("lat")
        assert h.count == 8000
        assert h.quantile(0.5) == pytest.approx(1000, abs=150)
        assert h.quantile(0.9) == pytest.approx(1800, abs=150)

    def test_merge_is_deterministic(self):
        def merged():
            a, b = MetricsRegistry(), MetricsRegistry()
            for v in range(2000):
                a.histogram("lat").observe(float(v))
                b.histogram("lat").observe(float(v * 3))
            a.merge_state(b.export_state())
            return a.histogram("lat")._reservoir

        assert merged() == merged()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge_state([{"kind": "meter", "name": "x"}])


def fake_report(seed: int, pid: int, start: float, *, spans=None, phases=None,
                metrics=None) -> dict:
    return {
        "campaign_id": "test",
        "seed": seed,
        "pid": pid,
        "submitted_at": start,
        "started_at": start,
        "finished_at": start + 1.0,
        "metrics": metrics or [],
        "spans": spans or [],
        "resources": {"pid": pid, "phases": phases or []},
    }


class TestWorkerReport:
    def test_report_carries_context_metrics_spans_profile(self):
        tele = Telemetry()
        tele.counter("seeds").inc()
        with tele.span("work", seed=3):
            pass
        profiler = ResourceProfiler(interval=0.01).start()
        with profiler.phase(PHASE_COMPUTE):
            pass
        profiler.stop()
        report = worker_report(tele, profiler, campaign_id="c1", seed=3,
                               submitted_at=1.0, started_at=2.0)
        assert report["campaign_id"] == "c1"
        assert report["seed"] == 3
        assert report["pid"] == profiler.pid
        assert report["metrics"][0]["value"] == 1
        assert [s["name"] for s in report["spans"]] == ["work"]
        assert report["resources"]["phases"][0]["name"] == PHASE_COMPUTE
        # The report must survive the process boundary as plain JSON.
        json.dumps(report)


class TestMergeWorkerReports:
    def test_lanes_group_by_pid_in_seed_order(self):
        reports = [
            fake_report(2, pid=200, start=10.0),
            fake_report(1, pid=100, start=10.0),
            fake_report(3, pid=100, start=11.5),
        ]
        timeline = merge_worker_reports(reports, campaign_id="c",
                                        window_start=10.0, jobs=2)
        workers = [lane for lane in timeline["lanes"] if lane["label"] != "parent"]
        assert [lane["pid"] for lane in workers] == [100, 200]
        assert [lane["seeds"] for lane in workers] == [[1, 3], [2]]
        assert timeline["seeds"] == [1, 2, 3]

    def test_merge_is_invariant_under_arrival_order(self):
        def build(order):
            reports = [
                fake_report(seed, pid=100 + seed % 2, start=10.0 + seed,
                            spans=[{"name": f"s{seed}", "span_id": seed,
                                    "start": 10.0 + seed, "duration": 0.5}])
                for seed in order
            ]
            timeline = merge_worker_reports(reports, campaign_id="c",
                                            window_start=10.0)
            # The parent merge phase is wall-clock timed — mask it out.
            for lane in timeline["lanes"]:
                if lane["label"] == "parent":
                    lane["segments"] = []
            timeline["window"] = {}
            timeline["coverage"] = 0.0
            timeline["phase_totals"] = {}
            return timeline

        orders = [[1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]]
        baseline = build(orders[0])
        for order in orders[1:]:
            assert build(order) == baseline

    def test_interleave_sorts_by_start_then_identity(self):
        spans = [
            {"name": "b", "start": 2.0, "seed": 1, "span_id": 5},
            {"name": "a", "start": 1.0, "seed": 2, "span_id": 9},
            {"name": "c", "start": 2.0, "seed": 0, "span_id": 1},
        ]
        shuffled = list(spans)
        random.Random(3).shuffle(shuffled)
        ordered = interleave_spans(shuffled)
        assert [s["name"] for s in ordered] == ["a", "c", "b"]

    def test_metrics_fold_into_parent_telemetry(self):
        tele = Telemetry()
        worker = MetricsRegistry()
        worker.counter("campaign.seeds_completed").inc(2)
        reports = [fake_report(1, pid=9, start=0.0,
                               metrics=worker.export_state())]
        merge_worker_reports(reports, campaign_id="c", window_start=0.0,
                             telemetry=tele)
        assert tele.metrics.counter("campaign.seeds_completed").value == 2

    def test_null_telemetry_stays_inert(self):
        before = len(NULL_TELEMETRY.metrics)
        reports = [fake_report(1, pid=9, start=0.0)]
        merge_worker_reports(reports, campaign_id="c", window_start=0.0,
                             telemetry=NULL_TELEMETRY)
        assert len(NULL_TELEMETRY.metrics) == before
        assert NULL_TELEMETRY.resource_profiler() is NULL_TELEMETRY.resource_profiler()
        assert NULL_TELEMETRY.resource_profiler().start().profile() == {}

    def test_coverage_and_phase_totals(self):
        phases = [{"name": PHASE_COMPUTE, "start": 10.0, "duration": 1.0}]
        reports = [fake_report(1, pid=9, start=10.0, phases=phases)]
        timeline = merge_worker_reports(reports, campaign_id="c",
                                        window_start=10.0)
        assert 0.0 < timeline["coverage"] <= 1.0
        assert timeline["phase_totals"][PHASE_COMPUTE] == 1.0
        assert phase_totals(timeline)[PHASE_COMPUTE] == 1.0

    def test_round_trips_through_disk(self, tmp_path):
        timeline = merge_worker_reports(
            [fake_report(1, pid=9, start=0.0)],
            campaign_id="c", window_start=0.0)
        path = tmp_path / "timeline.json"
        write_timeline(path, timeline)
        assert load_timeline(path) == timeline

    def test_load_rejects_non_timeline(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            load_timeline(path)


class TestResourceProfiler:
    def test_probes_read_real_values(self):
        assert read_rss_bytes() > 0
        assert read_cpu_seconds() >= 0.0
        assert process_create_time() > 0.0

    def test_profile_shape(self):
        profiler = ResourceProfiler(interval=0.005).start()
        with profiler.phase(PHASE_COMPUTE):
            sum(range(100_000))
        profile = profiler.stop().profile()
        assert profile["pid"] == profiler.pid
        assert profile["peak_rss_bytes"] > 0
        assert profile["cpu_seconds"] >= 0.0
        phases = {p["name"]: p for p in profile["phases"]}
        assert phases[PHASE_COMPUTE]["duration"] > 0.0
        json.dumps(profile)

    def test_stop_is_idempotent(self):
        profiler = ResourceProfiler(interval=0.005).start()
        profiler.stop()
        profiler.stop()

    def test_startup_phases_split_on_submit_time(self):
        created = process_create_time()
        profiler = ResourceProfiler()
        profiler.add_startup_phases(created - 1.0)  # submitted before we existed
        names = [p["name"] for p in profiler.profile()["phases"]]
        assert names == [PHASE_SPAWN, PHASE_IMPORT]

        reused = ResourceProfiler()
        # Submitted after the process existed: a reused/serial worker.
        reused.add_startup_phases(time.time() - 1e-3)
        names = [p["name"] for p in reused.profile()["phases"]]
        assert names == [PHASE_WAIT]


class TestLoadSpans:
    def test_aggregates_multiple_jsonl_files(self, tmp_path):
        for index in (1, 2):
            tele = Telemetry()
            with tele.span("work", file=index):
                pass
            tele.tracer.write_jsonl(tmp_path / f"t{index}.jsonl")
        spans = load_spans(sorted(tmp_path.glob("t*.jsonl")))
        assert len(spans) == 2
        assert {s["source"] for s in spans} == {
            str(tmp_path / "t1.jsonl"), str(tmp_path / "t2.jsonl")}


def tiny_timeline() -> dict:
    phases = [{"name": PHASE_COMPUTE, "start": 10.2, "duration": 0.6}]
    metrics = MetricsRegistry()
    metrics.counter("events").inc(5)
    metrics.histogram("lat").observe(2.0)
    return merge_worker_reports(
        [fake_report(1, pid=9, start=10.0, phases=phases,
                     metrics=metrics.export_state())],
        campaign_id="tiny", window_start=10.0)


class TestExport:
    def test_ascii_gantt_renders_lanes_and_key(self):
        art = render_timeline(tiny_timeline(), width=32)
        assert "campaign timeline — tiny" in art
        assert "worker-0" in art and "parent" in art
        assert "c" in art and "phase key:" in art
        assert "compute" in art

    def test_width_is_validated(self):
        with pytest.raises(ValueError):
            render_timeline(tiny_timeline(), width=2)

    def test_prometheus_text_format(self):
        text = to_prometheus(tiny_timeline()["metrics"])
        assert "# TYPE events counter" in text
        assert "events 5" in text
        assert 'lat{quantile="0.5"} 2' in text
        assert "lat_count 1" in text

    def test_chrome_trace_events(self):
        trace = to_chrome_trace(tiny_timeline())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "thread_name" in names and PHASE_COMPUTE in names
        phase = next(e for e in trace["traceEvents"]
                     if e.get("cat") == "phase")
        assert phase["ph"] == "X"
        assert phase["ts"] == pytest.approx(0.2e6)
        assert phase["dur"] == pytest.approx(0.6e6)
        json.dumps(trace)


class TestDiff:
    def test_identical_payloads_are_all_ok(self):
        rows = diff_observables({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0})
        assert all(row.status == "ok" for row in rows)
        assert all(row.ratio == 1.0 for row in rows)

    def test_statuses_classify_against_tolerance(self):
        rows = diff_observables(
            {"reg": 1.0, "imp": 1.0, "same": 3.0, "gone": 1.0},
            {"reg": 2.0, "imp": 0.5, "same": 3.0, "fresh": 9.0},
            tolerance=0.25)
        by_name = {row.name: row.status for row in rows}
        assert by_name == {"reg": "regression", "imp": "improved",
                           "same": "ok", "gone": "missing", "fresh": "new"}

    def test_rows_sorted_most_severe_first(self):
        rows = diff_observables({"a": 1.0, "z": 1.0}, {"a": 5.0, "z": 1.0})
        assert rows[0].status == "regression"

    def test_zero_baseline_counts_as_regression(self):
        rows = diff_observables({"a": 0.0}, {"a": 1.0})
        assert rows[0].status == "regression"

    def test_higher_is_better_rows_and_nan(self):
        """A falling throughput or coverage regresses; a NaN never
        reads as ok."""
        rows = diff_observables(
            {"sim.events_per_wall_second": 1000.0, "timeline.coverage": 0.99,
             "up.coverage": 0.5, "wall": 1.0, "nan_base": float("nan"),
             "nan_cur": 1.0},
            {"sim.events_per_wall_second": 500.0, "timeline.coverage": 0.70,
             "up.coverage": 0.9, "wall": 0.5, "nan_base": 1.0,
             "nan_cur": float("nan")},
            tolerance=0.25)
        by_name = {row.name: row.status for row in rows}
        assert by_name == {
            "sim.events_per_wall_second": "regression",
            "timeline.coverage": "regression",
            "up.coverage": "regression",  # not a listed row: lower is better
            "wall": "improved",
            "nan_base": "regression",
            "nan_cur": "regression",
        }
        rows = diff_observables({"timeline.coverage": 0.5},
                                {"timeline.coverage": 0.9})
        assert rows[0].status == "improved"
        table = format_diff_table(diff_observables({"a": float("nan")},
                                                   {"a": 1.0}))
        line = next(row for row in table.splitlines() if row.startswith("a "))
        assert line.split() == ["a", "nan", "1", "nan", "regression"]
        from repro.telemetry import export

        assert export.HIGHER_IS_BETTER == {"timeline.coverage",
                                           "sim.events_per_wall_second"}

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_observables({}, {}, tolerance=-0.1)

    def test_load_observable_from_timeline_and_manifest(self, tmp_path):
        timeline_path = tmp_path / "timeline.json"
        write_timeline(timeline_path, tiny_timeline())
        observed = load_observable(timeline_path)
        assert observed["events"] == 5.0
        assert observed["lat[count]"] == 1.0
        assert observed[f"phase.{PHASE_COMPUTE}_seconds"] == pytest.approx(0.6)
        assert 0.0 < observed["timeline.coverage"] <= 1.0

        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({
            "metrics": {"events": {"type": "counter", "value": 5.0}},
            "extra": {"observability": {"phase_totals": {"compute": 0.6}}},
        }))
        observed = load_observable(manifest_path)
        assert observed["events"] == 5.0
        assert observed["phase.compute_seconds"] == pytest.approx(0.6)

    def test_load_observable_from_bench_results(self, tmp_path):
        """One row per benchmark id, holding its wall_seconds; the extra
        keys (scale/campaign metrics) stay out."""
        path = tmp_path / "BENCH_x.json"
        write_results(path, [
            BenchResult(id="b::one", wall_seconds=0.5, mean_seconds=0.6,
                        rounds=3, iterations=1),
            BenchResult(id="b::two", wall_seconds=1.5),
        ], extra={
            "scale_metrics": {"tick": {"flows": 32}},
            "campaign_metrics": {"events": {"type": "counter", "value": 5}},
        })
        assert load_observable(path) == {"b::one": 0.5, "b::two": 1.5}
        current = tmp_path / "BENCH_y.json"
        write_results(current, [BenchResult(id="b::one", wall_seconds=1.0)])
        by_name = {row.name: row.status
                   for row in diff_observables(path, current)}
        assert by_name == {"b::one": "regression", "b::two": "missing"}

    def test_load_observable_rejects_garbage(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_observable(path)

    def test_table_renders_summary_and_hides_ok(self):
        rows = diff_observables({"a": 1.0, "b": 1.0}, {"a": 5.0, "b": 1.0})
        table = format_diff_table(rows, tolerance=DEFAULT_DIFF_TOLERANCE,
                                  only_changed=True)
        assert "1 regression(s)" in table
        assert "1 unchanged row(s) hidden" in table
        assert "\nb " not in table
