"""Command-line interface."""

import json

from repro.cli import main


class TestSimulate:
    def test_runs_and_reports(self, capsys, tmp_path):
        dump = tmp_path / "log.z"
        code = main([
            "simulate", "--racks", "3", "--servers-per-rack", "4",
            "--duration", "20", "--seed", "3", "--dump-log", str(dump),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "transfers_completed" in out
        assert dump.exists()
        assert dump.stat().st_size > 0

    def test_deterministic_across_invocations(self, capsys):
        main(["simulate", "--racks", "3", "--servers-per-rack", "4",
              "--duration", "20", "--seed", "3"])
        first = capsys.readouterr().out
        main(["simulate", "--racks", "3", "--servers-per-rack", "4",
              "--duration", "20", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestSimulateTelemetry:
    def test_telemetry_smoke(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "simulate", "--racks", "3", "--servers-per-rack", "4",
            "--duration", "20", "--seed", "123",
            "--telemetry", "--trace-out", str(trace),
            "--manifest-out", str(manifest_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        # At least one progress heartbeat on stderr.
        heartbeats = [line for line in captured.err.splitlines()
                      if line.startswith("[telemetry]")]
        assert len(heartbeats) >= 1
        assert "events=" in heartbeats[0]
        # Valid JSONL trace with nested spans covering the pipeline.
        spans = [json.loads(line) for line in
                 trace.read_text().strip().splitlines()]
        names = {span["name"] for span in spans}
        assert {"simulate.campaign", "simulate.engine_run",
                "simulate.transport_settle",
                "simulate.workload_schedule"} <= names
        campaign = next(s for s in spans if s["name"] == "simulate.campaign")
        engine_run = next(s for s in spans if s["name"] == "simulate.engine_run")
        assert engine_run["parent_id"] == campaign["span_id"]
        # Manifest records config, seed and a rich metrics snapshot.
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == 123
        assert manifest["config"]["cluster"]["racks"] == 3
        assert len(manifest["metrics"]) >= 10
        assert "dataset.cache_misses" in manifest["metrics"]
        assert "dataset.cache_hits" in manifest["metrics"]
        assert manifest["metrics"]["engine.events_processed"]["value"] > 0

    def test_manifest_path_derived_from_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main([
            "simulate", "--racks", "3", "--servers-per-rack", "4",
            "--duration", "20", "--seed", "124", "--trace-out", str(trace),
        ])
        assert code == 0
        assert (tmp_path / "t.jsonl.manifest.json").exists()

    def test_telemetry_report_renders_tables(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        main([
            "simulate", "--racks", "3", "--servers-per-rack", "4",
            "--duration", "20", "--seed", "125",
            "--trace-out", str(trace), "--manifest-out", str(manifest_path),
        ])
        capsys.readouterr()
        code = main(["telemetry-report", str(trace),
                     "--manifest", str(manifest_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulate.engine_run" in out
        assert "engine.events_processed" in out
        assert "seed=125" in out

    def test_telemetry_report_without_inputs_fails(self, capsys):
        assert main(["telemetry-report"]) == 2
        assert "nothing to report" in capsys.readouterr().err

    def test_telemetry_report_aggregates_many_traces(self, capsys, tmp_path):
        for seed in (1, 2):
            main([
                "simulate", "--racks", "3", "--servers-per-rack", "4",
                "--duration", "20", "--seed", str(seed),
                "--trace-out", str(tmp_path / f"trace{seed}.jsonl"),
            ])
        capsys.readouterr()
        code = main(["telemetry-report", str(tmp_path / "trace*.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 traces" in out
        # Each simulate contributes one engine run to the rollup.
        line = next(l for l in out.splitlines()
                    if l.startswith("simulate.engine_run"))
        assert line.split("|")[1].strip() == "2"

    def test_telemetry_report_unmatched_glob_fails(self, capsys, tmp_path):
        assert main(["telemetry-report", str(tmp_path / "nope*.jsonl")]) == 2
        assert "no trace matches" in capsys.readouterr().err


class TestFigures:
    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_single_figure_runs(self, capsys):
        code = main(["figures", "fig09"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "paper" in out


class TestAblations:
    def test_unknown_ablation_rejected(self, capsys):
        assert main(["ablations", "nope"]) == 2
        assert "unknown ablations" in capsys.readouterr().err

    def test_gravity_ablation_runs(self, capsys):
        code = main(["ablations", "gravity", "--seed", "5"])
        assert code == 0
        assert "ISP regime" in capsys.readouterr().out


class TestFiguresList:
    def test_lists_the_whole_registry(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "experiment registry" in out
        for name in ("fig02", "fig14", "table_s2", "ext_sampling", "gravity"):
            assert name in out


class TestCampaign:
    def test_run_then_report(self, capsys, tmp_path, dataset):
        # The session dataset fixture pre-warms the in-memory cache for
        # the default small config, so a 1-seed campaign is instant.
        manifest_path = tmp_path / "campaign.json"
        code = main([
            "campaign", "run", "--seeds", "1", "--jobs", "1",
            "--experiments", "fig09",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest-out", str(manifest_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "mean ± 95% CI" in captured.out
        assert "[campaign] seed" in captured.err
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["extra"]["campaign"]["per_seed"]) == 1

        assert main(["campaign", "report", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "mean ± 95% CI" in out

    def test_run_writes_timeline_next_to_manifest(self, capsys, tmp_path,
                                                  dataset):
        manifest_path = tmp_path / "campaign-manifest.json"
        code = main([
            "campaign", "run", "--seeds", "1", "--jobs", "1",
            "--experiments", "fig09",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest-out", str(manifest_path),
        ])
        assert code == 0
        assert "wrote campaign timeline" in capsys.readouterr().out
        timeline_path = tmp_path / "campaign-timeline.json"
        assert timeline_path.exists()
        timeline = json.loads(timeline_path.read_text())
        assert timeline["kind"] == "campaign-timeline"
        assert timeline["coverage"] > 0

        assert main(["telemetry", "timeline", str(timeline_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign timeline" in out
        assert "phase key:" in out

        assert main(["telemetry", "diff", str(timeline_path),
                     str(timeline_path)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_heartbeat_flag_prints_seed_progress(self, capsys, tmp_path):
        # A fresh base seed sidesteps the session dataset cache — the
        # heartbeat only fires while a dataset actually simulates.
        code = main([
            "campaign", "run", "--seeds", "1", "--base-seed", "321",
            "--jobs", "1", "--experiments", "fig09", "--no-disk-cache",
            "--heartbeat", "5",
            "--manifest-out", str(tmp_path / "m.json"),
            "--timeline-out", str(tmp_path / "t.json"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[campaign seed" in err
        assert (tmp_path / "t.json").exists()

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["campaign", "run", "--seeds", "1",
                     "--experiments", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_report_rejects_non_campaign_manifest(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["simulate", "--racks", "3", "--servers-per-rack", "4",
              "--duration", "20", "--seed", "9", "--trace-out", str(trace)])
        capsys.readouterr()
        manifest = tmp_path / "t.jsonl.manifest.json"
        assert main(["campaign", "report", str(manifest)]) == 2
        assert "no campaign record" in capsys.readouterr().err


class TestCache:
    def test_ls_and_clear(self, capsys, tmp_path, dataset):
        cache_dir = tmp_path / "cache"
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        assert "no cached datasets" in capsys.readouterr().out

        main(["campaign", "run", "--seeds", "1", "--experiments", "fig09",
              "--cache-dir", str(cache_dir),
              "--manifest-out", str(tmp_path / "m.json")])
        capsys.readouterr()

        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "dataset cache" in out
        assert str(dataset.config.seed) in out

        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 cached dataset(s)" in capsys.readouterr().out
