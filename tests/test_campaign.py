"""Multi-seed campaign runner: determinism, parallelism, aggregation."""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster.topology import ClusterSpec
from repro.config import SimulationConfig
from repro.experiments.campaign import (
    SeedRun,
    aggregate_summaries,
    campaign_manifest,
    render_campaign_report,
    run_campaign,
)
from repro.experiments.common import clear_dataset_cache
from repro.telemetry import RunManifest, Telemetry
from repro.workload.generator import WorkloadConfig

#: Experiments that are meaningful on a seconds-long micro campaign.
MICRO_EXPERIMENTS = ["fig02", "fig09"]


def micro_config(seed: int = 3) -> SimulationConfig:
    """A campaign small enough that multi-seed tests stay in seconds."""
    return SimulationConfig(
        cluster=ClusterSpec(racks=3, servers_per_rack=4, racks_per_vlan=2,
                            external_hosts=1),
        workload=WorkloadConfig(job_arrival_rate=0.3, day_load_factors=(1.0,),
                                day_length=40.0),
        duration=40.0,
        seed=seed,
    )


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    # Campaign tests build several micro datasets; keep them away from
    # the session-wide small-campaign cache entry.
    yield
    clear_dataset_cache()


class TestSerialVsParallel:
    def test_identical_per_seed_summary_rows(self, tmp_path):
        seeds = [3, 4]
        serial = run_campaign(
            micro_config(), seeds=seeds, experiments=MICRO_EXPERIMENTS,
            jobs=1, cache_dir=tmp_path / "serial",
        )
        parallel = run_campaign(
            micro_config(), seeds=seeds, experiments=MICRO_EXPERIMENTS,
            jobs=2, cache_dir=tmp_path / "parallel",
        )
        assert [run.seed for run in serial.seed_runs] == seeds
        assert [run.seed for run in parallel.seed_runs] == seeds
        for serial_run, parallel_run in zip(serial.seed_runs, parallel.seed_runs):
            # Identical seed => identical dataset content hash, whether the
            # dataset was built in-process or inside a spawned worker.
            assert serial_run.content_hash == parallel_run.content_hash
            assert serial_run.fingerprint == parallel_run.fingerprint
            assert serial_run.summaries == parallel_run.summaries
        assert serial.aggregates == parallel.aggregates

    def test_warm_disk_cache_rebuilds_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_campaign(
            micro_config(), seeds=[5, 6], experiments=["fig09"],
            jobs=1, cache_dir=cache_dir,
        )
        clear_dataset_cache()  # a second cold process
        tele = Telemetry()
        warm = run_campaign(
            micro_config(), seeds=[5, 6], experiments=["fig09"],
            jobs=1, cache_dir=cache_dir, telemetry=tele,
        )
        assert all(run.from_disk_cache for run in warm.seed_runs)
        snapshot = tele.metrics.snapshot()
        assert snapshot["dataset.disk_cache_hits"]["value"] == 2
        assert [run.summaries for run in warm.seed_runs] == [
            run.summaries for run in cold.seed_runs
        ]


class TestRunnerContract:
    def test_seed_count_expands_from_base_seed(self):
        result = run_campaign(
            micro_config(seed=9), seeds=2, experiments=["fig09"],
            jobs=1, disk_cache=False,
        )
        assert result.seeds == [9, 10]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="seeds"):
            run_campaign(micro_config(), seeds=0, experiments=["fig09"])
        with pytest.raises(ValueError, match="distinct"):
            run_campaign(micro_config(), seeds=[1, 1], experiments=["fig09"])
        with pytest.raises(KeyError, match="fig99"):
            run_campaign(micro_config(), seeds=1, experiments=["fig99"])

    def test_rejects_non_positive_lease_ttl(self, capsys):
        from repro.cli import main

        for ttl in (0, -1.5):
            with pytest.raises(ValueError, match="lease_ttl must be positive"):
                run_campaign(micro_config(), seeds=1, experiments=["fig09"],
                             lease_ttl=ttl)
            assert main(["campaign", "run", "--seeds", "1",
                         "--experiments", "fig09", f"--lease-ttl={ttl}"]) == 2
            assert "lease_ttl must be positive" in capsys.readouterr().err

    def test_progress_callback_sees_every_seed(self):
        seen = []
        run_campaign(
            micro_config(), seeds=[7, 8], experiments=["fig09"], jobs=1,
            disk_cache=False,
            progress=lambda record, done, total: seen.append(
                (record["seed"], done, total)
            ),
        )
        assert [entry[0] for entry in seen] == [7, 8]
        assert seen[-1][1:] == (2, 2)


class TestAggregation:
    def _runs(self):
        return [
            SeedRun(seed=1, fingerprint="f1", content_hash="c1",
                    wall_seconds=1.0, build_seconds=0.5, from_disk_cache=False,
                    summaries={"exp": {"metric": 1.0}}),
            SeedRun(seed=2, fingerprint="f2", content_hash="c2",
                    wall_seconds=1.0, build_seconds=0.5, from_disk_cache=False,
                    summaries={"exp": {"metric": 3.0}}),
        ]

    def test_mean_stdev_ci(self):
        aggregates = aggregate_summaries(self._runs(), ["exp"])
        agg = aggregates["exp"]["metric"]
        assert agg["mean"] == pytest.approx(2.0)
        assert agg["stdev"] == pytest.approx(math.sqrt(2.0))
        assert agg["ci95"] == pytest.approx(1.96 * math.sqrt(2.0) / math.sqrt(2),
                                            rel=1e-3)
        assert agg["n"] == 2
        assert (agg["min"], agg["max"]) == (1.0, 3.0)

    def test_single_seed_degenerates_gracefully(self):
        aggregates = aggregate_summaries(self._runs()[:1], ["exp"])
        agg = aggregates["exp"]["metric"]
        assert agg["stdev"] == 0.0 and agg["ci95"] == 0.0 and agg["n"] == 1

    def test_metric_missing_for_some_seeds_uses_available(self):
        runs = self._runs()
        runs[1].summaries["exp"].pop("metric")
        runs[1].summaries["exp"]["other"] = 5.0
        aggregates = aggregate_summaries(runs, ["exp"])
        assert aggregates["exp"]["metric"]["n"] == 1
        assert aggregates["exp"]["other"]["n"] == 1


class TestManifestAndReport:
    def test_manifest_round_trip(self, tmp_path):
        tele = Telemetry()
        result = run_campaign(
            micro_config(), seeds=[11, 12], experiments=["fig09"], jobs=1,
            disk_cache=False, telemetry=tele,
        )
        manifest = campaign_manifest(result, tele)
        path = tmp_path / "campaign.json"
        manifest.write(path)

        raw = json.loads(path.read_text())
        campaign = raw["extra"]["campaign"]
        assert campaign["seeds"] == [11, 12]
        assert len(campaign["per_seed"]) == 2
        for row in campaign["per_seed"]:
            assert set(row) >= {"seed", "content_hash", "wall_seconds",
                                "summaries"}
        assert campaign["aggregates"]["fig09"]
        metric = next(iter(campaign["aggregates"]["fig09"].values()))
        assert set(metric) == {"mean", "stdev", "ci95", "n", "min", "max"}
        assert raw["metrics"]["campaign.seeds_completed"]["value"] == 2

        loaded = RunManifest.load(path)
        report = render_campaign_report(loaded.extra["campaign"])
        assert "mean ± 95% CI" in report
        assert "fig09" in report
        assert "where the wall-clock went" in report


class TestCampaignTimeline:
    def test_serial_campaign_produces_timeline(self):
        result = run_campaign(
            micro_config(), seeds=[13, 14], experiments=["fig09"], jobs=1,
            disk_cache=False, campaign_id="serial-test",
        )
        timeline = result.timeline
        assert result.campaign_id == "serial-test"
        assert timeline["kind"] == "campaign-timeline"
        assert timeline["seeds"] == [13, 14]
        labels = [lane["label"] for lane in timeline["lanes"]]
        assert labels[-1] == "parent"
        # A serial run is one worker lane (the parent pid) + the merge lane.
        assert len(labels) == 2
        phases = {
            phase["name"]
            for lane in timeline["lanes"]
            for segment in lane["segments"]
            for phase in segment["phases"]
        }
        assert {"dataset-load", "compute", "merge"} <= phases
        json.dumps(timeline)

    def test_parallel_timeline_covers_campaign_wall_clock(self, tmp_path):
        result = run_campaign(
            micro_config(), seeds=[3, 4, 5, 6], experiments=["fig09"],
            jobs=2, cache_dir=tmp_path / "cache",
        )
        timeline = result.timeline
        assert timeline["jobs"] == 2
        # Acceptance bar: per-worker lanes account for >= 95% of the
        # campaign window, split into named phases.
        assert timeline["coverage"] >= 0.95
        worker_lanes = [lane for lane in timeline["lanes"]
                        if lane["label"] != "parent"]
        assert sorted(s for lane in worker_lanes for s in lane["seeds"]) == \
            [3, 4, 5, 6]
        for lane in worker_lanes:
            assert all(segment["phases"] for segment in lane["segments"])
        extra = result.extra()
        assert extra["campaign_id"] == result.campaign_id
        assert extra["observability"]["coverage"] == timeline["coverage"]
        assert extra["observability"]["phase_totals"] == \
            timeline["phase_totals"]

    def test_campaign_metrics_travel_from_workers(self):
        tele = Telemetry()
        run_campaign(
            micro_config(), seeds=[15, 16], experiments=["fig09"], jobs=1,
            disk_cache=False, telemetry=tele,
        )
        snapshot = tele.metrics.snapshot()
        # Engine counters now come from the merged worker registries,
        # not just the parent process.
        assert snapshot["campaign.seeds_completed"]["value"] == 2
        assert snapshot["engine.events_processed"]["value"] > 0
