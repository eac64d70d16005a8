"""Work-queue scheduler: leases, crash injection, resume determinism.

Three layers, mirroring the scheduler's own structure:

* lease / result primitives — ``O_CREAT|O_EXCL`` single-winner claims,
  staleness (dead pid, old heartbeat), token-checked release, atomic
  idempotent publication;
* the queue end to end — serial and multi-worker runs, multi-worker
  lanes, resume-after-interrupt identity;
* crash injection — a worker (or, serially, the CLI process itself)
  SIGKILLs itself mid-unit via the ``REPRO_SCHEDULER_KILL`` hook, and
  the campaign still finishes, counting the takeover.

Every determinism check compares against an oracle that involves no
executor at all: per-seed content hashes and aggregates from direct
:func:`~repro.experiments.common.build_dataset` calls.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster.topology import ClusterSpec
from repro.config import SimulationConfig
from repro.experiments.cache import config_fingerprint, dataset_content_hash
from repro.experiments.campaign import (
    SeedRun,
    aggregate_summaries,
    render_campaign_report,
    run_campaign,
)
from repro.experiments.common import (
    build_dataset,
    clear_dataset_cache,
    small_config,
)
from repro.experiments.registry import get_experiment
from repro.experiments.scheduler import (
    KILL_ENV,
    Lease,
    campaign_queue_id,
    claim_lease,
    lease_is_stale,
    load_result,
    publish_result,
    queue_dir_for,
    queue_status,
    read_lease,
    reset_queue,
)
from repro.workload.generator import WorkloadConfig

MICRO_EXPERIMENTS = ["fig02", "fig09"]

#: The package source root, for CLI subprocesses.
_SRC = Path(__file__).resolve().parents[1] / "src"


def micro_config(seed: int = 3) -> SimulationConfig:
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
    yield
    clear_dataset_cache()


def _hashes(result) -> dict[int, str]:
    return {run.seed: run.content_hash for run in result.seed_runs}


def _direct(config: SimulationConfig, seeds, experiments):
    """``(hashes, aggregates)`` from direct builds, bypassing the queue.

    The in-memory dataset cache is cleared afterwards so a campaign run
    in this process rebuilds instead of reusing these objects.
    """
    hashes = {}
    runs = []
    for seed in seeds:
        dataset = build_dataset(config.with_seed(seed), disk_cache=False)
        hashes[seed] = dataset_content_hash(dataset)
        summaries = {}
        for name in experiments:
            spec = get_experiment(name)
            summaries[name] = spec.summary(spec.run(dataset))
        runs.append(SeedRun(
            seed=seed, fingerprint="", content_hash=hashes[seed],
            wall_seconds=0.0, build_seconds=0.0, from_disk_cache=False,
            summaries=summaries,
        ))
    clear_dataset_cache()
    return hashes, aggregate_summaries(runs, experiments)


def _assert_matches_direct(result, experiments) -> None:
    hashes, aggregates = _direct(result.base_config, result.seeds,
                                 experiments)
    assert _hashes(result) == hashes
    assert result.aggregates == aggregates


# ------------------------------------------------------------------ primitives


class TestLeasePrimitives:
    def test_exactly_one_winner(self, tmp_path):
        key = "a" * 64
        first, takeover1 = claim_lease(tmp_path, key, ttl=30.0)
        second, takeover2 = claim_lease(tmp_path, key, ttl=30.0)
        assert first is not None and not takeover1
        assert second is None and not takeover2
        body = read_lease(tmp_path / f"{key}.lease")
        assert body["pid"] == os.getpid()
        assert body["token"] == first.token
        first.release()
        assert not (tmp_path / f"{key}.lease").exists()

    def test_dead_pid_makes_lease_stale_immediately(self):
        fresh = {"pid": os.getpid(), "host": __import__("socket").gethostname(),
                 "heartbeat": time.time(), "ttl": 30.0}
        assert not lease_is_stale(fresh)
        # pid 2**22-1 is above the default Linux pid_max: never alive.
        dead = dict(fresh, pid=(1 << 22) - 1)
        assert lease_is_stale(dead)

    def test_old_heartbeat_makes_lease_stale(self):
        lease = {"pid": os.getpid(), "host": "elsewhere",
                 "heartbeat": time.time() - 10.0, "ttl": 5.0}
        assert lease_is_stale(lease)
        lease["heartbeat"] = time.time()
        assert not lease_is_stale(lease)

    def test_takeover_of_stale_lease(self, tmp_path):
        key = "b" * 64
        path = tmp_path / f"{key}.lease"
        path.write_text(json.dumps({
            "pid": (1 << 22) - 1, "host": __import__("socket").gethostname(),
            "token": "dead", "heartbeat": time.time() - 100.0, "ttl": 1.0,
        }))
        lease, takeover = claim_lease(tmp_path, key, ttl=30.0)
        assert lease is not None and takeover
        assert read_lease(path)["token"] == lease.token
        lease.release()

    def test_release_is_token_checked(self, tmp_path):
        key = "c" * 64
        path = tmp_path / f"{key}.lease"
        stale = Lease(path, ttl=30.0)
        assert stale.acquire()
        # Another worker presumes us dead and takes over.
        path.write_text(json.dumps({
            "pid": os.getpid(), "host": "host", "token": "other",
            "heartbeat": time.time(), "ttl": 30.0,
        }))
        stale.release()
        assert path.exists(), "release must not unlink a successor's lease"
        assert read_lease(path)["token"] == "other"
        os.unlink(path)

    def test_renewer_refreshes_heartbeat(self, tmp_path):
        lease = Lease(tmp_path / ("d" * 64 + ".lease"), ttl=0.4)
        assert lease.acquire()
        first = read_lease(lease.path)["heartbeat"]
        time.sleep(0.3)
        assert read_lease(lease.path)["heartbeat"] > first
        lease.release()


class TestResultFiles:
    RECORD = {
        "seed": 7, "fingerprint": "e" * 64, "content_hash": "f" * 64,
        "wall_seconds": 1.0, "build_seconds": 0.5, "from_disk_cache": False,
        "summaries": {"fig02": {"rows": 3}},
        "report": {"not": "persisted"}, "takeover": True,
    }

    def test_publish_then_load_round_trip(self, tmp_path):
        publish_result(tmp_path, self.RECORD["fingerprint"], self.RECORD)
        loaded = load_result(tmp_path, self.RECORD["fingerprint"])
        assert loaded["seed"] == 7
        assert loaded["summaries"] == self.RECORD["summaries"]
        # Non-resumable fields (telemetry report, flags) are not persisted.
        assert "report" not in loaded and "takeover" not in loaded

    def test_load_rejects_mismatched_fingerprint(self, tmp_path):
        publish_result(tmp_path, self.RECORD["fingerprint"], self.RECORD)
        wrong = dict(self.RECORD, fingerprint="0" * 64)
        publish_result(tmp_path, "0" * 64, wrong)
        os.replace(tmp_path / ("0" * 64 + ".result.json"),
                   tmp_path / ("1" * 64 + ".result.json"))
        assert load_result(tmp_path, "1" * 64) is None

    def test_load_rejects_corrupt_and_partial(self, tmp_path):
        key = "2" * 64
        assert load_result(tmp_path, key) is None
        (tmp_path / f"{key}.result.json").write_text("{not json")
        assert load_result(tmp_path, key) is None
        (tmp_path / f"{key}.result.json").write_text(
            json.dumps({"seed": 1, "fingerprint": key})
        )
        assert load_result(tmp_path, key) is None

    def test_reset_queue_clears_artifacts(self, tmp_path):
        publish_result(tmp_path, self.RECORD["fingerprint"], self.RECORD)
        lease, _ = claim_lease(tmp_path, "3" * 64, ttl=30.0)
        (tmp_path / "x.killed").write_text("")
        lease._stop.set()  # keep the file; just stop the renewer
        lease._thread.join(timeout=2.0)
        assert reset_queue(tmp_path) == 3
        assert list(tmp_path.iterdir()) == []


class TestQueueStatus:
    def test_states_classified(self, tmp_path):
        config = micro_config()
        seeds = [3, 4, 5, 6]
        qid = campaign_queue_id(config, seeds, ["fig09"])
        qdir = queue_dir_for(qid, tmp_path)
        qdir.mkdir(parents=True)
        keys = {s: config_fingerprint(config.with_seed(s)) for s in seeds}
        publish_result(qdir, keys[3], {
            "seed": 3, "fingerprint": keys[3], "content_hash": "x" * 64,
            "wall_seconds": 0.1, "build_seconds": 0.1,
            "from_disk_cache": True, "summaries": {},
        })
        live, _ = claim_lease(qdir, keys[4], ttl=30.0)
        (qdir / f"{keys[5]}.lease").write_text(json.dumps({
            "pid": (1 << 22) - 1, "host": __import__("socket").gethostname(),
            "token": "t", "heartbeat": time.time() - 999.0, "ttl": 1.0,
        }))
        status = queue_status(config, seeds, ["fig09"], cache_dir=tmp_path)
        live.release()
        assert status["queue_id"] == qid and status["exists"]
        states = {u["seed"]: u["state"] for u in status["units"]}
        assert states == {3: "done", 4: "leased", 5: "stale", 6: "pending"}
        assert status["counts"] == {"done": 1, "leased": 1, "stale": 1,
                                    "pending": 1}


# ---------------------------------------------------------------- the queue


class TestWarmPool:
    def test_serial_queue_matches_direct_build(self, tmp_path):
        serial = run_campaign(micro_config(), seeds=[3, 4],
                              experiments=MICRO_EXPERIMENTS, jobs=1,
                              cache_dir=tmp_path / "serial")
        _assert_matches_direct(serial, MICRO_EXPERIMENTS)
        assert serial.scheduler["queue_id"]
        assert serial.scheduler["takeovers"] == 0
        assert "claim" in serial.timeline.get("phase_totals", {})

    def test_parallel_workers_share_one_queue(self, tmp_path):
        seeds = [3, 4, 5]
        warm = run_campaign(micro_config(), seeds=seeds,
                            experiments=["fig09"], jobs=2,
                            cache_dir=tmp_path / "warm")
        _assert_matches_direct(warm, ["fig09"])
        lanes = warm.timeline.get("lanes", [])
        worker_segments = [
            segment
            for lane in lanes
            for segment in lane.get("segments", [])
            if segment.get("seed") is not None
        ]
        assert len(worker_segments) == len(seeds)
        # No queue artefacts left behind except the published results.
        qdir = queue_dir_for(warm.scheduler["queue_id"], tmp_path / "warm")
        leftovers = {p.name.split(".", 1)[1] for p in qdir.iterdir()}
        assert leftovers == {"result.json"}

    def test_resume_loads_everything_without_recompute(self, tmp_path):
        seeds = [3, 4]
        cache = tmp_path / "cache"
        first = run_campaign(micro_config(), seeds=seeds,
                             experiments=["fig09"], jobs=1,
                             cache_dir=cache)
        clear_dataset_cache()
        again = run_campaign(micro_config(), seeds=seeds,
                             experiments=["fig09"], jobs=1,
                             cache_dir=cache, resume=True)
        assert again.scheduler["resumed_seeds"] == seeds
        assert all(run.resumed for run in again.seed_runs)
        assert _hashes(first) == _hashes(again)
        assert first.aggregates == again.aggregates
        _assert_matches_direct(again, ["fig09"])
        # Resumed units contribute no fresh worker segments to the
        # timeline (only the parent's own merge lane remains).
        assert not [
            segment
            for lane in again.timeline.get("lanes", [])
            for segment in lane.get("segments", [])
            if segment.get("seed") is not None
        ]

    @pytest.mark.parametrize("damage,jobs", [
        pytest.param("deleted", 1, id="deleted"),
        pytest.param("truncated", 1, id="truncated"),
        pytest.param("truncated", 2, id="truncated-jobs2"),
    ])
    def test_resume_completes_a_partial_queue(self, tmp_path, damage, jobs):
        """An interrupted run lost seed 4's result, or left it partial.

        A truncated result file is not a result: ``campaign status``
        must not count it as done, and a resumed run (serial or
        parallel) must recompute the unit and republish over it.
        """
        config = micro_config()
        seeds = [3, 4]
        cache = tmp_path / "cache"
        full = run_campaign(config, seeds=seeds, experiments=["fig09"],
                            jobs=1, cache_dir=cache)
        qdir = queue_dir_for(full.scheduler["queue_id"], cache)
        victim = config_fingerprint(config.with_seed(4))
        path = qdir / f"{victim}.result.json"
        if damage == "deleted":
            os.unlink(path)
        else:
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
            status = queue_status(config, seeds, ["fig09"], cache_dir=cache)
            states = {u["seed"]: u["state"] for u in status["units"]}
            assert states == {3: "done", 4: "pending"}
        clear_dataset_cache()
        resumed = run_campaign(config, seeds=seeds, experiments=["fig09"],
                               jobs=jobs, cache_dir=cache, resume=True)
        assert resumed.scheduler["resumed_seeds"] == [3]
        by_seed = {run.seed: run for run in resumed.seed_runs}
        assert by_seed[3].resumed and not by_seed[4].resumed
        assert by_seed[4].from_disk_cache  # dataset survived the interrupt
        assert load_result(qdir, victim) is not None
        assert _hashes(full) == _hashes(resumed)
        assert full.aggregates == resumed.aggregates
        _assert_matches_direct(resumed, ["fig09"])

    def test_lease_wait_phase_billed_while_blocked(self, tmp_path):
        config = micro_config()
        cache = tmp_path / "cache"
        run_campaign(config, seeds=[3], experiments=["fig09"], jobs=1,
                     cache_dir=cache)  # warm the disk cache
        qid = campaign_queue_id(config, [3], ["fig09"])
        qdir = queue_dir_for(qid, cache)
        key = config_fingerprint(config.with_seed(3))
        # Forget the published result (keep the warm dataset cache) so
        # the resumed run must re-claim the unit — and wait for us.
        os.unlink(qdir / f"{key}.result.json")
        blocker, _ = claim_lease(qdir, key, ttl=30.0)
        assert blocker is not None
        timer = threading.Timer(0.3, blocker.release)
        timer.start()
        try:
            result = run_campaign(config, seeds=[3], experiments=["fig09"],
                                  jobs=1, cache_dir=cache, resume=True)
        finally:
            timer.cancel()
        assert "lease-wait" in result.timeline["phase_totals"]
        assert result.timeline["phase_totals"]["lease-wait"] >= 0.2


# ------------------------------------------------------------- crash injection


class TestCrashInjection:
    def test_sigkill_mid_claim_is_taken_over(self, tmp_path, monkeypatch):
        """A worker dies holding a lease; the campaign still finishes.

        The victim is SIGKILLed right after winning the lease for seed 4
        (the ``claimed`` stage), before any compute.  The surviving
        worker (or a respawn) finds the dead pid's lease, takes it over,
        and the final hashes are bit-identical to direct builds.
        """
        monkeypatch.setenv(KILL_ENV, "4:claimed")
        killed = run_campaign(micro_config(), seeds=[3, 4, 5],
                              experiments=["fig09"], jobs=2,
                              cache_dir=tmp_path / "warm", lease_ttl=4.0)
        assert killed.scheduler["takeovers"] >= 1
        _assert_matches_direct(killed, ["fig09"])
        assert "claim" in killed.timeline.get("phase_totals", {})

    def test_sigkill_after_publish_no_duplicate_build(self, tmp_path,
                                                      monkeypatch):
        """A worker dies after storing the dataset but before the result.

        The takeover must not rebuild: the dataset is already in the
        disk cache, so the redo of seed 3 loads it instead of
        simulating — ``from_disk_cache`` is True.
        """
        monkeypatch.setenv(KILL_ENV, "3:published")
        killed = run_campaign(micro_config(), seeds=[3, 4],
                              experiments=["fig09"], jobs=2,
                              cache_dir=tmp_path / "warm", lease_ttl=2.0)
        assert killed.scheduler["takeovers"] >= 1
        _assert_matches_direct(killed, ["fig09"])
        by_seed = {run.seed: run for run in killed.seed_runs}
        assert by_seed[3].from_disk_cache

    def test_serial_cli_sigkill_then_resume(self, tmp_path, capsys):
        """The serial CLI process dies mid-campaign; ``--resume`` finishes.

        ``repro campaign run --jobs 1`` SIGKILLs itself once the second
        seed's dataset is in the cache but before its result is
        published.  The first seed's result is published and the second
        seed's lease names a dead pid, so ``campaign status`` reports it
        stale, and ``--resume`` takes it over and ends with the hashes
        and aggregates of direct builds.
        """
        from repro.cli import main

        config = small_config()
        seeds = (config.seed, config.seed + 1)
        cache = tmp_path / "cache"
        # Pre-fill the disk cache so neither run has to simulate.
        for seed in seeds:
            build_dataset(config.with_seed(seed), cache_dir=cache)
        hashes, aggregates = _direct(config, seeds, ["fig09"])
        args = ["campaign", "run", "--seeds", "2", "--jobs", "1",
                "--experiments", "fig09", "--cache-dir", str(cache)]
        env = dict(os.environ, PYTHONPATH=str(_SRC),
                   **{KILL_ENV: f"{seeds[1]}:published"})
        killed = subprocess.run(
            [sys.executable, "-m", "repro", *args,
             "--manifest-out", str(tmp_path / "killed.json")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert not (tmp_path / "killed.json").exists()

        assert main(["campaign", "status", "--seeds", "2",
                     "--experiments", "fig09", "--cache-dir", str(cache)]) == 0
        assert "1/2 done, 0 leased, 1 stale, 0 pending" in \
            capsys.readouterr().out

        manifest_path = tmp_path / "resumed.json"
        assert main([*args, "--resume",
                     "--manifest-out", str(manifest_path)]) == 0
        campaign = json.loads(manifest_path.read_text())["extra"]["campaign"]
        assert campaign["scheduler"]["resumed_seeds"] == [seeds[0]]
        assert campaign["scheduler"]["takeovers"] == 1
        assert {row["seed"]: row["content_hash"]
                for row in campaign["per_seed"]} == hashes
        assert campaign["aggregates"] == aggregates


# ----------------------------------------------------------- partial manifests


class TestPartialReport:
    def test_report_degrades_on_interrupted_manifest(self, tmp_path):
        result = run_campaign(micro_config(), seeds=[3, 4],
                              experiments=["fig09"], jobs=1,
                              cache_dir=tmp_path)
        payload = result.extra()
        # An interrupted run: one seed never published, one is partial.
        payload["seeds"] = [3, 4, 5]
        payload["per_seed"] = [
            payload["per_seed"][0],
            {"seed": 4},  # claimed but crashed before any fields landed
        ]
        text = render_campaign_report(payload)
        assert "INCOMPLETE" in text
        assert "missing" in text
        assert "fig09" in text  # the completed seed still renders

    def test_report_of_complete_run_is_unchanged(self, tmp_path):
        result = run_campaign(micro_config(), seeds=[3], experiments=["fig09"],
                              jobs=1, cache_dir=tmp_path)
        text = render_campaign_report(result.extra())
        assert "INCOMPLETE" not in text
