"""The on-disk trace store: writer, reader, recording, analysis, CLI."""

import json
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.topology import ClusterSpec
from repro.config import SimulationConfig, WorkloadConfig
from repro.core.flows import reconstruct_flows
from repro.core.traffic_matrix import tm_series_from_events
from repro.instrumentation.events import DIRECTION_SEND, SocketEventLog
from repro.simulation.simulator import Simulator
from repro.telemetry import Telemetry
from repro.trace import (
    TraceReader,
    TraceWriter,
    analyze_trace,
    as_event_log,
    check_against_inmemory,
    find_traces,
    record_trace,
)
from repro.trace.format import read_manifest, write_manifest

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def micro_config(seed: int = 3) -> SimulationConfig:
    return SimulationConfig(
        cluster=ClusterSpec(racks=3, servers_per_rack=4, racks_per_vlan=2,
                            external_hosts=1),
        workload=WorkloadConfig(job_arrival_rate=0.3, day_load_factors=(1.0,),
                                day_length=40.0),
        duration=40.0,
        seed=seed,
    )


def synthetic_log(num_events=120, seed=17):
    rng = np.random.default_rng(seed)
    log = SocketEventLog()
    for t in np.sort(rng.uniform(0.0, 30.0, size=num_events)):
        log.append(
            timestamp=float(t), server=int(rng.integers(0, 8)),
            direction=DIRECTION_SEND, src=int(rng.integers(0, 8)),
            src_port=8400, dst=int(rng.integers(0, 8)), dst_port=50000,
            protocol=6, num_bytes=float(rng.integers(1, 5000)),
            job_id=1, phase_index=0,
        )
    log.finalize()
    return log


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded micro trace shared by the read-only tests."""
    path = tmp_path_factory.mktemp("traces") / "micro.reprotrace"
    record = record_trace(micro_config(), path, chunk_size=500)
    return path, record


class TestWriterReader:
    def test_round_trip_is_exact(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=50) as writer:
            writer.append_log(log)
        reader = TraceReader(path)
        back = reader.read_all()
        for name in log.to_columns():
            assert np.array_equal(back.column(name), log.column(name)), name

    def test_chunking_respects_chunk_size(self, tmp_path):
        log = synthetic_log(num_events=120)
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=50) as writer:
            writer.append_log(log)
        reader = TraceReader(path)
        assert reader.num_chunks == 3
        assert [entry["rows"] for entry in reader.chunks] == [50, 50, 20]
        assert reader.total_rows == 120

    def test_chunk_time_ranges_cover_span(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=40) as writer:
            writer.append_log(log)
        reader = TraceReader(path)
        first, last = reader.time_span()
        assert first == log.column("timestamp")[0]
        assert last == log.column("timestamp")[-1]
        mins = [entry["t_min"] for entry in reader.chunks]
        assert mins == sorted(mins)

    def test_content_hashes_deterministic(self, tmp_path):
        log = synthetic_log()
        hashes = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.reprotrace"
            with TraceWriter(path, chunk_size=30) as writer:
                writer.append_log(log)
            hashes.append([e["sha256"] for e in TraceReader(path).chunks])
        assert hashes[0] == hashes[1]

    def test_verify_detects_corruption(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=60) as writer:
            writer.append_log(log)
        reader = TraceReader(path)
        assert reader.verify() == []
        victim = path / reader.chunks[0]["file"]
        columns = dict(np.load(victim))
        columns["num_bytes"] = columns["num_bytes"] + 1.0
        np.savez_compressed(victim, **columns)
        assert TraceReader(path).verify() == [reader.chunks[0]["file"]]

    def test_empty_trace_round_trip(self, tmp_path):
        path = tmp_path / "empty.reprotrace"
        with TraceWriter(path, chunk_size=10):
            pass
        reader = TraceReader(path)
        assert reader.num_chunks == 0
        assert reader.total_rows == 0
        log = reader.read_all()
        assert len(log) == 0
        # Empty logs flow through the analyses without special-casing.
        assert len(reconstruct_flows(log)) == 0
        from repro.cluster.topology import ClusterTopology
        topo = ClusterTopology(ClusterSpec(racks=2, servers_per_rack=2))
        series = tm_series_from_events(log, topo, 10.0, 30.0)
        assert series.matrices.sum() == 0.0

    def test_overwrite_required_for_existing(self, tmp_path):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=10):
            pass
        with pytest.raises(FileExistsError):
            TraceWriter(path, chunk_size=10)
        with TraceWriter(path, chunk_size=10, overwrite=True):
            pass

    def test_manifest_schema_fields(self, tmp_path):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=10, meta={"seed": 1}) as writer:
            writer.append_log(synthetic_log(num_events=15))
        manifest = read_manifest(path)
        assert manifest["format"] == "reprotrace"
        assert manifest["schema_version"] == 1
        assert manifest["meta"]["seed"] == 1
        names = {name for name, _ in manifest["columns"]}
        assert "timestamp" in names and "num_bytes" in names

    def test_bad_schema_version_rejected(self, tmp_path):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=10):
            pass
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            TraceReader(path)


class TestAsEventLog:
    def test_accepts_log_reader_and_path(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=50) as writer:
            writer.append_log(log)
        assert as_event_log(log) is log
        for source in (TraceReader(path), path, str(path)):
            back = as_event_log(source)
            assert np.array_equal(back.column("timestamp"), log.column("timestamp"))

    def test_core_analyses_accept_trace_paths(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=50) as writer:
            writer.append_log(log)
        direct = reconstruct_flows(log)
        via_path = reconstruct_flows(path)
        assert np.array_equal(direct.num_bytes, via_path.num_bytes)


class TestRecording:
    def test_streams_all_events(self, recorded):
        path, record = recorded
        reader = TraceReader(path)
        assert reader.total_rows > 0
        # Every event went to disk; the in-memory log stayed empty.
        assert len(record.result.socket_log) == 0
        assert record.result.stats["socket_events_streamed"] == reader.total_rows
        assert record.result.stats["socket_events"] == reader.total_rows

    def test_streamed_run_matches_unstreamed(self, recorded):
        path, record = recorded
        plain = Simulator(micro_config()).run()
        reader = TraceReader(path)
        back = reader.read_all()
        assert len(back) == len(plain.socket_log)
        for name in ("timestamp", "src", "dst", "num_bytes"):
            assert np.array_equal(back.column(name), plain.socket_log.column(name)), name
        # Streaming must not perturb the simulation itself.
        assert np.array_equal(
            record.result.link_loads.byte_matrix(), plain.link_loads.byte_matrix()
        )

    def test_recording_is_deterministic(self, recorded, tmp_path):
        path, _ = recorded
        again = tmp_path / "again.reprotrace"
        record_trace(micro_config(), again, chunk_size=500)
        first = [e["sha256"] for e in TraceReader(path).chunks]
        second = [e["sha256"] for e in TraceReader(again).chunks]
        assert first == second

    def test_recorded_trace_passes_invariants(self, recorded, assert_invariants):
        path, record = recorded
        report = assert_invariants(str(path))
        assert report.checkers_skipped == 0
        assert_invariants(record.result)

    def test_meta_provenance(self, recorded):
        path, _ = recorded
        meta = TraceReader(path).meta
        assert meta["seed"] == 3
        assert meta["duration"] == 40.0
        assert meta["cluster_spec"]["racks"] == 3
        assert len(meta["config_fingerprint"]) == 64


class TestAnalyze:
    def test_sequential_matches_inmemory(self, recorded):
        path, _ = recorded
        checks = check_against_inmemory(path)
        assert checks == {
            "tm_equal": True, "flows_equal": True,
            "congestion_equal": True, "all_equal": True,
        }

    def test_jobs_other_than_one_rejected(self, recorded):
        path, _ = recorded
        with pytest.raises(ValueError, match="one process"):
            analyze_trace(path, jobs=2)

    def test_link_load_sidecar_loaded_once(self, recorded, monkeypatch):
        path, _ = recorded
        real = TraceReader.linkloads
        calls = []

        def spy(reader):
            calls.append(reader.path)
            return real(reader)

        monkeypatch.setattr(TraceReader, "linkloads", spy)
        analysis = analyze_trace(path)
        assert analysis.congestion is not None
        assert len(calls) == 1

    def test_summary_has_headline_numbers(self, recorded):
        path, _ = recorded
        analysis = analyze_trace(path)
        summary = analysis.summary()
        assert summary["num_flows"] == len(analysis.flows)
        assert summary["flow_bytes"] > 0
        assert "congestion_episodes" in summary
        assert analysis.flow_stats["flows"] == len(analysis.flows)

    def test_telemetry_counters(self, recorded):
        path, _ = recorded
        tele = Telemetry()
        analyze_trace(path, telemetry=tele)
        metrics = tele.metrics.snapshot()
        reader = TraceReader(path)
        assert metrics["trace.chunks_read"]["value"] == reader.num_chunks
        assert metrics["trace.rows_read"]["value"] == reader.total_rows


class TestDatasetFromTrace:
    def test_builds_experiment_dataset(self, recorded):
        from repro.experiments import dataset_from_trace

        path, _ = recorded
        dataset = dataset_from_trace(path)
        assert len(dataset.flows) > 0
        assert dataset.tm10.num_windows == 4
        assert dataset.utilization.shape[0] > 0
        assert dataset.extras["trace_path"] == str(path)
        assert dataset.observed_utilization.shape[0] == dataset.observed_links.size

    def test_link_load_sidecar_loaded_once(self, recorded, monkeypatch):
        from repro.experiments import dataset_from_trace

        path, _ = recorded
        real = TraceReader.linkloads
        calls = []

        def spy(reader):
            calls.append(reader.path)
            return real(reader)

        monkeypatch.setattr(TraceReader, "linkloads", spy)
        dataset = dataset_from_trace(path)
        assert dataset.utilization.shape[0] > 0
        assert len(calls) == 1

    def test_unknown_cluster_spec_keys_dropped(self, recorded, tmp_path):
        # A key a newer writer added to the spec must not stop the dataset
        # from loading a trace the streaming pass reads.
        from repro.experiments import dataset_from_trace

        path, _ = recorded
        copy = tmp_path / "future.reprotrace"
        shutil.copytree(path, copy)
        manifest = read_manifest(copy)
        manifest["meta"]["cluster_spec"]["some_future_field"] = 1
        write_manifest(copy, manifest)
        dataset = dataset_from_trace(copy)
        assert len(dataset.flows) == len(analyze_trace(copy).flows) > 0
        assert dataset.config.cluster == ClusterSpec(
            **TraceReader(path).meta["cluster_spec"]
        )


class TestFindTraces:
    def test_finds_direct_children(self, tmp_path):
        for name in ("a", "b"):
            with TraceWriter(tmp_path / f"{name}.reprotrace", chunk_size=10):
                pass
        (tmp_path / "not_a_trace").mkdir()
        found = find_traces(tmp_path)
        assert [p.name for p in found] == ["a.reprotrace", "b.reprotrace"]

    def test_accepts_trace_dir_itself(self, tmp_path):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=10):
            pass
        assert find_traces(path) == [path]


class TestTraceCli:
    def test_record_info_analyze(self, recorded, capsys, tmp_path):
        out_path = tmp_path / "cli.reprotrace"
        code = main([
            "trace", "record", "--racks", "2", "--servers-per-rack", "4",
            "--duration", "20", "--seed", "5", "--chunk-size", "400",
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded" in out and "chunk(s)" in out

        code = main(["trace", "info", str(out_path), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reprotrace v1" in out
        assert "verified" in out

        code = main(["trace", "ls", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli.reprotrace" in out
        assert "KiB" in out or "MiB" in out

        code = main(["trace", "analyze", str(out_path), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check all_equal: OK" in out

    def test_record_refuses_to_clobber(self, capsys, tmp_path):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=10):
            pass
        code = main([
            "trace", "record", "--racks", "2", "--servers-per-rack", "4",
            "--duration", "5", "--out", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--overwrite" in captured.err

    def test_info_flags_corruption(self, capsys, tmp_path):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=40) as writer:
            writer.append_log(synthetic_log())
        victim = path / TraceReader(path).chunks[0]["file"]
        columns = dict(np.load(victim))
        columns["timestamp"] = columns["timestamp"] + 1.0
        np.savez_compressed(victim, **columns)
        code = main(["trace", "info", str(path), "--verify"])
        captured = capsys.readouterr()
        assert code == 1
        assert "CORRUPT" in captured.err


class TestQueueDepthSidecar:
    """The queued transports' queue-occupancy series rides the linkloads
    sidecar; fluid recordings are untouched (no array, hash unchanged)."""

    def _write(self, tmp_path, queue_depth):
        path = tmp_path / "t.reprotrace"
        with TraceWriter(path, chunk_size=50,
                         meta={"transport_impl": "dctcp"}) as writer:
            writer.append_log(synthetic_log(num_events=20))
            writer.set_linkloads(
                np.ones((3, 4)), np.ones(3), 1.0,
                np.array([0, 1], dtype=np.int64),
                queue_depth=queue_depth,
            )
        return path

    def test_roundtrip_and_hash(self, tmp_path):
        depth = np.arange(12.0).reshape(3, 4)
        path = self._write(tmp_path, depth)
        reader = TraceReader(path)
        assert reader.manifest["linkloads"]["has_queue_depth"] is True
        assert reader.meta["transport_impl"] == "dctcp"
        assert reader.verify() == []
        loads = reader.linkloads()
        assert loads.has_queue_depth
        assert np.array_equal(loads.queue_depth_matrix(), depth)

    def test_fluid_recordings_have_no_depth(self, tmp_path):
        path = self._write(tmp_path, None)
        reader = TraceReader(path)
        assert reader.manifest["linkloads"]["has_queue_depth"] is False
        assert reader.verify() == []
        loads = reader.linkloads()
        assert not loads.has_queue_depth
        assert loads.queue_depth_matrix() is None

    def test_depth_corruption_detected(self, tmp_path):
        from repro.trace.format import LINKLOADS_NAME

        path = self._write(tmp_path, np.arange(12.0).reshape(3, 4))
        sidecar = path / LINKLOADS_NAME
        arrays = dict(np.load(sidecar))
        arrays["queue_depth"] = arrays["queue_depth"] + 1.0
        np.savez_compressed(sidecar, **arrays)
        assert TraceReader(path).verify() == [LINKLOADS_NAME]
