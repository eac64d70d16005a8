"""Dataset caching: content-addressed keys, LRU bounds, the disk layer.

The staleness regression class this guards: the old cache key was a
hand-maintained tuple that silently ignored new config fields.  The
content hash walks ``dataclasses.fields`` recursively, so *every* field
of ``SimulationConfig``/``WorkloadConfig``/``ClusterSpec`` (and the
collector) must change the key — asserted field by field below.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.config import SimulationConfig
from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    DatasetDiskCache,
    LRUCache,
    config_fingerprint,
    dataset_content_hash,
)
from repro.experiments.common import (
    build_dataset,
    clear_dataset_cache,
    dataset_cache_stats,
    set_dataset_cache_limit,
)
from repro.telemetry import Telemetry
from repro.workload.generator import WorkloadConfig


def tiny_config(seed: int = 0, duration: float = 20.0) -> SimulationConfig:
    """A seconds-fast campaign for cache-behaviour tests."""
    return SimulationConfig(
        # spine_count is inert on a tree, but pre-setting it keeps the
        # single-field topology_kind perturbation below a valid spec.
        cluster=ClusterSpec(racks=2, servers_per_rack=2, racks_per_vlan=2,
                            external_hosts=1, spine_count=1),
        workload=WorkloadConfig(job_arrival_rate=0.3, day_load_factors=(1.0,),
                                day_length=duration),
        duration=duration,
        seed=seed,
    )


# ------------------------------------------------------- field perturbation

#: Fields whose type-generic perturbation (int+1 / float*0.9) would not
#: survive validation or not change the value meaningfully.
_SPECIAL = {
    "fairness": lambda value: "bottleneck" if value == "maxmin" else "maxmin",
    "transport_impl": lambda value: (
        "incremental" if value == "vectorized" else "vectorized"
    ),
    "routing_impl": lambda value: "ecmp" if value == "single" else "single",
    "topology_kind": lambda value: (
        "leaf_spine" if value == "tree" else "tree"
    ),
    "template_weights": lambda value: {
        **value, next(iter(value)): next(iter(value.values())) * 2.0
    },
    "templates": lambda value: {
        **value,
        next(iter(value)): dataclasses.replace(
            next(iter(value.values())),
            max_input_bytes=next(iter(value.values())).max_input_bytes * 2,
        ),
    },
    "day_load_factors": lambda value: tuple(value) + (0.5,),
    "ingestion_bytes_range": lambda value: (value[0], value[1] * 2),
}


def perturb(value, name: str):
    """A *valid*, different value for a config field."""
    if name in _SPECIAL:
        return _SPECIAL[name](value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 0.9 + 1e-9
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        first = fields[0]
        return dataclasses.replace(
            value, **{first.name: perturb(getattr(value, first.name), first.name)}
        )
    raise NotImplementedError(f"no perturbation for field {name!r}: {value!r}")


class TestFingerprintCoversEveryField:
    """Regression: a config field the key ignores can never exist again."""

    def _assert_all_fields_matter(self, base_config, get_sub, rebuild):
        base_key = config_fingerprint(base_config)
        sub = get_sub(base_config)
        for field in dataclasses.fields(type(sub)):
            changed = perturb(getattr(sub, field.name), field.name)
            mutated = rebuild(
                base_config, dataclasses.replace(sub, **{field.name: changed})
            )
            assert config_fingerprint(mutated) != base_key, (
                f"{type(sub).__name__}.{field.name} does not affect the cache key"
            )

    def test_every_simulation_config_field(self):
        self._assert_all_fields_matter(
            tiny_config(), lambda c: c, lambda _base, new: new
        )

    def test_every_workload_config_field(self):
        self._assert_all_fields_matter(
            tiny_config(),
            lambda c: c.workload,
            lambda base, new: dataclasses.replace(base, workload=new),
        )

    def test_every_cluster_spec_field(self):
        self._assert_all_fields_matter(
            tiny_config(),
            lambda c: c.cluster,
            lambda base, new: dataclasses.replace(base, cluster=new),
        )

    def test_every_collector_config_field(self):
        self._assert_all_fields_matter(
            tiny_config(),
            lambda c: c.collector,
            lambda base, new: dataclasses.replace(base, collector=new),
        )

    def test_deeply_nested_template_change_matters(self):
        config = tiny_config()
        template_name = next(iter(config.workload.templates))
        template = config.workload.templates[template_name]
        deeper = dataclasses.replace(
            template, min_input_bytes=template.min_input_bytes * 1.5
        )
        mutated = dataclasses.replace(
            config,
            workload=dataclasses.replace(
                config.workload,
                templates={**config.workload.templates, template_name: deeper},
            ),
        )
        assert config_fingerprint(mutated) != config_fingerprint(config)

    def test_schema_version_invalidates(self, monkeypatch):
        before = config_fingerprint(tiny_config())
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert config_fingerprint(tiny_config()) != before


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        evicted = []
        lru = LRUCache(limit=2, on_evict=lambda key, _val: evicted.append(key))
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh "a"; "b" is now oldest
        lru.put("c", 3)
        assert evicted == ["b"]
        assert lru.get("b") is None
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert lru.evictions == 1

    def test_set_limit_shrinks(self):
        lru = LRUCache(limit=4)
        for key in "abcd":
            lru.put(key, key)
        lru.set_limit(1)
        assert len(lru) == 1
        assert lru.keys() == ["d"]

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            LRUCache(limit=0)
        with pytest.raises(ValueError):
            LRUCache(limit=2).set_limit(0)


@pytest.fixture()
def isolated_dataset_cache():
    """Empty in-memory dataset cache for the test, restored afterwards."""
    from repro.experiments.common import _CACHE

    saved = [(key, _CACHE.get(key)) for key in _CACHE.keys()]
    saved_limit = _CACHE.limit
    clear_dataset_cache()
    yield
    clear_dataset_cache()
    _CACHE.set_limit(saved_limit)
    for key, value in saved:
        _CACHE.put(key, value)


class TestBoundedDatasetCache:
    def test_sweep_stays_within_limit_and_counts_evictions(
        self, isolated_dataset_cache
    ):
        previous = set_dataset_cache_limit(2)
        try:
            tele = Telemetry()
            for seed in (11, 12, 13):
                build_dataset(tiny_config(seed=seed), telemetry=tele,
                              disk_cache=False)
            stats = dataset_cache_stats()
            assert stats["size"] == 2
            assert stats["limit"] == 2
            snapshot = tele.metrics.snapshot()
            assert snapshot["dataset.cache_evictions"]["value"] == 1
        finally:
            set_dataset_cache_limit(previous)

    def test_set_limit_reports_previous(self, isolated_dataset_cache):
        previous = set_dataset_cache_limit(3)
        assert set_dataset_cache_limit(previous) == 3


class TestDiskCache:
    def test_round_trip_preserves_content(self, tmp_path, isolated_dataset_cache):
        config = tiny_config(seed=21)
        built = build_dataset(config, cache_dir=tmp_path)
        original_hash = dataset_content_hash(built)

        clear_dataset_cache()
        tele = Telemetry()
        loaded = build_dataset(config, telemetry=tele, cache_dir=tmp_path)
        assert loaded is not built
        snapshot = tele.metrics.snapshot()
        assert snapshot["dataset.disk_cache_hits"]["value"] == 1
        assert dataset_content_hash(loaded) == original_hash
        assert np.array_equal(loaded.utilization, built.utilization)
        assert np.array_equal(loaded.observed_links, built.observed_links)
        assert loaded.config == built.config

    def test_cold_process_equivalent_build_skips_simulation(
        self, tmp_path, isolated_dataset_cache, monkeypatch
    ):
        config = tiny_config(seed=22)
        build_dataset(config, cache_dir=tmp_path)
        clear_dataset_cache()  # "cold process": no in-memory entries

        def explode(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulate() called despite warm disk cache")

        monkeypatch.setattr("repro.experiments.common.simulate", explode)
        loaded = build_dataset(config, cache_dir=tmp_path)
        assert loaded.config.seed == 22

    def test_entries_and_clear(self, tmp_path, isolated_dataset_cache):
        disk = DatasetDiskCache(tmp_path)
        assert disk.entries() == []
        build_dataset(tiny_config(seed=23), cache_dir=tmp_path)
        entries = disk.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["seed"] == 23
        assert entry["schema_version"] == CACHE_SCHEMA_VERSION
        assert entry["size_bytes"] > 0
        assert len(entry["content_hash"]) == 64
        assert disk.clear() == 1
        assert disk.entries() == []

    def test_version_mismatch_is_a_miss(self, tmp_path, isolated_dataset_cache,
                                        monkeypatch):
        config = tiny_config(seed=24)
        build_dataset(config, cache_dir=tmp_path)
        clear_dataset_cache()
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        # Note: the fingerprint also changes with the schema version, but
        # the loader must reject stale payloads even at an equal path.
        disk = DatasetDiskCache(tmp_path)
        old_fingerprint = disk.entries()[0]["fingerprint"]
        assert disk.load(old_fingerprint) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, isolated_dataset_cache):
        config = tiny_config(seed=25)
        build_dataset(config, cache_dir=tmp_path)
        disk = DatasetDiskCache(tmp_path)
        fingerprint = disk.entries()[0]["fingerprint"]
        (disk.entry_dir(fingerprint) / "dataset.pkl").write_bytes(b"garbage")
        assert disk.load(fingerprint) is None

    def test_load_unknown_fingerprint_is_none(self, tmp_path):
        assert DatasetDiskCache(tmp_path).load("0" * 64) is None


class TestContentHash:
    def test_identical_config_identical_hash_in_process(
        self, isolated_dataset_cache
    ):
        config = tiny_config(seed=31)
        first = build_dataset(config, disk_cache=False)
        clear_dataset_cache()
        second = build_dataset(tiny_config(seed=31), disk_cache=False)
        assert first is not second
        assert dataset_content_hash(first) == dataset_content_hash(second)

    def test_different_seed_different_hash(self, isolated_dataset_cache):
        one = build_dataset(tiny_config(seed=32), disk_cache=False)
        two = build_dataset(tiny_config(seed=33), disk_cache=False)
        assert dataset_content_hash(one) != dataset_content_hash(two)
