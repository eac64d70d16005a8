"""Shared fixtures.

The expensive artefact — a simulated measurement campaign — is built once
per session on the small configuration and shared by every analysis and
experiment test.  Unit tests for the substrates build their own tiny
structures instead.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.config import SimulationConfig
from repro.experiments.common import ExperimentDataset, build_dataset, small_config
from repro.simulation import transport, waterfill

# Property tests must be deterministic in CI: fixed derivation, no
# wall-clock deadline flakes, a bounded example budget.
settings.register_profile(
    "repro", derandomize=True, deadline=None, max_examples=25
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def tiny_spec() -> ClusterSpec:
    """A 4-rack, 20-server cluster spec for structural tests."""
    return ClusterSpec(racks=4, servers_per_rack=5, racks_per_vlan=2,
                       external_hosts=2)


@pytest.fixture(scope="session")
def tiny_topology(tiny_spec: ClusterSpec) -> ClusterTopology:
    """A built tiny cluster."""
    return ClusterTopology(tiny_spec)


@pytest.fixture(scope="session")
def tiny_router(tiny_topology: ClusterTopology) -> Router:
    """Router over the tiny cluster."""
    return Router(tiny_topology)


@pytest.fixture(scope="session")
def dataset() -> ExperimentDataset:
    """The session-wide small campaign (simulation + derived artefacts)."""
    return build_dataset(small_config())


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


def micro_trace_config() -> SimulationConfig:
    """A seconds-scale campaign for trace/validation tests."""
    return SimulationConfig(
        cluster=ClusterSpec(racks=3, servers_per_rack=4, racks_per_vlan=2,
                            external_hosts=1),
        duration=40.0,
        seed=3,
    )


@pytest.fixture(scope="session")
def recorded_trace(tmp_path_factory):
    """One recorded ``.reprotrace`` shared by validation/corruption tests.

    Corruption tests must copy it before mutating.
    """
    from repro.trace.record import record_trace

    path = tmp_path_factory.mktemp("traces") / "micro.reprotrace"
    # A small chunk size forces several chunks, so chunk-boundary and
    # per-chunk corruption paths are genuinely exercised.
    record_trace(micro_trace_config(), path, chunk_size=128)
    return path


@pytest.fixture(scope="session")
def assert_invariants():
    """Run invariant checkers over any artefact; fail with the report.

    Usable by every test module::

        def test_something(dataset, assert_invariants):
            assert_invariants(dataset)

    Returns the :class:`~repro.validate.ValidationReport` so callers can
    make additional per-checker assertions.
    """
    from repro.validate import validate

    def check(source, names=None, tags=None):
        report = validate(source, names=names, tags=tags)
        assert report.ok, f"invariant violations:\n{report.render()}"
        return report

    return check


@pytest.fixture()
def force_allocator():
    """Force the exact fluid allocator onto one of its oracles.

    ``with force_allocator(name) as transport_impl:`` yields the
    ``transport_impl`` to configure the runs inside the block with.
    The two oracles run as ``"vectorized"`` with its allocator forced:

    * ``"reference"`` puts an adapter over ``maxmin_rates_reference``,
      the round-based loop, where the fluid transport calls
      ``maxmin_rates_vectorized``;
    * ``"csr"`` sets ``waterfill._CSR_FLOW_THRESHOLD`` to 0, so every
      exact solve takes the batched CSR elimination.

    Any other name is yielded unchanged and forces nothing.  A block
    that forced an oracle fails unless the oracle ran at least once, so
    a substitution that stops taking effect cannot pass silently as the
    production path (the ``tree/reference`` and ``tree/vectorized``
    digests are equal).
    """

    @contextmanager
    def force(name: str):
        if name not in ("reference", "csr"):
            yield name
            return
        calls: list[int] = []
        with pytest.MonkeyPatch.context() as patch:
            if name == "reference":
                def allocate(paths, valid, capacities, num_links, table=None):
                    calls.append(paths.shape[0])
                    return waterfill.maxmin_rates_reference(
                        paths, valid, capacities, num_links
                    )

                patch.setattr(transport, "maxmin_rates_vectorized", allocate)
            else:
                csr = waterfill._maxmin_csr

                def allocate(paths, valid, capacities, num_links):
                    calls.append(paths.shape[0])
                    return csr(paths, valid, capacities, num_links)

                patch.setattr(waterfill, "_CSR_FLOW_THRESHOLD", 0)
                patch.setattr(waterfill, "_maxmin_csr", allocate)
            yield "vectorized"
        assert calls, f"the forced {name!r} allocator never ran"

    return force
