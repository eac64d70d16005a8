"""Documentation guards: importability, docstrings, ARCHITECTURE.md.

The CI docs job builds the pdoc API reference, which imports every
module under ``src/repro`` — so a module that fails to import or ships
without a docstring breaks the docs build.  These tests are the local,
dependency-free proxy: they walk the same module tree, import
everything, and require real docstrings, failing here before CI does.
"""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import repro

_SRC_ROOT = pathlib.Path(repro.__file__).parent
_REPO_ROOT = _SRC_ROOT.parent.parent


def _all_module_names() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def _package_names() -> list[str]:
    return sorted(
        name for name in _all_module_names()
        if (_SRC_ROOT.parent / name.replace(".", "/") / "__init__.py").exists()
    )


@pytest.mark.parametrize("name", _all_module_names())
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{name} has no module docstring"
    )


@pytest.mark.parametrize("name", _package_names())
def test_package_docstrings_are_substantial(name):
    """Package docstrings orient a reader, not just name the package.

    One-line stubs defeat the API reference's index page — every package
    summary there should say what the subsystem is *for*.
    """
    module = importlib.import_module(name)
    doc = module.__doc__.strip()
    assert len(doc.splitlines()) >= 3, (
        f"package {name} has a one-line docstring; describe the subsystem"
    )


class TestArchitectureDoc:
    @pytest.fixture(scope="class")
    def text(self):
        path = _REPO_ROOT / "ARCHITECTURE.md"
        assert path.exists(), "ARCHITECTURE.md missing from repo root"
        return path.read_text()

    def test_subsystem_map_covers_every_package(self, text):
        for name in _package_names():
            if name == "repro":
                continue
            short = name.split(".", 1)[1]
            assert f"repro/{short}" in text or f"`{name}`" in text, (
                f"ARCHITECTURE.md does not mention package {name}"
            )

    def test_paper_cross_reference_table(self, text):
        """The paper section/figure table maps onto real modules."""
        for anchor in ("§4.1", "§4.2", "§4.3", "§5", "Fig 2", "Fig 14",
                       "Table S2"):
            assert anchor in text, f"cross-reference table missing {anchor}"
        for module in ("fig02", "fig06", "fig12", "table_s2"):
            assert f"experiments/{module}.py" in text, (
                f"cross-reference table missing experiment module {module}"
            )
        for bench in ("bench_fig02_tm_patterns", "bench_table_s2_overhead"):
            assert bench in text, (
                f"cross-reference table missing benchmark {bench}"
            )

    def test_dataflow_diagram_present(self, text):
        assert "synthetic" in text and "viz" in text
        assert "──" in text or "-->" in text, "no dataflow diagram found"

    def test_referenced_paths_exist(self, text):
        """Every `path`-style reference into the tree points at a real file
        or directory (stale docs rot fastest through renames)."""
        import re

        for match in re.findall(r"`((?:src|benchmarks|tests)/[^`*]+)`", text):
            target = match.split("::")[0].rstrip("/")
            assert (_REPO_ROOT / target).exists(), (
                f"ARCHITECTURE.md references missing path {target}"
            )

    def test_topology_family_documented(self, text):
        """The cluster subsystem section covers the fabric family and the
        per-flow routing impls, and points at the real modules."""
        for module in ("src/repro/cluster/fabrics.py",
                       "src/repro/cluster/routing.py"):
            assert module in text, f"ARCHITECTURE.md missing {module}"
        for kind in ("fat-tree", "leaf-spine"):
            assert kind in text, f"dataflow diagram missing fabric {kind}"
        for impl in ("ecmp", "flowlet"):
            assert impl in text, f"routing impl {impl} undocumented"


class TestTopologyDocs:
    """Guards for the T1/T2 satellite docs: the scenario matrix in
    EXPERIMENTS.md and the fabric-selection section in README.md must
    track the registered experiments and the CLI flags they describe."""

    @pytest.fixture(scope="class")
    def experiments_text(self):
        path = _REPO_ROOT / "EXPERIMENTS.md"
        assert path.exists(), "EXPERIMENTS.md missing from repo root"
        return path.read_text()

    @pytest.fixture(scope="class")
    def readme_text(self):
        path = _REPO_ROOT / "README.md"
        assert path.exists(), "README.md missing from repo root"
        return path.read_text()

    def test_experiments_scenario_matrix(self, experiments_text):
        from repro.cluster.routing import ROUTING_IMPLS
        from repro.cluster.topology import TOPOLOGY_KINDS

        assert "T1" in experiments_text and "T2" in experiments_text
        for kind in TOPOLOGY_KINDS:
            assert f"`{kind}`" in experiments_text, (
                f"scenario matrix missing fabric {kind}"
            )
        for impl in ROUTING_IMPLS:
            assert f"`{impl}`" in experiments_text, (
                f"scenario matrix missing routing impl {impl}"
            )

    def test_experiments_name_registered_topo_studies(self, experiments_text):
        from repro.experiments.registry import get_experiment

        for name in ("topo_ecmp_vs_flowlet", "topo_fabric_sweep"):
            assert get_experiment(name) is not None
            assert name in experiments_text, (
                f"EXPERIMENTS.md does not document experiment {name}"
            )

    def test_experiments_campaign_commands(self, experiments_text):
        assert "repro campaign run" in experiments_text
        assert "repro ablations topo_ecmp_vs_flowlet" in experiments_text

    def test_readme_fabric_section(self, readme_text):
        assert "## Choosing a fabric" in readme_text
        for flag in ("--topology", "--fat-tree-k", "--spines", "--routing"):
            assert flag in readme_text, (
                f"README fabric section missing CLI flag {flag}"
            )
        for ctor in ("ClusterSpec.fat_tree", "ClusterSpec.leaf_spine"):
            assert ctor in readme_text, (
                f"README fabric section missing constructor {ctor}"
            )

    def test_readme_cli_flags_exist(self, readme_text):
        """Every --flag the README's fabric section shows must be a real
        option on both the simulate and trace-record parsers."""
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args([
            "simulate", "--topology", "leaf_spine", "--spines", "3",
            "--routing", "flowlet", "--duration", "5",
        ])
        assert args.topology == "leaf_spine" and args.routing == "flowlet"
        args = parser.parse_args([
            "trace", "record", "--topology", "fat_tree", "--fat-tree-k",
            "4", "--routing", "ecmp", "--out", "x.reprotrace",
        ])
        assert args.fat_tree_k == 4 and args.routing == "ecmp"


class TestOperationsHandbook:
    """Guards for docs/OPERATIONS.md and the scheduler docs satellite:
    the handbook's paths must exist, the CLI invocations it shows must
    parse, and the surrounding docs must keep their scheduler sections."""

    @pytest.fixture(scope="class")
    def text(self):
        path = _REPO_ROOT / "docs" / "OPERATIONS.md"
        assert path.exists(), "docs/OPERATIONS.md missing"
        return path.read_text()

    def test_covers_the_operational_topics(self, text):
        for topic in ("--resume", "campaign status", "--lease-ttl",
                      "TTL", "stale", "takeover", "dataset_load_ratio"):
            assert topic in text, f"OPERATIONS.md does not cover {topic}"

    def test_referenced_paths_exist(self, text):
        import re

        for match in re.findall(r"`((?:src|benchmarks|tests|docs)/[^`*]+)`",
                                text):
            target = match.split("::")[0].rstrip("/")
            assert (_REPO_ROOT / target).exists(), (
                f"OPERATIONS.md references missing path {target}"
            )

    def test_lease_ttl_and_phase_chars_match_the_code(self, text):
        from repro.experiments.scheduler import DEFAULT_LEASE_TTL
        from repro.telemetry.export import _PHASE_CHARS

        assert f"{DEFAULT_LEASE_TTL:.0f} s" in text, (
            "OPERATIONS.md states a default TTL that is not "
            f"DEFAULT_LEASE_TTL ({DEFAULT_LEASE_TTL})"
        )
        for phase, char in _PHASE_CHARS.items():
            assert f"`{char}` | {phase}" in text, (
                f"OPERATIONS.md phase table missing {char} = {phase}"
            )

    def test_cli_flags_parse(self, text):
        """The run/status/resume invocations the handbook (and README's
        scaling section) show must be real parser options."""
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args([
            "campaign", "run", "--seeds", "8", "--jobs", "4",
            "--experiments", "fig02,fig09",
            "--resume", "--lease-ttl", "10",
            "--cache-dir", ".repro-cache",
        ])
        assert args.resume
        assert args.lease_ttl == 10.0
        args = parser.parse_args([
            "campaign", "status", "--seeds", "8",
            "--experiments", "fig02,fig09", "--cache-dir", ".repro-cache",
        ])
        assert args.campaign_command == "status"
        # One executor: the work queue; there is no pool to choose.
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "run", "--pool", "warm"])

    def test_readme_scaling_section(self):
        readme = (_REPO_ROOT / "README.md").read_text()
        assert "## Scaling a campaign" in readme
        for anchor in ("--resume", "campaign status", "docs/OPERATIONS.md"):
            assert anchor in readme, f"README scaling section missing {anchor}"

    def test_experiments_resume_semantics_section(self):
        experiments = (_REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "`--resume` reproducibility semantics" in experiments
        assert "content hashes" in experiments

    def test_architecture_scheduler_dataflow(self):
        architecture = (_REPO_ROOT / "ARCHITECTURE.md").read_text()
        assert "## Campaign scheduler dataflow" in architecture
        for step in ("claim", "publish", "merge", "disk cache",
                     "src/repro/experiments/scheduler.py"):
            assert step in architecture, (
                f"ARCHITECTURE.md scheduler dataflow missing {step}"
            )


_CLI_DOCS = ("README.md", "EXPERIMENTS.md", "docs/OPERATIONS.md")
_FENCED_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _documented_cli_commands() -> list[tuple[str, str]]:
    """Every ``python -m repro …`` line in a fenced block of the docs.

    Backslash continuations are joined and trailing ``# …`` comments
    dropped; each entry is ``(doc, arguments after "python -m repro")``.
    """
    commands = []
    for doc in _CLI_DOCS:
        text = (_REPO_ROOT / doc).read_text()
        for block in _FENCED_BLOCK.findall(text):
            joined = re.sub(r"\\\n\s*", " ", block)
            for line in joined.splitlines():
                if "python -m repro" not in line:
                    continue
                arguments = line.split("python -m repro", 1)[1]
                commands.append((doc, re.sub(r"\s+#.*$", "", arguments)))
    return commands


def test_documented_cli_commands_parse():
    """A renamed or deleted subcommand or option breaks every doc line
    that still shows it; catch that here, not in a reader's shell."""
    from repro.cli import _build_parser

    parser = _build_parser()
    commands = _documented_cli_commands()
    assert len(commands) >= 30, commands
    broken = []
    for doc, arguments in commands:
        try:
            parser.parse_args(shlex.split(arguments))
        except SystemExit:
            broken.append(f"{doc}: python -m repro{arguments}")
    assert not broken, "\n".join(broken)


#: Docs that describe the current program.  CHANGES.md and ROADMAP.md
#: are history: they name transport impls that no longer exist.
_IMPL_DOCS = (
    "README.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "DESIGN.md",
    "docs/OPERATIONS.md",
)
_NAMED_IMPL = re.compile(r"""transport_impl\s*=\s*["']([^"']*)["']""")


def test_documented_transport_impls_construct_a_config():
    """Every ``transport_impl="…"`` value the docs name is one a
    ``SimulationConfig`` accepts, so no doc shows a reader a config
    that raises."""
    from repro.config import SimulationConfig

    named = [
        (doc, value)
        for doc in _IMPL_DOCS
        for value in _NAMED_IMPL.findall((_REPO_ROOT / doc).read_text())
    ]
    assert named
    broken = []
    for doc, value in named:
        try:
            SimulationConfig(transport_impl=value)
        except ValueError:
            broken.append(f"{doc}: transport_impl={value!r}")
    assert not broken, "\n".join(broken)
