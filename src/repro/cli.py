"""Command-line interface: ``python -m repro <command>``.

The commands cover the library's workflow:

* ``simulate`` — run a measurement campaign and print its statistics,
  optionally dumping the compressed socket-event log; with
  ``--telemetry`` it also prints progress heartbeats, writes a JSONL
  span trace (``--trace-out``) and records a run manifest
  (``--manifest-out``) pinning config, seed, git version and metrics;
* ``trace`` — record a campaign's socket events to a chunked on-disk
  ``.reprotrace`` store (``record``), list/inspect traces (``ls``,
  ``info``), and run the streaming analyses over one in a single
  in-process pass (``analyze``, with ``--check`` asserting exact
  agreement with the in-memory pipeline);
* ``figures`` — reproduce any subset of the paper's figures against a
  campaign (``--list`` enumerates the experiment registry);
* ``ablations`` — run the registered design-choice ablations;
* ``campaign`` — run the whole experiment suite over multiple seeds
  (``--jobs`` fans seeds across processes) and aggregate mean/CI
  summary rows into a campaign manifest, or report a prior one;
* ``cache`` — inspect or clear the on-disk dataset cache;
* ``telemetry-report`` — render previously written traces/manifests as
  human-readable tables (multiple JSONL traces, or globs, aggregate
  into one rollup);
* ``telemetry`` — render a merged campaign timeline (``timeline``: ASCII
  Gantt, Prometheus text or Chrome ``trace_event`` JSON) and compare two
  timelines, manifests or ``BENCH_*.json`` files metric-by-metric under
  a tolerance (``diff``);
* ``validate`` — run the cross-layer invariant checkers
  (:mod:`repro.validate`) over a recorded trace or a freshly built
  campaign, exiting non-zero on any violation;
* ``bench`` — execute the ``benchmarks/`` suite with the standardized
  repeat/min timing harness (``run``, with ``--quick`` for the fast
  subset), writing a ``BENCH_*.json`` that ``telemetry diff`` compares
  against a committed baseline.

Figure and ablation names resolve through
:mod:`repro.experiments.registry`; nothing here hard-codes the catalog.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import time as _time

from .cluster.routing import ROUTING_IMPLS
from .cluster.topology import TOPOLOGY_KINDS, ClusterSpec
from .config import SimulationConfig
from .util.units import GBPS, format_bytes, format_bytes_binary
from .workload.generator import WorkloadConfig


def _add_fabric_args(parser: argparse.ArgumentParser) -> None:
    """Topology-family and routing flags shared by simulate/record."""
    parser.add_argument("--topology", choices=TOPOLOGY_KINDS, default="tree",
                        help="fabric to build (default: the paper's tree)")
    parser.add_argument("--fat-tree-k", type=int, default=4, metavar="K",
                        help="arity for --topology fat_tree (sets rack count "
                             "to k*(k/2); --racks is ignored)")
    parser.add_argument("--spines", type=int, default=2,
                        help="spine count for --topology leaf_spine")
    parser.add_argument("--routing", choices=ROUTING_IMPLS, default="single",
                        help="per-flow path selection on multi-path fabrics")


def _cluster_spec_from_args(args: argparse.Namespace) -> ClusterSpec:
    """Build the cluster spec a simulate/record invocation asked for."""
    common = dict(
        servers_per_rack=args.servers_per_rack,
        external_hosts=args.external_hosts,
        tor_uplink_capacity=args.uplink_gbps * GBPS,
    )
    kind = getattr(args, "topology", "tree")
    if kind == "fat_tree":
        return ClusterSpec.fat_tree(k=args.fat_tree_k, **common)
    if kind == "leaf_spine":
        return ClusterSpec.leaf_spine(
            racks=args.racks, spines=args.spines, **common)
    return ClusterSpec(
        racks=args.racks, racks_per_vlan=args.racks_per_vlan, **common)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Nature of Datacenter Traffic' (IMC 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one measurement campaign")
    sim.add_argument("--racks", type=int, default=6)
    sim.add_argument("--servers-per-rack", type=int, default=8)
    sim.add_argument("--racks-per-vlan", type=int, default=3)
    sim.add_argument("--external-hosts", type=int, default=2)
    sim.add_argument("--uplink-gbps", type=float, default=2.5)
    _add_fabric_args(sim)
    sim.add_argument("--duration", type=float, default=120.0)
    sim.add_argument("--arrival-rate", type=float, default=0.3,
                     help="job arrivals per second")
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--dump-log", metavar="PATH",
                     help="write the compressed socket-event log here")
    sim.add_argument("--telemetry", action="store_true",
                     help="instrument the run: heartbeats, spans, metrics, "
                          "and a run manifest")
    sim.add_argument("--trace-out", metavar="PATH",
                     help="write the JSONL span trace here (implies --telemetry)")
    sim.add_argument("--manifest-out", metavar="PATH",
                     help="write the run manifest here (implies --telemetry; "
                          "default derives from --trace-out or repro-manifest.json)")
    sim.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                     help="simulated seconds between progress heartbeats "
                          "(default: duration/5)")

    trace = sub.add_parser(
        "trace", help="record and analyze chunked on-disk socket-event traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", help="simulate a campaign, streaming events to a trace")
    trace_record.add_argument("--racks", type=int, default=6)
    trace_record.add_argument("--servers-per-rack", type=int, default=8)
    trace_record.add_argument("--racks-per-vlan", type=int, default=3)
    trace_record.add_argument("--external-hosts", type=int, default=2)
    trace_record.add_argument("--uplink-gbps", type=float, default=2.5)
    _add_fabric_args(trace_record)
    trace_record.add_argument("--duration", type=float, default=120.0)
    trace_record.add_argument("--arrival-rate", type=float, default=0.3,
                              help="job arrivals per second")
    trace_record.add_argument("--seed", type=int, default=7)
    trace_record.add_argument("--out", default="campaign.reprotrace",
                              metavar="DIR", help="trace directory to create")
    trace_record.add_argument("--chunk-size", type=int, default=None,
                              metavar="ROWS",
                              help="event rows per on-disk chunk")
    trace_record.add_argument("--flush-interval", type=float, default=None,
                              metavar="SECONDS",
                              help="simulated seconds between stream flushes")
    trace_record.add_argument("--overwrite", action="store_true",
                              help="replace an existing trace at --out")
    trace_record.add_argument("--heartbeat", type=float, default=None,
                              metavar="SECONDS",
                              help="simulated seconds between progress "
                                   "heartbeats (default: off)")
    trace_ls = trace_sub.add_parser("ls", help="list traces in a directory")
    trace_ls.add_argument("root", nargs="?", default=".",
                          help="a trace directory or a directory of traces")
    trace_info = trace_sub.add_parser(
        "info", help="show a trace's manifest: chunks, spans, provenance")
    trace_info.add_argument("trace", help="trace directory")
    trace_info.add_argument("--chunks", action="store_true",
                            help="also list the per-chunk table")
    trace_info.add_argument("--verify", action="store_true",
                            help="re-hash every chunk against the manifest")
    trace_analyze = trace_sub.add_parser(
        "analyze", help="run the streaming analyses over a trace")
    trace_analyze.add_argument("trace", help="trace directory")
    trace_analyze.add_argument("--window", type=float, default=10.0,
                               help="traffic-matrix window, seconds")
    trace_analyze.add_argument("--threshold", type=float, default=None,
                               help="congestion threshold (default: the "
                                    "recorded config's)")
    trace_analyze.add_argument("--timeout", type=float, default=None,
                               metavar="SECONDS",
                               help="flow inactivity timeout (default 60)")
    trace_analyze.add_argument("--check", action="store_true",
                               help="also verify streamed results equal the "
                                    "in-memory pipeline exactly")

    figures = sub.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("names", nargs="*", default=[],
                         help="registered figure experiments (default all; "
                              "see --list)")
    figures.add_argument("--list", action="store_true", dest="list_experiments",
                         help="enumerate the experiment registry and exit")
    figures.add_argument("--standard", action="store_true",
                         help="use the standard campaign (slower, sharper)")
    figures.add_argument("--seed", type=int, default=None)

    ablations = sub.add_parser("ablations", help="run design-choice ablations")
    ablations.add_argument("names", nargs="*", default=[],
                           help="registered ablations (default all)")
    ablations.add_argument("--seed", type=int, default=11)

    campaign = sub.add_parser(
        "campaign", help="multi-seed campaign: run experiments across seeds")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="build per-seed datasets (in parallel) and aggregate")
    campaign_run.add_argument("--seeds", type=int, default=4,
                              help="number of seeds (base-seed, base-seed+1, ...)")
    campaign_run.add_argument("--base-seed", type=int, default=None,
                              help="first seed (default: the config's seed)")
    campaign_run.add_argument("--jobs", type=int, default=1,
                              help="worker processes (1 = in-process)")
    campaign_run.add_argument("--experiments", default=None,
                              help="comma-separated registry names "
                                   "(default: every figure experiment)")
    campaign_run.add_argument("--standard", action="store_true",
                              help="use the standard campaign per seed")
    campaign_run.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="disk dataset cache location "
                                   "(default .repro-cache)")
    campaign_run.add_argument("--no-disk-cache", action="store_true",
                              help="always rebuild datasets; persist nothing")
    campaign_run.add_argument("--manifest-out", default="campaign-manifest.json",
                              metavar="PATH")
    campaign_run.add_argument("--timeline-out", default=None, metavar="PATH",
                              help="merged campaign timeline JSON (default: "
                                   "<manifest-out stem>-timeline.json)")
    campaign_run.add_argument("--heartbeat", type=float, default=None,
                              metavar="SECONDS",
                              help="per-seed progress heartbeats on stderr "
                                   "every SECONDS of simulated time "
                                   "(default: off)")
    campaign_run.add_argument("--resume", action="store_true",
                              help="honour results published by a previous "
                                   "(possibly interrupted) run of this exact "
                                   "campaign; only missing seeds are computed")
    campaign_run.add_argument("--lease-ttl", type=float, default=None,
                              metavar="SECONDS",
                              help="work-unit lease time-to-live; a worker "
                                   "whose heartbeat is older than this is "
                                   "presumed dead and its unit taken over "
                                   "(default 30)")
    campaign_report = campaign_sub.add_parser(
        "report", help="render a campaign manifest as tables")
    campaign_report.add_argument("manifest", nargs="?",
                                 default="campaign-manifest.json")
    campaign_status = campaign_sub.add_parser(
        "status", help="inspect a campaign's work queue (leases, results)")
    campaign_status.add_argument("--seeds", type=int, default=4,
                                 help="number of seeds the campaign covers")
    campaign_status.add_argument("--base-seed", type=int, default=None,
                                 help="first seed (default: the config's seed)")
    campaign_status.add_argument("--experiments", default=None,
                                 help="comma-separated registry names "
                                      "(default: every figure experiment)")
    campaign_status.add_argument("--standard", action="store_true",
                                 help="the campaign uses the standard config")
    campaign_status.add_argument("--cache-dir", default=None, metavar="DIR",
                                 help="cache location the campaign runs in "
                                      "(default .repro-cache)")

    cache = sub.add_parser("cache", help="inspect the on-disk dataset cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for verb, text in (("ls", "list cached datasets"),
                       ("clear", "remove every cached dataset")):
        cache_cmd = cache_sub.add_parser(verb, help=text)
        cache_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                               help="cache location (default .repro-cache "
                                    "or $REPRO_CACHE_DIR)")

    report = sub.add_parser("telemetry-report",
                            help="render a trace/manifest as tables")
    report.add_argument("trace", nargs="*", default=[],
                        help="JSONL span traces written by simulate "
                             "--trace-out (files or globs; multiple traces "
                             "aggregate into one rollup)")
    report.add_argument("--manifest", metavar="PATH",
                        help="run manifest written by simulate --telemetry")

    telemetry = sub.add_parser(
        "telemetry",
        help="render, export and diff merged campaign telemetry")
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command",
                                             required=True)
    telemetry_timeline = telemetry_sub.add_parser(
        "timeline",
        help="render a campaign timeline (ASCII Gantt / Prometheus / "
             "Chrome trace)")
    telemetry_timeline.add_argument(
        "timeline", nargs="?", default="campaign-timeline.json",
        help="timeline JSON written by campaign run "
             "(default: campaign-timeline.json)")
    telemetry_timeline.add_argument(
        "--format", choices=("ascii", "prometheus", "chrome"),
        default="ascii", help="output format (default: ascii)")
    telemetry_timeline.add_argument(
        "--width", type=int, default=64,
        help="Gantt chart width in characters (ascii format only)")
    telemetry_timeline.add_argument(
        "--out", metavar="PATH", default=None,
        help="write to PATH instead of stdout")
    telemetry_diff = telemetry_sub.add_parser(
        "diff",
        help="compare two timelines, manifests or BENCH files "
             "metric-by-metric")
    telemetry_diff.add_argument(
        "baseline", help="baseline timeline, run-manifest or BENCH JSON")
    telemetry_diff.add_argument(
        "current", help="current timeline, run-manifest or BENCH JSON")
    telemetry_diff.add_argument(
        "--tolerance", type=float, default=None,
        help="relative tolerance before a metric counts as changed "
             "(default: 0.25)")
    telemetry_diff.add_argument(
        "--only-changed", action="store_true",
        help="hide rows whose status is 'ok'")
    telemetry_diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 if any metric regresses beyond tolerance")

    validate = sub.add_parser(
        "validate",
        help="run the cross-layer invariant checkers over a trace or config")
    validate.add_argument(
        "target", nargs="?", default="small",
        help="a .reprotrace directory, 'small'/'standard' to build that "
             "campaign dataset, or 'incast' to run a tiny DCTCP incast "
             "through the queued transport and validate it "
             "(default: small)")
    validate.add_argument("--checkers", default=None, metavar="NAMES",
                          help="comma-separated checker names (default: all "
                               "non-inline checkers; see --list)")
    validate.add_argument("--list", action="store_true", dest="list_checkers",
                          help="enumerate the checker registry and exit")
    validate.add_argument("--seed", type=int, default=None,
                          help="seed for the built campaign (config targets "
                               "only)")
    validate.add_argument("--manifest-out", default=None, metavar="PATH",
                          help="also write a run manifest with the "
                               "validation telemetry")

    bench = sub.add_parser(
        "bench", help="run the benchmark suite")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="execute benchmarks/ and write a BENCH_*.json")
    bench_run.add_argument("--quick", action="store_true",
                           help="only the fast no-dataset benchmarks "
                                "(waterfill + small campaign)")
    bench_run.add_argument("-k", dest="keyword", default=None, metavar="EXPR",
                           help="pytest -k selection expression "
                                "(overrides --quick)")
    bench_run.add_argument("--out", default="BENCH_current.json", metavar="PATH",
                           help="results file to write "
                                "(default: BENCH_current.json)")
    bench_run.add_argument("--benchmarks-dir", default="benchmarks",
                           metavar="DIR",
                           help="benchmark suite directory "
                                "(default: benchmarks)")
    bench_run.add_argument("--profile", action="store_true",
                           help="cProfile the measuring process; dump "
                                "the top entries next to the results "
                                "JSON as *.profile.txt")
    bench_run.add_argument("--verbose", action="store_true",
                           help="run pytest with -v")
    return parser


def _print_heartbeat(snapshot: dict) -> None:
    """One progress line per heartbeat, on stderr (stdout stays parseable)."""
    print(
        "[telemetry] t={now:.1f}s/{duration:.1f}s ({percent:.0f}%) "
        "events={events_processed} ({events_per_wall_second:.0f}/s) "
        "active_flows={active_flows} jobs={jobs_finished}/{jobs_started} "
        "transfers={transfers_completed}".format(**snapshot),
        file=sys.stderr,
        flush=True,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .instrumentation.storage import serialize_log
    from .simulation.simulator import simulate

    config = SimulationConfig(
        cluster=_cluster_spec_from_args(args),
        workload=WorkloadConfig(job_arrival_rate=args.arrival_rate),
        duration=args.duration,
        seed=args.seed,
        routing_impl=args.routing,
    )
    telemetry_on = bool(args.telemetry or args.trace_out or args.manifest_out)
    if telemetry_on:
        from .experiments.common import build_dataset
        from .telemetry import RunManifest, Telemetry

        tele = Telemetry()
        # The full dataset build (campaign + flow reconstruction + TM
        # series) exercises every instrumented stage, so the manifest
        # captures the pipeline end to end — including the dataset
        # cache behaviour the figure sweeps depend on.
        with tele.span("cli.simulate"):
            dataset = build_dataset(
                config,
                telemetry=tele,
                heartbeat=_print_heartbeat,
                heartbeat_interval=args.heartbeat,
            )
        result = dataset.result
    else:
        result = simulate(config)
    print(f"cluster:  {result.topology.describe()}")
    for key in sorted(result.stats):
        print(f"  {key}: {result.stats[key]:.0f}")
    total = sum(t.size for t in result.transfers)
    print(f"  bytes transferred: {format_bytes(total)}")
    if args.dump_log:
        serialized = serialize_log(result.socket_log)
        with open(args.dump_log, "wb") as handle:
            handle.write(serialized.compressed)
        print(f"wrote {format_bytes(serialized.compressed_size)} "
              f"(compressed {serialized.compression_ratio:.1f}x) to {args.dump_log}")
    if telemetry_on:
        if args.trace_out:
            count = tele.tracer.write_jsonl(args.trace_out)
            print(f"wrote {count} spans to {args.trace_out}")
        manifest_path = args.manifest_out
        if manifest_path is None:
            manifest_path = (
                f"{args.trace_out}.manifest.json"
                if args.trace_out
                else "repro-manifest.json"
            )
        from .experiments.cache import dataset_content_hash

        manifest = RunManifest.capture(
            "simulate", config, tele,
            extra={"dataset_content_hash": dataset_content_hash(dataset)},
        )
        manifest.write(manifest_path)
        print(f"wrote run manifest ({len(manifest.metrics)} metrics) "
              f"to {manifest_path}")
    return 0


def _format_metric(state: dict) -> str:
    """One-cell rendering of a metric snapshot for the report table."""
    if state.get("type") == "histogram":
        return (f"n={state['count']} mean={state['mean']:.3g} "
                f"p50={state['p50']:.3g} p99={state['p99']:.3g} "
                f"max={state['max']:.3g}")
    return f"{state.get('value', 0.0):.6g}"


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    import glob as globlib

    from .experiments.reporting import format_table
    from .telemetry import RunManifest, aggregate_spans, load_spans

    if not args.trace and not args.manifest:
        print("nothing to report: pass a trace file and/or --manifest",
              file=sys.stderr)
        return 2
    traces: list[str] = []
    for pattern in args.trace:
        matches = sorted(globlib.glob(pattern))
        if not matches:
            print(f"no trace matches {pattern!r}", file=sys.stderr)
            return 2
        traces.extend(matches)
    if traces:
        rollup = aggregate_spans(load_spans(traces))
        rows = [
            (name, str(agg["count"]), f"{agg['total_s']:.3f}",
             f"{agg['mean_s']:.3f}", f"{agg['max_s']:.3f}")
            for name, agg in sorted(
                rollup.items(), key=lambda item: -item[1]["total_s"]
            )
        ]
        source = traces[0] if len(traces) == 1 else f"{len(traces)} traces"
        print(format_table(
            f"spans — {source}", rows,
            headers=("span", "count", "total s", "mean s", "max s"),
        ))
    if args.manifest:
        manifest = RunManifest.load(args.manifest)
        if traces:
            print()
        print(f"run: {manifest.command!r} seed={manifest.seed} "
              f"git={manifest.git_version} at {manifest.created_at} "
              f"({manifest.wall_seconds:.2f}s wall)")
        rows = [
            (name, _format_metric(state))
            for name, state in manifest.metrics.items()
        ]
        print(format_table(
            f"metrics — {args.manifest}", rows, headers=("metric", "value"),
        ))
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.telemetry_command == "timeline":
        return _cmd_telemetry_timeline(args)
    return _cmd_telemetry_diff(args)


def _cmd_telemetry_timeline(args: argparse.Namespace) -> int:
    import json

    from .telemetry import load_timeline
    from .telemetry.export import render_timeline, to_chrome_trace, to_prometheus

    try:
        timeline = load_timeline(args.timeline)
    except FileNotFoundError:
        print(f"error: no timeline at {args.timeline!r} "
              "(campaign run writes one next to the manifest)",
              file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "prometheus":
        text = to_prometheus(timeline.get("metrics", {}))
    elif args.format == "chrome":
        text = json.dumps(to_chrome_trace(timeline), indent=2) + "\n"
    else:
        text = render_timeline(timeline, width=args.width) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.format} timeline to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_telemetry_diff(args: argparse.Namespace) -> int:
    from .telemetry.export import (
        DEFAULT_DIFF_TOLERANCE,
        diff_observables,
        format_diff_table,
    )

    tolerance = (args.tolerance if args.tolerance is not None
                 else DEFAULT_DIFF_TOLERANCE)
    try:
        rows = diff_observables(args.baseline, args.current,
                                tolerance=tolerance)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_diff_table(rows, tolerance=tolerance,
                            only_changed=args.only_changed))
    regressed = any(row.status == "regression" for row in rows)
    if regressed and args.fail_on_regression:
        return 1
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import (
        build_dataset,
        experiment_names,
        experiment_specs,
        format_table,
        get_experiment,
        small_config,
        standard_config,
    )
    from .viz.figures import render_figure

    if args.list_experiments:
        rows = [
            (spec.name, spec.kind, spec.figure, spec.title)
            for spec in experiment_specs()
        ]
        print(format_table("experiment registry", rows,
                           headers=("name", "kind", "figure", "title")))
        return 0
    figure_names = experiment_names(kind="figure")
    names = args.names or figure_names
    unknown = [n for n in names if n not in figure_names]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.standard:
        config = standard_config() if args.seed is None else standard_config(args.seed)
    else:
        config = small_config() if args.seed is None else small_config(args.seed)
    print("Building campaign dataset...")
    dataset = build_dataset(config)
    for name in names:
        get_experiment(name)  # resolves through the registry
        print()
        print(render_figure(name, dataset))
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from .experiments import experiment_names, format_table, get_experiment

    ablation_names = experiment_names(kind="ablation")
    names = args.names or ablation_names
    unknown = [n for n in names if n not in ablation_names]
    if unknown:
        print(f"unknown ablations: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        print(f"Running ablation {name!r}...")
        result = get_experiment(name).run(seed=args.seed)
        print(format_table(f"ablation: {name}", result.rows()))
        print()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "report":
        return _cmd_campaign_report(args)
    if args.campaign_command == "status":
        return _cmd_campaign_status(args)
    from .experiments import (
        campaign_manifest,
        experiment_names,
        render_campaign_report,
        run_campaign,
        small_config,
        standard_config,
    )
    from .telemetry import Telemetry, write_timeline

    names = (
        [name.strip() for name in args.experiments.split(",") if name.strip()]
        if args.experiments
        else None
    )
    if names:
        known = set(experiment_names())
        unknown = [n for n in names if n not in known]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
            return 2
    config = standard_config() if args.standard else small_config()
    if args.base_seed is not None:
        config = config.with_seed(args.base_seed)

    durations: list[float] = []

    def report_progress(record: dict, completed: int, total: int) -> None:
        if record.get("resumed"):
            source = "resumed"
        else:
            source = "disk cache" if record["from_disk_cache"] else "built"
        durations.append(record["wall_seconds"])
        remaining = total - completed
        eta = ""
        if remaining and durations:
            # Completed-seed durations predict the rest; parallel lanes
            # divide the residual work.
            per_seed = sum(durations) / len(durations)
            lanes = max(1, min(args.jobs, remaining))
            eta = f" eta~{per_seed * remaining / lanes:.0f}s"
        print(f"[campaign] seed {record['seed']} done in "
              f"{record['wall_seconds']:.1f}s ({source}) — "
              f"{completed}/{total}{eta}",
              file=sys.stderr, flush=True)

    tele = Telemetry()
    try:
        result = run_campaign(
            config,
            seeds=args.seeds,
            experiments=names,
            jobs=args.jobs,
            telemetry=tele,
            cache_dir=args.cache_dir,
            disk_cache=False if args.no_disk_cache else True,
            progress=report_progress,
            heartbeat_interval=args.heartbeat,
            resume=args.resume,
            lease_ttl=args.lease_ttl,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    manifest = campaign_manifest(result, tele)
    manifest.write(args.manifest_out)
    timeline_out = args.timeline_out
    if timeline_out is None:
        stem = re.sub(r"-?manifest", "", pathlib.Path(args.manifest_out).stem)
        timeline_out = str(pathlib.Path(args.manifest_out).with_name(
            f"{stem or 'campaign'}-timeline.json"))
    write_timeline(timeline_out, result.timeline)
    print(render_campaign_report(result.extra()))
    print(f"\nwrote campaign manifest ({len(result.seeds)} seeds, "
          f"{len(result.experiments)} experiments) to {args.manifest_out}")
    print(f"wrote campaign timeline ({result.campaign_id}) to {timeline_out}\n"
          f"render it with: repro telemetry timeline {timeline_out}")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .experiments import experiment_names, small_config, standard_config
    from .experiments.reporting import format_table
    from .experiments.scheduler import queue_status

    names = (
        [name.strip() for name in args.experiments.split(",") if name.strip()]
        if args.experiments
        else experiment_names(kind="figure")
    )
    config = standard_config() if args.standard else small_config()
    if args.base_seed is not None:
        config = config.with_seed(args.base_seed)
    seeds = [config.seed + i for i in range(args.seeds)]
    status = queue_status(config, seeds, names, cache_dir=args.cache_dir)
    print(f"queue {status['queue_id']} at {status['queue_dir']}"
          + ("" if status["exists"] else " (not created yet)"))
    rows = []
    for unit in status["units"]:
        lease = unit["lease"]
        holder = ""
        if lease is not None:
            age = max(0.0, _time.time() - float(lease.get("heartbeat", 0.0)))
            holder = (f"pid {lease.get('pid')}@{lease.get('host')} "
                      f"heartbeat {age:.1f}s ago")
        rows.append((
            str(unit["seed"]),
            unit["fingerprint"][:12],
            unit["state"],
            holder,
        ))
    print(format_table(
        "work units", rows,
        headers=("seed", "fingerprint", "state", "lease"),
    ))
    counts = status["counts"]
    total = sum(counts.values())
    print(f"\n{counts['done']}/{total} done, {counts['leased']} leased, "
          f"{counts['stale']} stale, {counts['pending']} pending")
    if counts["done"] < total:
        print("resume with: repro campaign run --resume "
              "(matching seeds/experiments/cache-dir)")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .experiments import render_campaign_report
    from .telemetry import RunManifest

    manifest = RunManifest.load(args.manifest)
    campaign = manifest.extra.get("campaign")
    if not campaign:
        print(f"{args.manifest} holds no campaign record", file=sys.stderr)
        return 2
    print(f"run: {manifest.command!r} base seed={manifest.seed} "
          f"git={manifest.git_version} at {manifest.created_at}")
    print()
    print(render_campaign_report(campaign))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "record": _cmd_trace_record,
        "ls": _cmd_trace_ls,
        "info": _cmd_trace_info,
        "analyze": _cmd_trace_analyze,
    }
    return handlers[args.trace_command](args)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry
    from .trace import DEFAULT_CHUNK_SIZE, record_trace
    from .trace.record import DEFAULT_FLUSH_INTERVAL

    config = SimulationConfig(
        cluster=_cluster_spec_from_args(args),
        workload=WorkloadConfig(job_arrival_rate=args.arrival_rate),
        duration=args.duration,
        seed=args.seed,
        routing_impl=args.routing,
    )
    tele = Telemetry()
    try:
        record = record_trace(
            config,
            args.out,
            chunk_size=args.chunk_size or DEFAULT_CHUNK_SIZE,
            flush_interval=args.flush_interval or DEFAULT_FLUSH_INTERVAL,
            telemetry=tele,
            overwrite=args.overwrite,
            heartbeat=_print_heartbeat if args.heartbeat else None,
            heartbeat_interval=args.heartbeat,
        )
    except FileExistsError as error:
        print(f"{error} (use --overwrite to replace it)", file=sys.stderr)
        return 2
    manifest = record.manifest
    metrics = tele.metrics.snapshot()
    written = int(metrics.get("trace.bytes_written", {}).get("value", 0))
    print(f"recorded {manifest['total_rows']} events in "
          f"{len(manifest['chunks'])} chunk(s) to {record.path}")
    print(f"  chunk size: {manifest['chunk_size']} rows")
    print(f"  event bytes written: {format_bytes_binary(written)}")
    span = manifest["time_span"]
    if span:
        print(f"  time span: {span[0]:.3f}s .. {span[1]:.3f}s")
    print(f"  config fingerprint: {manifest['meta']['config_fingerprint'][:12]}")
    return 0


def _cmd_trace_ls(args: argparse.Namespace) -> int:
    from .experiments import format_table
    from .trace import TraceReader, find_traces

    traces = find_traces(args.root)
    if not traces:
        print(f"no traces under {args.root}")
        return 0
    rows = []
    for path in traces:
        reader = TraceReader(path)
        first, last = reader.time_span()
        rows.append((
            str(path),
            str(reader.num_chunks),
            str(reader.total_rows),
            format_bytes_binary(reader.bytes_on_disk()),
            f"{last - first:.0f}s",
            str(reader.meta.get("seed", "?")),
        ))
    print(format_table(
        f"traces — {args.root}", rows,
        headers=("trace", "chunks", "rows", "size", "span", "seed"),
    ))
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .experiments import format_table
    from .trace import TraceReader

    reader = TraceReader(args.trace)
    manifest = reader.manifest
    print(f"trace: {args.trace}")
    print(f"  format: {manifest['format']} v{manifest['schema_version']}")
    print(f"  rows: {reader.total_rows} in {reader.num_chunks} chunk(s) "
          f"(chunk size {reader.chunk_size})")
    print(f"  on disk: {format_bytes_binary(reader.bytes_on_disk())}")
    first, last = reader.time_span()
    print(f"  time span: {first:.3f}s .. {last:.3f}s")
    loads = manifest.get("linkloads")
    if loads:
        print(f"  linkloads: {loads['num_links']} links x {loads['num_bins']} "
              f"bins @ {loads['bin_width']:.0f}s")
    for key in sorted(reader.meta):
        if key != "cluster_spec":
            print(f"  meta.{key}: {reader.meta[key]}")
    if args.chunks and reader.num_chunks:
        rows = [
            (entry["file"], str(entry["rows"]),
             f"{entry['t_min']:.3f}", f"{entry['t_max']:.3f}",
             entry["sha256"][:12])
            for entry in reader.chunks
        ]
        print()
        print(format_table("chunks", rows,
                           headers=("file", "rows", "t_min", "t_max", "sha256")))
    if args.verify:
        bad = reader.verify()
        if bad:
            print(f"CORRUPT: {len(bad)} file(s) fail verification: "
                  f"{', '.join(bad)}", file=sys.stderr)
            return 1
        print(f"  verified: all {reader.num_chunks} chunk hash(es) match")
    return 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    from .core.flows import DEFAULT_INACTIVITY_TIMEOUT
    from .telemetry import Telemetry
    from .trace import analyze_trace, check_against_inmemory

    timeout = (
        args.timeout if args.timeout is not None else DEFAULT_INACTIVITY_TIMEOUT
    )
    tele = Telemetry()
    analysis = analyze_trace(
        args.trace,
        window=args.window,
        inactivity_timeout=timeout,
        threshold=args.threshold,
        telemetry=tele,
    )
    print(f"analyzed {analysis.rows} events in {analysis.chunks} chunk(s)")
    for key, value in analysis.summary().items():
        if isinstance(value, float):
            print(f"  {key}: {value:.6g}")
        else:
            print(f"  {key}: {value}")
    stats = analysis.flow_stats
    if stats.get("flows"):
        print(f"  median flow bytes: "
              f"{format_bytes(stats['median_bytes'])} "
              f"(max {format_bytes(stats['max_bytes'])})")
        print(f"  median flow duration: {stats['median_durations']:.3g}s "
              f"(max {stats['max_duration']:.3g}s)")
    if args.check:
        checks = check_against_inmemory(
            args.trace, window=args.window,
            inactivity_timeout=timeout, threshold=args.threshold,
        )
        for name, passed in checks.items():
            print(f"  check {name}: {'OK' if passed else 'MISMATCH'}")
        if not checks["all_equal"]:
            return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments import format_table
    from .telemetry import RunManifest, Telemetry
    from .trace.format import is_trace_dir
    from .validate import checker_specs, get_checker, validate

    if args.list_checkers:
        rows = [
            (spec.name, ",".join(sorted(spec.tags)) or "-", spec.description)
            for spec in checker_specs()
        ]
        print(format_table("invariant checkers", rows,
                           headers=("name", "tags", "description")))
        return 0
    names = None
    if args.checkers:
        names = [n.strip() for n in args.checkers.split(",") if n.strip()]
        try:
            for name in names:
                get_checker(name)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
    if is_trace_dir(args.target):
        if args.seed is not None:
            print("--seed applies to config targets, not traces",
                  file=sys.stderr)
            return 2
        source = args.target
        config = None
        print(f"validating trace {args.target}")
    elif args.target in ("small", "standard"):
        from .experiments import build_dataset, small_config, standard_config

        config = (
            small_config() if args.target == "small" else standard_config()
        )
        if args.seed is not None:
            config = config.with_seed(args.seed)
        print(f"building the {args.target} campaign dataset "
              f"(seed {config.seed})...")
        source = build_dataset(config)
    elif args.target == "incast":
        from .simulation.cc import incast_result

        print("running a small DCTCP incast through the queued transport...")
        result = incast_result("dctcp", 8, duration=5.0)
        config = result.config
        source = result
    else:
        print(f"{args.target!r} is neither a trace directory nor "
              "'small'/'standard'/'incast'", file=sys.stderr)
        return 2
    tele = Telemetry()
    with tele.span("cli.validate", target=str(args.target)):
        report = validate(source, names=names, telemetry=tele)
    print(report.render())
    if args.manifest_out:
        manifest = RunManifest.capture(
            "validate", config, tele,
            extra={
                "target": str(args.target),
                "violations": len(report.violations),
            },
        )
        manifest.write(args.manifest_out)
        print(f"wrote run manifest to {args.manifest_out}")
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments import format_table
    from .experiments.cache import DatasetDiskCache

    disk = DatasetDiskCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = disk.clear()
        print(f"removed {removed} cached dataset(s) from {disk.root}")
        return 0
    entries = disk.entries()
    if not entries:
        print(f"no cached datasets under {disk.root}")
        return 0
    rows = [
        (
            entry.get("fingerprint", "?")[:12],
            str(entry.get("seed", "?")),
            f"{entry.get('duration', 0.0):.0f}s",
            format_bytes_binary(entry.get("size_bytes", 0)),
            entry.get("content_hash", "?")[:12],
        )
        for entry in entries
    ]
    print(format_table(
        f"dataset cache — {disk.root}", rows,
        headers=("fingerprint", "seed", "duration", "size", "content hash"),
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.runner import run_benchmarks

    code = run_benchmarks(
        out=args.out,
        benchmarks_dir=args.benchmarks_dir,
        quick=args.quick,
        keyword=args.keyword,
        verbose=args.verbose,
        profile=args.profile,
    )
    if code == 0:
        print(f"benchmark results written to {args.out}")
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "figures": _cmd_figures,
        "ablations": _cmd_ablations,
        "campaign": _cmd_campaign,
        "trace": _cmd_trace,
        "cache": _cmd_cache,
        "telemetry-report": _cmd_telemetry_report,
        "telemetry": _cmd_telemetry,
        "validate": _cmd_validate,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
