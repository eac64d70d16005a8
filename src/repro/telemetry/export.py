"""Export and comparison surfaces for merged campaign telemetry.

Three consumers of a campaign timeline (:mod:`repro.telemetry.merge`):

* a human at a terminal — :func:`render_timeline` draws the per-worker
  lanes as an ASCII Gantt (same no-plotting-stack philosophy as
  :mod:`repro.util.ascii`), with phase totals so the 0.84x parallel
  pathology reads directly off the chart;
* external tooling — :func:`to_prometheus` emits the merged metrics in
  Prometheus text exposition format, :func:`to_chrome_trace` emits
  Chrome ``trace_event`` JSON loadable in ``about:tracing`` / Perfetto;
* CI — :func:`diff_observables` compares two manifests, timelines or
  ``BENCH_*.json`` results files metric-by-metric under a relative
  tolerance (statuses ``ok`` / ``regression`` / ``improved`` / ``new``
  / ``missing``), so observability and performance regressions show up
  as one delta table.  It is the repo's only comparator: ``repro
  telemetry diff`` is the CLI over it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from ..bench.results import load_results
from .merge import TIMELINE_KIND

__all__ = [
    "render_timeline",
    "to_prometheus",
    "to_chrome_trace",
    "DiffRow",
    "load_observable",
    "diff_observables",
    "format_diff_table",
    "DEFAULT_DIFF_TOLERANCE",
    "HIGHER_IS_BETTER",
]

#: Default relative tolerance for ``repro telemetry diff``: wide enough
#: for host noise, tight enough to catch real drift.
DEFAULT_DIFF_TOLERANCE = 0.25

#: Rows where a drop, not a rise, is the regression.  Every other row —
#: counters, phase budgets, every ``BENCH_*.json`` wall time — is
#: lower-is-better.
HIGHER_IS_BETTER = frozenset({"timeline.coverage", "sim.events_per_wall_second"})

_STATUS_ORDER = {"regression": 0, "improved": 1, "ok": 2, "new": 3, "missing": 4}

#: One Gantt character per phase; idle time renders as ``.``.
_PHASE_CHARS = {
    "spawn": "s",
    "import": "i",
    "wait": "w",
    "claim": "a",
    "lease-wait": "W",
    "dataset-load": "d",
    "compute": "c",
    "merge": "m",
}


# --------------------------------------------------------------- ASCII Gantt


def render_timeline(timeline: dict, width: int = 64) -> str:
    """Render a merged campaign timeline as an ASCII Gantt chart."""
    if width < 8:
        raise ValueError("width must be at least 8")
    window = timeline.get("window", {})
    start = float(window.get("start", 0.0))
    wall = max(float(window.get("wall_seconds", 0.0)), 1e-9)

    def col(t: float) -> int:
        return max(0, min(width - 1, int((t - start) / wall * width)))

    lanes = timeline.get("lanes", [])
    label_width = max([len(lane.get("label", "?")) for lane in lanes] + [4])
    lines = [
        f"campaign timeline — {timeline.get('campaign_id', '?')}",
        (
            f"seeds={timeline.get('seeds')} jobs={timeline.get('jobs')} "
            f"wall={wall:.2f}s coverage={timeline.get('coverage', 0.0):.1%}"
        ),
        "",
    ]
    for lane in lanes:
        row = ["."] * width
        phases = [
            phase
            for segment in lane.get("segments", [])
            for phase in segment.get("phases", [])
        ]
        # Wait-like phases paint first so overlapping segments (one
        # worker, many seeds) never hide the active phase under a wait.
        phases.sort(key=lambda p: (
            p.get("name") not in ("wait", "lease-wait"),
            p.get("start", 0.0),
        ))
        for phase in phases:
            mark = _PHASE_CHARS.get(phase.get("name", ""), "#")
            lo = col(float(phase.get("start", start)))
            hi = col(
                float(phase.get("start", start))
                + float(phase.get("duration", 0.0))
            )
            for index in range(lo, max(hi, lo + 1)):
                row[index] = mark
        seeds = ",".join(str(s) for s in lane.get("seeds", []))
        label = f"{lane.get('label', '?'):<{label_width}}"
        lines.append(f"{label} |{''.join(row)}| {seeds}")
    lines.append(
        " " * label_width
        + " +"
        + "-" * width
        + f"+ 0 .. {wall:.2f}s"
    )
    key = " ".join(f"{char}={name}" for name, char in _PHASE_CHARS.items())
    lines.append(f"phase key: {key} (.=idle)")
    totals = timeline.get("phase_totals", {})
    if totals:
        lines.append("")
        lines.append("phase totals (summed across lanes):")
        biggest = max(len(name) for name in totals)
        budget = sum(totals.values()) or 1.0
        for name, seconds in totals.items():
            lines.append(
                f"  {name:<{biggest}}  {seconds:8.2f}s  {seconds / budget:6.1%}"
            )
    return "\n".join(lines)


# ------------------------------------------------------------- Prometheus


def _split_flat_key(flat: str) -> tuple[str, list[tuple[str, str]]]:
    if "{" not in flat:
        return flat, []
    name, rest = flat.split("{", 1)
    pairs = [
        tuple(part.split("=", 1))
        for part in rest.rstrip("}").split(",")
        if "=" in part
    ]
    return name, pairs  # type: ignore[return-value]


def _prom_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{_prom_name(key)}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def to_prometheus(metrics: dict) -> str:
    """Metrics snapshot → Prometheus text exposition format.

    Counters and gauges map directly; histograms become summaries
    (``_count`` / ``_sum`` plus ``quantile``-labelled samples from the
    reservoir estimates).
    """
    lines: list[str] = []
    typed: set[str] = set()
    for flat, state in metrics.items():
        name, pairs = _split_flat_key(flat)
        prom = _prom_name(name)
        kind = state.get("type", "gauge")
        if kind == "histogram":
            if prom not in typed:
                lines.append(f"# TYPE {prom} summary")
                typed.add(prom)
            labels = _prom_labels(pairs)
            lines.append(f"{prom}_count{labels} {state.get('count', 0)}")
            lines.append(f"{prom}_sum{labels} {state.get('sum', 0.0):.10g}")
            for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                qpairs = pairs + [("quantile", quantile)]
                lines.append(
                    f"{prom}{_prom_labels(qpairs)} {state.get(key, 0.0):.10g}"
                )
        else:
            if prom not in typed:
                lines.append(f"# TYPE {prom} {kind}")
                typed.add(prom)
            lines.append(
                f"{prom}{_prom_labels(pairs)} {state.get('value', 0.0):.10g}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------ Chrome trace


def to_chrome_trace(timeline: dict) -> dict:
    """Timeline → Chrome ``trace_event`` JSON (``about:tracing`` format).

    Lanes become threads; resource phases and worker spans become
    complete (``"ph": "X"``) events with microsecond timestamps relative
    to the campaign window start.
    """
    base = float(timeline.get("window", {}).get("start", 0.0))
    events: list[dict] = []
    for tid, lane in enumerate(timeline.get("lanes", [])):
        events.append({
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": f"{lane.get('label')} (pid {lane.get('pid')})"},
        })
        for segment in lane.get("segments", []):
            seed = segment.get("seed")
            for phase in segment.get("phases", []):
                events.append({
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "cat": "phase",
                    "name": phase.get("name", "?"),
                    "ts": (float(phase.get("start", base)) - base) * 1e6,
                    "dur": float(phase.get("duration", 0.0)) * 1e6,
                    "args": {"seed": seed},
                })
            for span in segment.get("spans", []):
                events.append({
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "cat": "span",
                    "name": span.get("name", "?"),
                    "ts": (float(span.get("start", base)) - base) * 1e6,
                    "dur": float(span.get("duration", 0.0)) * 1e6,
                    "args": dict(span.get("attrs", {}), seed=seed),
                })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "campaign_id": timeline.get("campaign_id"),
            "jobs": timeline.get("jobs"),
            "coverage": timeline.get("coverage"),
        },
    }


# -------------------------------------------------------------------- diff


@dataclass(frozen=True)
class DiffRow:
    """One metric's baseline-vs-current verdict."""

    name: str
    baseline: float | None
    current: float | None
    #: current / baseline (None when either side is absent).
    ratio: float | None
    #: "ok" | "regression" | "improved" | "new" | "missing"
    status: str


def _scalar_rows(metrics: dict) -> dict[str, float]:
    """Flatten a metrics snapshot into comparable named scalars.

    Counters and gauges contribute their value; histograms contribute
    their count and mean (the shape facets that should be stable across
    equivalent runs).
    """
    rows: dict[str, float] = {}
    for flat, state in metrics.items():
        if state.get("type") == "histogram":
            rows[f"{flat}[count]"] = float(state.get("count", 0))
            rows[f"{flat}[mean]"] = float(state.get("mean", 0.0))
        else:
            rows[flat] = float(state.get("value", 0.0))
    return rows


def load_observable(path) -> dict:
    """Load a manifest, timeline or BENCH file into ``{name: value}``.

    Accepts a campaign timeline (``repro campaign run`` writes one next
    to the manifest), any :class:`~repro.telemetry.RunManifest` JSON, or
    a ``BENCH_*.json`` results file.  Timeline phase totals join the
    comparison as ``phase.<name>_seconds`` pseudo-metrics so a
    spawn-time regression is flagged like any other.  A BENCH file
    contributes one row per benchmark id holding its ``wall_seconds``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("kind") == TIMELINE_KIND:
        rows = _scalar_rows(data.get("metrics", {}))
        for name, seconds in data.get("phase_totals", {}).items():
            rows[f"phase.{name}_seconds"] = float(seconds)
        rows["timeline.coverage"] = float(data.get("coverage", 0.0))
        return rows
    if "benchmarks" in data:
        return {
            bench_id: result.wall_seconds
            for bench_id, result in load_results(path).items()
        }
    if "metrics" in data:
        rows = _scalar_rows(data.get("metrics", {}))
        observability = data.get("extra", {}).get("observability", {})
        for name, seconds in observability.get("phase_totals", {}).items():
            rows[f"phase.{name}_seconds"] = float(seconds)
        return rows
    raise ValueError(
        f"{path} is neither a campaign timeline, a run manifest nor a "
        "BENCH results file"
    )


def diff_observables(
    baseline: dict[str, float] | str,
    current: dict[str, float] | str,
    tolerance: float = DEFAULT_DIFF_TOLERANCE,
) -> list[DiffRow]:
    """Compare two observable payloads metric-by-metric.

    A metric regresses when ``current / baseline`` exceeds ``1 +
    tolerance`` and improves below ``1 - tolerance``; the rows in
    :data:`HIGHER_IS_BETTER` read the other way round.  A NaN on either
    side is a regression.  One-sided metrics are ``new`` / ``missing``
    and never count as regressions.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if not isinstance(baseline, dict):
        baseline = load_observable(baseline)
    if not isinstance(current, dict):
        current = load_observable(current)
    rows: list[DiffRow] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            rows.append(DiffRow(name, None, cur, None, "new"))
            continue
        if cur is None:
            rows.append(DiffRow(name, base, None, None, "missing"))
            continue
        if math.isnan(base) or math.isnan(cur):
            rows.append(DiffRow(name, base, cur, float("nan"), "regression"))
            continue
        if base == cur:
            ratio = 1.0
        elif base == 0.0:
            ratio = float("inf")
        else:
            ratio = cur / base
        worse, better = ratio > 1.0 + tolerance, ratio < 1.0 - tolerance
        if name in HIGHER_IS_BETTER:
            worse, better = better, worse
        status = "regression" if worse else "improved" if better else "ok"
        rows.append(DiffRow(name, base, cur, ratio, status))
    rows.sort(key=lambda row: (_STATUS_ORDER[row.status], row.name))
    return rows


def _fmt_value(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def format_diff_table(
    rows: list[DiffRow],
    tolerance: float = DEFAULT_DIFF_TOLERANCE,
    only_changed: bool = False,
) -> str:
    """Render diff rows as the aligned delta table CI prints."""
    shown = [
        row for row in rows
        if not only_changed or row.status != "ok"
    ]
    header = ("metric", "baseline", "current", "delta", "status")
    body = []
    for row in shown:
        if row.ratio is None:
            delta = "-"
        elif math.isnan(row.ratio):
            delta = "nan"
        elif math.isinf(row.ratio):
            delta = "+inf"
        else:
            delta = f"{(row.ratio - 1.0) * 100:+.1f}%"
        body.append(
            (row.name, _fmt_value(row.baseline), _fmt_value(row.current),
             delta, row.status)
        )
    widths = [
        max(len(header[col]), *(len(line[col]) for line in body))
        if body else len(header[col])
        for col in range(5)
    ]
    lines = [
        "  ".join(header[col].ljust(widths[col]) for col in range(5)),
        "  ".join("-" * widths[col] for col in range(5)),
    ]
    for line in body:
        lines.append("  ".join(line[col].ljust(widths[col]) for col in range(5)))
    regressions = sum(1 for row in rows if row.status == "regression")
    hidden = len(rows) - len(shown)
    lines.append("")
    summary = (
        f"{len(rows)} metric(s), {regressions} regression(s) "
        f"at ±{tolerance * 100:.0f}% tolerance"
    )
    if hidden:
        summary += f" ({hidden} unchanged row(s) hidden)"
    lines.append(summary)
    return "\n".join(lines)
