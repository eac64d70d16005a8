"""Built-in invariant checkers.

Each checker guards one cross-layer agreement the paper's pipeline
depends on: bytes must be conserved from socket events through flows,
traffic matrices and link loads down to the tomography inputs (§3-§5 of
Kandula et al.), and every derived representation (streaming, trace,
dataset) must agree with the in-memory one it shadows.

Checkers are tolerant only where floating-point addition order can
differ between code paths; structural invariants (hashes, counts,
monotonicity, episode bounds) are exact.  Heavy imports (trace,
experiments) happen inside the checker bodies so this module can be
imported from anywhere without cycles.
"""

from __future__ import annotations

import numpy as np

from ..cluster.topology import NodeKind
from ..instrumentation.events import DIRECTION_RECV, DIRECTION_SEND
from .registry import checker, make_violation
from .violations import TraceCorruptionError, Violation

#: Relative tolerance for sums whose addition order differs per path.
_RTOL = 1e-9
#: Absolute slack in bytes for near-zero comparisons.
_ATOL = 1.0


def _close(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=_RTOL, atol=_ATOL))


def _kept_event_bytes(ctx) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps, bytes) of events under the TM keep rule.

    Send-side events count; receive-side events count only when the
    source is external (outside the instrumented set) — the exact rule
    :func:`~repro.core.traffic_matrix.tm_series_from_events` and the flow
    reconstruction's send-side preference both implement.
    """
    log = ctx.log
    direction = log.column("direction")
    src = log.column("src")
    external = np.fromiter(ctx.topology.external_hosts(), dtype=np.int64)
    is_external_src = np.isin(src, external)
    keep = (direction == DIRECTION_SEND) | is_external_src
    return log.column("timestamp")[keep], log.column("num_bytes")[keep]


# ----------------------------------------------------------------- events


@checker("events.sane", tags=("cheap", "events"), requires=("log",))
def check_events_sane(ctx) -> list[Violation]:
    """Event-log sanity: finite non-negative bytes, src != dst, bounds."""
    log = ctx.log
    violations: list[Violation] = []
    if len(log) == 0:
        return violations
    num_bytes = log.column("num_bytes")
    bad_bytes = int((~np.isfinite(num_bytes) | (num_bytes < 0)).sum())
    if bad_bytes:
        violations.append(make_violation(
            "events.sane", "events with negative or non-finite bytes",
            count=bad_bytes,
        ))
    self_talk = int((log.column("src") == log.column("dst")).sum())
    if self_talk:
        violations.append(make_violation(
            "events.sane",
            "events with src == dst (local transfers emit no socket events)",
            count=self_talk,
        ))
    direction = log.column("direction")
    bad_direction = int(
        ((direction != DIRECTION_SEND) & (direction != DIRECTION_RECV)).sum()
    )
    if bad_direction:
        violations.append(make_violation(
            "events.sane", "events with unknown direction flag",
            count=bad_direction,
        ))
    for port_column in ("src_port", "dst_port"):
        negative = int((log.column(port_column) < 0).sum())
        if negative:
            violations.append(make_violation(
                "events.sane", f"events with negative {port_column}",
                count=negative,
            ))
    times = log.column("timestamp")
    if not np.isfinite(times).all():
        violations.append(make_violation(
            "events.sane", "events with non-finite timestamps",
            count=int((~np.isfinite(times)).sum()),
        ))
    elif ctx.duration is not None:
        skew = ctx.clock_skew_max
        low, high = -skew - 1e-9, ctx.duration + skew + 1e-9
        out = int(((times < low) | (times > high)).sum())
        if out:
            violations.append(make_violation(
                "events.sane", "event timestamps outside run bounds",
                count=out, low=round(low, 6), high=round(high, 6),
                t_min=float(times.min()), t_max=float(times.max()),
            ))
    return violations


@checker("events.monotone", tags=("cheap", "events"), requires=("log",))
def check_events_monotone(ctx) -> list[Violation]:
    """Watermark monotonicity: the finalized log is time-sorted and trace
    chunks cover consecutive, non-overlapping time ranges."""
    violations: list[Violation] = []
    times = ctx.log.column("timestamp")
    if times.size and (np.diff(times) < 0).any():
        violations.append(make_violation(
            "events.monotone", "event timestamps are not non-decreasing",
            inversions=int((np.diff(times) < 0).sum()),
        ))
    if ctx.reader is not None:
        chunks = ctx.reader.chunks
        for index, entry in enumerate(chunks):
            if entry["rows"] and entry["t_min"] > entry["t_max"]:
                violations.append(make_violation(
                    "events.monotone", "chunk time range inverted",
                    chunk=entry["file"],
                ))
            if index and entry["t_min"] < chunks[index - 1]["t_max"]:
                violations.append(make_violation(
                    "events.monotone",
                    "chunk time ranges overlap (watermark violated)",
                    chunk=entry["file"],
                    t_min=entry["t_min"],
                    previous_t_max=chunks[index - 1]["t_max"],
                ))
    return violations


# ------------------------------------------------------ byte conservation


@checker(
    "bytes.conservation",
    tags=("bytes", "analysis"),
    requires=("log", "topology", "duration"),
)
def check_byte_conservation(ctx) -> list[Violation]:
    """Bytes agree across representations: kept events == flow table ==
    TM series, totals and per-window."""
    violations: list[Violation] = []
    times, kept = _kept_event_bytes(ctx)
    kept_total = float(kept.sum())
    flow_total = float(ctx.flows.num_bytes.sum()) if len(ctx.flows) else 0.0
    tm = ctx.tm
    tm_total = float(tm.matrices.sum())
    if not _close(flow_total, kept_total):
        violations.append(make_violation(
            "bytes.conservation", "flow bytes != kept event bytes",
            flow_total=flow_total, event_total=kept_total,
        ))
    if not _close(tm_total, kept_total):
        violations.append(make_violation(
            "bytes.conservation", "TM total != kept event bytes",
            tm_total=tm_total, event_total=kept_total,
        ))
    # Per-window: the TM's window totals must match an independent
    # binning of the kept events (same clip rule as the TM builder).
    window_ids = np.clip(
        (times / tm.window).astype(int), 0, tm.num_windows - 1
    )
    binned = np.bincount(window_ids, weights=kept, minlength=tm.num_windows)
    per_window = tm.totals_per_window()
    mismatched = ~np.isclose(per_window, binned, rtol=_RTOL, atol=_ATOL)
    if mismatched.any():
        first = int(np.flatnonzero(mismatched)[0])
        violations.append(make_violation(
            "bytes.conservation", "per-window TM totals != binned event bytes",
            windows=int(mismatched.sum()), first_window=first,
            tm_bytes=float(per_window[first]), event_bytes=float(binned[first]),
        ))
    return violations


@checker(
    "bytes.link_conservation",
    tags=("bytes", "linkloads"),
    requires=("linkloads", "topology"),
)
def check_link_conservation(ctx) -> list[Violation]:
    """Switches neither source nor sink traffic: per time bin, bytes into
    every ToR/Agg/Core node equal bytes out of it."""
    if ctx.transport_family == "queued":
        # Queued transports legitimately break per-bin switch flow
        # conservation: bytes resident in (or dropped at) a queue entered
        # the switch without leaving it.  Their accounting invariant is
        # transport.queue_conservation instead.
        return []
    violations: list[Violation] = []
    topology = ctx.topology
    byte_matrix = ctx.link_loads.byte_matrix()
    switch_kinds = (NodeKind.TOR, NodeKind.AGG, NodeKind.CORE)
    incoming: dict[int, list[int]] = {}
    outgoing: dict[int, list[int]] = {}
    for link in topology.links:
        if topology.node_kind(link.dst) in switch_kinds:
            incoming.setdefault(link.dst, []).append(link.link_id)
        if topology.node_kind(link.src) in switch_kinds:
            outgoing.setdefault(link.src, []).append(link.link_id)
    for node in sorted(incoming):
        in_series = byte_matrix[incoming[node]].sum(axis=0)
        out_series = byte_matrix[outgoing.get(node, [])].sum(axis=0)
        bad = ~np.isclose(in_series, out_series, rtol=1e-6, atol=_ATOL)
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            violations.append(make_violation(
                "bytes.link_conservation",
                "switch in-bytes != out-bytes",
                node=node, kind=topology.node_kind(node).name,
                bins=int(bad.sum()), first_bin=first,
                in_bytes=float(in_series[first]),
                out_bytes=float(out_series[first]),
            ))
    return violations


@checker(
    "bytes.linkloads_cover_events",
    tags=("bytes", "linkloads"),
    requires=("log", "linkloads", "topology"),
)
def check_linkloads_cover_events(ctx) -> list[Violation]:
    """Access links carry at least the bytes their server reported:
    socket events only exist for completed transfers, whose bytes the
    fluid integrator has fully accounted on every path link."""
    if ctx.transport_family == "queued":
        # Queued transports drop bytes at switch buffers, so access links
        # can legitimately carry less than the send side reported.
        return []
    violations: list[Violation] = []
    log = ctx.log
    if len(log) == 0:
        return violations
    topology = ctx.topology
    byte_matrix = ctx.link_loads.byte_matrix()
    link_totals = byte_matrix.sum(axis=1)
    direction = log.column("direction")
    num_bytes = log.column("num_bytes")
    for column, flag, label in (
        ("src", DIRECTION_SEND, "uplink"),
        ("dst", DIRECTION_RECV, "downlink"),
    ):
        servers = log.column(column)
        mask = direction == flag
        totals = np.bincount(
            servers[mask].astype(np.int64),
            weights=num_bytes[mask],
            minlength=topology.num_servers,
        )
        for server in np.flatnonzero(totals[: topology.num_servers]):
            tor = topology.tor_of_rack(topology.rack_of(int(server)))
            ends = (server, tor) if label == "uplink" else (tor, server)
            link = topology.link_between(*ends)
            carried = float(link_totals[link.link_id])
            reported = float(totals[server])
            if carried + 1e-6 * reported + _ATOL < reported:
                violations.append(make_violation(
                    "bytes.linkloads_cover_events",
                    f"server {label} carried fewer bytes than its events report",
                    server=int(server), link=link.link_id,
                    carried=carried, reported=reported,
                ))
    return violations


@checker("linkloads.sane", tags=("cheap", "linkloads"), requires=("linkloads",))
def check_linkloads_sane(ctx) -> list[Violation]:
    """Link byte bins are non-negative and never exceed capacity."""
    violations: list[Violation] = []
    loads = ctx.link_loads
    byte_matrix = loads.byte_matrix()
    negative = int((byte_matrix < 0).sum())
    if negative:
        violations.append(make_violation(
            "linkloads.sane", "negative link byte bins", count=negative,
        ))
    utilization = loads.utilization_matrix()
    over = utilization > 1.0 + 1e-6
    if over.any():
        worst = float(utilization.max())
        violations.append(make_violation(
            "linkloads.sane", "link utilisation exceeds capacity",
            bins=int(over.sum()), worst=worst,
        ))
    return violations


# ------------------------------------------------------------------ trace


@checker("trace.manifest", tags=("cheap", "trace"), requires=("trace",))
def check_trace_manifest(ctx) -> list[Violation]:
    """Manifest self-consistency: schema, row totals, files on disk."""
    from ..instrumentation.events import SocketEventLog

    violations: list[Violation] = []
    reader = ctx.reader
    manifest = reader.manifest
    expected = [name for name, _ in SocketEventLog.column_spec()]
    declared = [name for name, _ in manifest.get("columns", [])]
    if declared != expected:
        violations.append(make_violation(
            "trace.manifest", "column schema mismatch",
            declared=declared, expected=expected,
        ))
    rows = sum(int(entry["rows"]) for entry in reader.chunks)
    if rows != reader.total_rows:
        violations.append(make_violation(
            "trace.manifest", "per-chunk rows do not sum to total_rows",
            chunk_rows=rows, total_rows=reader.total_rows,
        ))
    for entry in reader.chunks:
        chunk_path = reader.path / entry["file"]
        if not chunk_path.is_file():
            violations.append(make_violation(
                "trace.manifest", "chunk file missing on disk",
                chunk=entry["file"],
            ))
    span = manifest.get("time_span")
    if reader.chunks and span:
        declared_span = (float(span[0]), float(span[1]))
        actual_span = (
            float(reader.chunks[0]["t_min"]),
            float(reader.chunks[-1]["t_max"]),
        )
        if declared_span != actual_span:
            violations.append(make_violation(
                "trace.manifest", "time_span disagrees with chunk ranges",
                declared=declared_span, from_chunks=actual_span,
            ))
    return violations


@checker("trace.chunk_hashes", tags=("trace",), requires=("trace",))
def check_trace_chunk_hashes(ctx) -> list[Violation]:
    """Every chunk re-hashes to its manifest digest and matches its
    declared row count and time range."""
    from ..trace.format import content_hash

    violations: list[Violation] = []
    reader = ctx.reader
    for index, entry in enumerate(reader.chunks):
        try:
            columns = reader.chunk_columns(index)
        except TraceCorruptionError as error:
            violations.append(make_violation(
                "trace.chunk_hashes", "chunk unreadable",
                chunk=entry["file"], error=str(error),
            ))
            continue
        digest = content_hash(columns, reader.column_names)
        if digest != entry["sha256"]:
            violations.append(make_violation(
                "trace.chunk_hashes", "chunk content hash mismatch",
                chunk=entry["file"],
                expected=entry["sha256"][:12], actual=digest[:12],
            ))
            continue
        rows = int(columns["timestamp"].size)
        if rows != int(entry["rows"]):
            violations.append(make_violation(
                "trace.chunk_hashes", "chunk row count mismatch",
                chunk=entry["file"], declared=int(entry["rows"]), actual=rows,
            ))
        if rows:
            t_min = float(columns["timestamp"].min())
            t_max = float(columns["timestamp"].max())
            if (t_min, t_max) != (float(entry["t_min"]), float(entry["t_max"])):
                violations.append(make_violation(
                    "trace.chunk_hashes", "chunk time range mismatch",
                    chunk=entry["file"],
                ))
    return violations


@checker("trace.sidecar", tags=("trace", "linkloads"), requires=("trace",))
def check_trace_sidecar(ctx) -> list[Violation]:
    """The linkloads sidecar exists when declared, hashes correctly and
    matches its declared shape."""
    from ..trace.format import LINKLOADS_NAME, content_hash

    violations: list[Violation] = []
    reader = ctx.reader
    entry = reader.manifest.get("linkloads")
    sidecar_path = reader.path / LINKLOADS_NAME
    if entry is None:
        if sidecar_path.is_file():
            violations.append(make_violation(
                "trace.sidecar", "sidecar file present but not in manifest",
                file=LINKLOADS_NAME,
            ))
        return violations
    if not sidecar_path.is_file():
        violations.append(make_violation(
            "trace.sidecar", "linkloads sidecar missing",
            file=entry["file"],
        ))
        return violations
    try:
        with np.load(sidecar_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except Exception as error:  # wraps zip/numpy internals uniformly
        violations.append(make_violation(
            "trace.sidecar", "sidecar unreadable",
            file=entry["file"], error=str(error),
        ))
        return violations
    hashed_names = ["bytes", "capacities", "bin_width", "observed_links"]
    if "queue_depth" in arrays:
        hashed_names.append("queue_depth")
    digest = content_hash(arrays, hashed_names)
    if digest != entry["sha256"]:
        violations.append(make_violation(
            "trace.sidecar", "sidecar content hash mismatch",
            expected=entry["sha256"][:12], actual=digest[:12],
        ))
    shape = arrays["bytes"].shape
    declared = (int(entry["num_links"]), int(entry["num_bins"]))
    if shape != declared:
        violations.append(make_violation(
            "trace.sidecar", "sidecar shape mismatch",
            declared=declared, actual=tuple(int(s) for s in shape),
        ))
    observed = arrays["observed_links"]
    if observed.size and (
        observed.min() < 0 or observed.max() >= arrays["bytes"].shape[0]
    ):
        violations.append(make_violation(
            "trace.sidecar", "observed link ids outside the byte matrix",
        ))
    return violations


@checker(
    "trace.roundtrip",
    tags=("trace", "analysis", "expensive"),
    requires=("trace", "topology", "duration", "linkloads"),
)
def check_trace_roundtrip(ctx) -> list[Violation]:
    """``dataset_from_trace`` equals the in-memory pipeline run over the
    fully-loaded log, and the column round-trip is lossless."""
    from ..experiments.common import dataset_from_trace
    from ..instrumentation.events import SocketEventLog
    from ..trace.analyze import _flow_tables_equal

    violations: list[Violation] = []
    log = ctx.log
    rebuilt = SocketEventLog.from_columns(log.to_columns())
    for name, _ in SocketEventLog.column_spec():
        if not np.array_equal(log.column(name), rebuilt.column(name)):
            violations.append(make_violation(
                "trace.roundtrip", "column round-trip changed data",
                column=name,
            ))
    dataset = dataset_from_trace(ctx.reader.path)
    if not _flow_tables_equal(dataset.flows, ctx.flows):
        violations.append(make_violation(
            "trace.roundtrip",
            "dataset_from_trace flows != in-memory reconstruction",
        ))
    if not (
        np.array_equal(dataset.tm10.matrices, ctx.tm.matrices)
        and np.array_equal(dataset.tm10.endpoint_ids, ctx.tm.endpoint_ids)
    ):
        violations.append(make_violation(
            "trace.roundtrip", "dataset_from_trace TM != in-memory TM",
        ))
    return violations


# --------------------------------------------------------------- analysis


@checker(
    "analysis.streaming_equal",
    tags=("analysis", "expensive"),
    requires=("log", "topology", "duration"),
)
def check_streaming_equal(ctx) -> list[Violation]:
    """Chunk-by-chunk streaming accumulation reproduces the in-memory
    flows, TM and congestion summary bit for bit."""
    from ..core.streaming import (
        StreamingCongestion,
        StreamingFlows,
        StreamingTrafficMatrix,
    )
    from ..instrumentation.events import SocketEventLog
    from ..trace.analyze import _flow_tables_equal

    violations: list[Violation] = []
    log = ctx.log
    columns = log.to_columns()
    n = len(log)
    # Four time-contiguous chunks, folded in one after another the way
    # `analyze_trace` reads a trace.
    bounds = [0, n // 4, n // 2, (3 * n) // 4, n]
    chunks = [
        SocketEventLog.from_columns(
            {name: column[bounds[k]:bounds[k + 1]]
             for name, column in columns.items()}
        )
        for k in range(4)
    ]

    def stream(acc):
        for chunk in chunks:
            acc.update(chunk)
        return acc.finalize()

    tm = stream(StreamingTrafficMatrix(ctx.topology, ctx.window, ctx.duration))
    if not (
        np.array_equal(tm.matrices, ctx.tm.matrices)
        and np.array_equal(tm.endpoint_ids, ctx.tm.endpoint_ids)
    ):
        violations.append(make_violation(
            "analysis.streaming_equal", "streaming TM != in-memory TM",
        ))
    flows = stream(StreamingFlows(inactivity_timeout=ctx.inactivity_timeout))
    if not _flow_tables_equal(flows, ctx.flows):
        violations.append(make_violation(
            "analysis.streaming_equal", "streaming flows != in-memory flows",
        ))
    if ctx.provides("linkloads"):
        loads = ctx.link_loads
        observed = ctx.observed_links
        utilization = loads.utilization_matrix()[observed]
        # Two consecutive slabs, so a hot run can cross their boundary.
        split = utilization.shape[1] // 2
        streamed = StreamingCongestion(
            num_links=observed.size, threshold=ctx.threshold,
            bin_width=loads.bin_width, link_ids=observed,
        ).update(utilization[:, :split]).update(utilization[:, split:]).finalize()
        reference = ctx.congestion
        if not (
            streamed.episodes == reference.episodes
            and streamed.num_links == reference.num_links
            and streamed.longest_episode == reference.longest_episode
        ):
            violations.append(make_violation(
                "analysis.streaming_equal",
                "streaming congestion != in-memory congestion",
            ))
    return violations


@checker(
    "congestion.in_bounds",
    tags=("analysis", "linkloads"),
    requires=("linkloads", "duration"),
)
def check_congestion_in_bounds(ctx) -> list[Violation]:
    """Congestion episodes lie inside the run bounds, have positive
    duration and reference observed links only."""
    violations: list[Violation] = []
    summary = ctx.congestion
    observed = set(int(link) for link in ctx.observed_links)
    bin_width = ctx.link_loads.bin_width
    # The last bin may start before `duration` and extend past it.
    horizon = ctx.duration + bin_width + 1e-9
    for episode in summary.episodes:
        if episode.link_id not in observed:
            violations.append(make_violation(
                "congestion.in_bounds", "episode on an unobserved link",
                link=episode.link_id,
            ))
        if episode.duration <= 0:
            violations.append(make_violation(
                "congestion.in_bounds", "episode with non-positive duration",
                link=episode.link_id, start=episode.start,
            ))
        if episode.start < -1e-9 or episode.end > horizon:
            violations.append(make_violation(
                "congestion.in_bounds", "episode outside run bounds",
                link=episode.link_id,
                start=episode.start, end=episode.end,
                horizon=round(horizon, 3),
            ))
    return violations


# ------------------------------------------------------------- tomography


@checker(
    "tomography.link_consistency",
    tags=("tomography",),
    requires=("log", "topology", "duration"),
)
def check_tomography_link_consistency(ctx) -> list[Violation]:
    """The tomography inputs agree: routing server-level TM traffic over
    :class:`Router` paths yields the same observed-link counter vector as
    ``A @ x`` over the collapsed ToR TM."""
    from ..cluster.routing import Router, tor_routing_matrix
    from ..core.traffic_matrix import server_tm_to_tor_tm

    violations: list[Violation] = []
    topology = ctx.topology
    matrix, pairs, observed = tor_routing_matrix(topology)
    if not np.isin(matrix, (0.0, 1.0)).all():
        violations.append(make_violation(
            "tomography.link_consistency", "routing matrix is not 0/1",
        ))
    uncovered = int((matrix.sum(axis=0) == 0).sum())
    if uncovered:
        violations.append(make_violation(
            "tomography.link_consistency",
            "ToR pairs whose path crosses no observed link",
            pairs=uncovered,
        ))
    tm = ctx.tm
    total = tm.total()
    tor_tm = server_tm_to_tor_tm(total, topology, tm.endpoint_ids)
    x = np.array([tor_tm[i, j] for i, j in pairs])
    y_tor = matrix @ x
    row_of = {link_id: row for row, link_id in enumerate(observed)}
    router = Router(topology)
    y_server = np.zeros(len(observed))
    endpoint_ids = tm.endpoint_ids
    is_server = np.array([
        topology.node_kind(int(node)) == NodeKind.SERVER
        for node in endpoint_ids
    ])
    server_rows = np.flatnonzero(is_server)
    for a in server_rows:
        for b in server_rows:
            volume = total[a, b]
            if a == b or volume == 0.0:
                continue
            for link_id in router.path_links(
                int(endpoint_ids[a]), int(endpoint_ids[b])
            ):
                row = row_of.get(link_id)
                if row is not None:
                    y_server[row] += volume
    bad = ~np.isclose(y_server, y_tor, rtol=_RTOL, atol=_ATOL)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        violations.append(make_violation(
            "tomography.link_consistency",
            "link counters from server routing != routing-matrix x ToR TM",
            links=int(bad.sum()), first_link=int(observed[first]),
            server_routed=float(y_server[first]), a_times_x=float(y_tor[first]),
        ))
    return violations


# ----------------------------------------------------------------- inline


@checker(
    "inline.engine_time",
    tags=("inline", "cheap"),
    requires=("simulator",),
)
def check_inline_engine_time(ctx) -> list[Violation]:
    """The live engine clock stays inside the campaign window."""
    simulator = ctx.simulator
    now = simulator.engine.now
    if not (0.0 <= now <= simulator.config.duration + 1e-9):
        return [make_violation(
            "inline.engine_time", "engine time outside the campaign window",
            now=now, duration=simulator.config.duration,
        )]
    return []


@checker(
    "inline.linkloads",
    tags=("inline", "cheap", "linkloads"),
    requires=("simulator",),
)
def check_inline_linkloads(ctx) -> list[Violation]:
    """Live link byte bins stay non-negative and within capacity."""
    return check_linkloads_sane(ctx)


@checker(
    "inline.transport",
    tags=("inline", "cheap"),
    requires=("simulator",),
)
def check_inline_transport(ctx) -> list[Violation]:
    """Active flow rates are finite and non-negative mid-run."""
    violations: list[Violation] = []
    transport = ctx.simulator.transport
    rates = transport.active_rates()
    if rates.size:
        bad = ~np.isfinite(rates) | (rates < 0)
        if bad.any():
            violations.append(make_violation(
                "inline.transport",
                "active flows with negative or non-finite rates",
                count=int(bad.sum()),
            ))
    start = transport.earliest_active_start()
    if start is not None and start > ctx.simulator.engine.now + 1e-9:
        violations.append(make_violation(
            "inline.transport", "active transfer starts in the future",
            start=start, now=ctx.simulator.engine.now,
        ))
    return violations


@checker(
    "transport.allocator_equivalence",
    tags=("inline", "cheap", "transport"),
    requires=("simulator",),
)
def check_allocator_equivalence(ctx) -> list[Violation]:
    """Both water-filling allocators agree bitwise on the live active set.

    This is the invariant that keeps the exact allocator's heap and CSR
    regimes pure performance choices: the vectorized allocator must
    reproduce the reference loop's floats exactly, so a run on either
    regime, or on the reference loop itself, yields the same event log.
    Comparison is ``array_equal`` — any tolerance here would hide drift
    that compounds into divergent completion times.
    """
    from ..simulation.waterfill import (
        maxmin_rates_reference,
        maxmin_rates_vectorized,
    )

    transport = ctx.simulator.transport
    if getattr(transport, "family", "fluid") != "fluid":
        return []
    active = transport.active_flows()
    if active.slots.size == 0:
        return []
    reference = maxmin_rates_reference(
        active.paths, active.valid, transport.capacities, transport.num_links
    )
    vectorized = maxmin_rates_vectorized(
        active.paths, active.valid, transport.capacities, transport.num_links
    )
    if not np.array_equal(reference, vectorized):
        diverged = int((reference != vectorized).sum())
        worst = float(np.abs(reference - vectorized).max())
        return [make_violation(
            "transport.allocator_equivalence",
            "vectorized allocator diverged from the reference loop",
            flows=int(active.slots.size), diverged=diverged,
            max_abs_difference=worst,
        )]
    return []


@checker(
    "transport.incremental_equivalence",
    tags=("inline", "cheap", "transport"),
    requires=("simulator",),
)
def check_incremental_equivalence(ctx) -> list[Violation]:
    """The incremental allocator's live rates match a from-scratch solve
    within its documented tolerance.

    ``transport_impl="incremental"`` re-solves only the affected
    bottleneck subgraph per arrival/departure, so its rates are
    path-dependent and *not* bit-identical to the reference loop — the
    contract is agreement within
    :data:`~repro.simulation.waterfill.INCREMENTAL_RTOL` (relative to
    each flow's fair share, with an absolute floor for near-zero rates).
    The check also re-verifies the safety property the construction
    guarantees: no link is oversubscribed.  A no-op on every other
    ``transport_impl``.
    """
    from ..simulation.waterfill import INCREMENTAL_RTOL, maxmin_rates_reference

    transport = ctx.simulator.transport
    if transport._inc is None or transport.fairness != "maxmin":
        return []
    active = transport.active_flows()
    if active.slots.size == 0:
        return []
    paths, valid = active.paths, active.valid
    violations: list[Violation] = []
    incremental = transport._inc.rates_by_slot[active.slots]
    reference = maxmin_rates_reference(
        paths, valid, transport.capacities, transport.num_links
    )
    scale = np.maximum(np.abs(reference), 1.0)
    relative = np.abs(incremental - reference) / scale
    if transport.rates_dirty:
        # Between the event and the next allocation pass the incremental
        # state is legitimately stale; only the oversubscription check
        # below is meaningful here.
        relative = np.zeros_like(relative)
    if (relative > INCREMENTAL_RTOL).any():
        worst = int(np.argmax(relative))
        violations.append(make_violation(
            "transport.incremental_equivalence",
            "incremental allocator outside tolerance of reference solve",
            flows=int(active.slots.size),
            diverged=int((relative > INCREMENTAL_RTOL).sum()),
            max_relative_difference=float(relative[worst]),
            rtol=INCREMENTAL_RTOL,
        ))
    link_rates = np.bincount(
        paths[valid],
        weights=np.repeat(incremental, valid.sum(axis=1)),
        minlength=transport.num_links,
    )
    over = link_rates > transport.capacities * (1.0 + 1e-9) + 1e-6
    if over.any():
        worst_link = int(np.argmax(link_rates / np.maximum(transport.capacities, 1.0)))
        violations.append(make_violation(
            "transport.incremental_equivalence",
            "incremental allocation oversubscribes a link",
            links=int(over.sum()),
            worst_link=worst_link,
            load=float(link_rates[worst_link]),
            capacity=float(transport.capacities[worst_link]),
        ))
    return violations


@checker(
    "transport.queue_conservation",
    tags=("cheap", "transport", "cc"),
)
def check_queue_conservation(ctx) -> list[Violation]:
    """Per-link queue byte ledgers balance: enqueued = dequeued + resident.

    The queued transports' analogue of ``bytes.link_conservation``: every
    byte that survived admission to a switch FIFO either left through the
    serializer or is still resident.  Tail-dropped bytes are accounted
    separately (they never enter ``enqueued``), so drops cannot hide an
    accounting leak.  Holds for both a live ``LinkQueues`` and an
    archived ``CCReport``; fluid runs have no queues and pass trivially.
    """
    cc = ctx.cc
    if cc is None:
        return []
    enqueued = np.asarray(cc.enqueued_bytes, dtype=np.float64)
    dequeued = np.asarray(cc.dequeued_bytes, dtype=np.float64)
    resident = np.asarray(cc.resident_bytes, dtype=np.float64)
    dropped = np.asarray(cc.dropped_bytes, dtype=np.float64)
    violations: list[Violation] = []
    negative = int(
        ((enqueued < 0) | (dequeued < 0) | (resident < 0) | (dropped < 0)).sum()
    )
    if negative:
        violations.append(make_violation(
            "transport.queue_conservation",
            "negative queue byte ledger entries",
            links=negative,
        ))
    balanced = np.isclose(
        enqueued, dequeued + resident, rtol=_RTOL, atol=_ATOL
    )
    if not balanced.all():
        residual = enqueued - (dequeued + resident)
        worst = int(np.argmax(np.abs(residual)))
        violations.append(make_violation(
            "transport.queue_conservation",
            "queue ledgers violate enqueued = dequeued + resident",
            links=int((~balanced).sum()),
            worst_link=worst,
            residual_bytes=float(residual[worst]),
        ))
    return violations


# ------------------------------------------------------ topology / routing


@checker(
    "topology.degree_conservation",
    tags=("cheap", "topology"),
    requires=("topology",),
)
def check_degree_conservation(ctx) -> list[Violation]:
    """The built fabric is structurally sound, whatever its kind.

    Link ids are dense and match their index, every directed link has a
    reverse twin of equal capacity (cables are duplex), per-node
    in-degree equals out-degree, and the cached ``capacities`` array
    agrees with the link list.  Holds for the tree and for every
    :mod:`~repro.cluster.fabrics` member.
    """
    topology = ctx.topology
    violations: list[Violation] = []
    links = topology.links
    in_degree = np.zeros(topology.num_nodes, dtype=np.int64)
    out_degree = np.zeros(topology.num_nodes, dtype=np.int64)
    reverse = {}
    for index, link in enumerate(links):
        if link.link_id != index:
            violations.append(make_violation(
                "topology.degree_conservation",
                "link id does not match its index",
                index=index, link_id=link.link_id,
            ))
        out_degree[link.src] += 1
        in_degree[link.dst] += 1
        reverse[(link.src, link.dst)] = link
    for link in links:
        twin = reverse.get((link.dst, link.src))
        if twin is None:
            violations.append(make_violation(
                "topology.degree_conservation",
                "directed link has no reverse twin",
                link_id=link.link_id, src=link.src, dst=link.dst,
            ))
        elif twin.capacity != link.capacity:
            violations.append(make_violation(
                "topology.degree_conservation",
                "duplex pair capacities differ",
                link_id=link.link_id, twin_id=twin.link_id,
            ))
    unbalanced = np.flatnonzero(in_degree != out_degree)
    if unbalanced.size:
        node = int(unbalanced[0])
        violations.append(make_violation(
            "topology.degree_conservation",
            "node in-degree != out-degree",
            nodes=int(unbalanced.size), first_node=node,
            in_degree=int(in_degree[node]), out_degree=int(out_degree[node]),
        ))
    capacities = np.array([link.capacity for link in links])
    if topology.capacities.shape != capacities.shape or not np.array_equal(
        topology.capacities, capacities
    ):
        violations.append(make_violation(
            "topology.degree_conservation",
            "cached capacities array disagrees with the link list",
        ))
    return violations


def _path_violations(topology, name: str, src: int, dst: int) -> list[Violation]:
    """Structural checks on one endpoint pair's equal-cost path set."""
    violations: list[Violation] = []
    paths = topology.equal_cost_node_paths(src, dst)
    if not paths:
        return [make_violation(name, "empty equal-cost set", src=src, dst=dst)]
    if len(set(paths)) != len(paths):
        violations.append(make_violation(
            name, "duplicate equal-cost paths", src=src, dst=dst,
        ))
    if len({len(path) for path in paths}) != 1:
        violations.append(make_violation(
            name, "equal-cost paths have unequal length", src=src, dst=dst,
        ))
    for path in paths:
        if path[0] != src or path[-1] != dst:
            violations.append(make_violation(
                name, "path endpoints do not match the pair",
                src=src, dst=dst, path=list(path),
            ))
        if len(set(path)) != len(path):
            violations.append(make_violation(
                name, "path visits a node twice (loop)",
                src=src, dst=dst, path=list(path),
            ))
        for a, b in zip(path[:-1], path[1:]):
            try:
                topology.link_between(a, b)
            except KeyError:
                violations.append(make_violation(
                    name, "path hop is not a direct link",
                    src=src, dst=dst, hop=(a, b),
                ))
    return violations


@checker(
    "routing.path_consistency",
    tags=("cheap", "routing", "topology"),
    requires=("topology",),
)
def check_path_consistency(ctx) -> list[Violation]:
    """Routing agrees with the fabric, single- and multi-path alike.

    Over a bounded deterministic endpoint sample: every equal-cost path
    is a loop-free walk over existing directed links connecting exactly
    the pair, all paths of a set share one length, ECMP/flowlet always
    choose from inside the set, and the canonical ``Router`` path is the
    set's first member.  The tomography A-matrix extends consistently to
    multi-path: the ``multipath=True`` variant of ``tor_routing_matrix``
    keeps entries in ``[0, 1]`` and each column sums to the mean number
    of observed links its pair's equal-cost paths cross.
    """
    from ..cluster.routing import (
        EcmpRouter,
        FlowletRouter,
        Router,
        tor_routing_matrix,
    )

    topology = ctx.topology
    name = "routing.path_consistency"
    violations: list[Violation] = []

    # One server per rack (up to 6 racks) plus up to 2 external hosts:
    # enough to cross every tier without quadratic blowup on big fabrics.
    sample = [
        topology.servers_in_rack(rack)[0]
        for rack in range(min(topology.num_racks, 6))
    ]
    sample.extend(list(topology.external_hosts())[:2])

    router = Router(topology)
    ecmp = EcmpRouter(topology, seed=1)
    flowlet = FlowletRouter(topology, seed=1)
    for src in sample:
        for dst in sample:
            if src == dst:
                continue
            violations.extend(_path_violations(topology, name, src, dst))
            choices = router.equal_cost_paths(src, dst)
            if router.path_links(src, dst) != choices[0]:
                violations.append(make_violation(
                    name, "canonical path is not the first equal-cost path",
                    src=src, dst=dst,
                ))
            for label in (0, 1, 2**32 + 7):
                if ecmp.path_for_flow(src, dst, key=label) not in choices:
                    violations.append(make_violation(
                        name, "ECMP chose a path outside the equal-cost set",
                        src=src, dst=dst, label=label,
                    ))
                if flowlet.path_for_flow(src, dst, key=label) not in choices:
                    violations.append(make_violation(
                        name, "flowlet chose a path outside the equal-cost set",
                        src=src, dst=dst, label=label,
                    ))

    if topology.num_racks <= 12:
        matrix, pairs, observed = tor_routing_matrix(topology, multipath=True)
        if matrix.size and (matrix.min() < 0.0 or matrix.max() > 1.0 + 1e-12):
            violations.append(make_violation(
                name, "multipath routing matrix entries outside [0, 1]",
            ))
        observed_set = set(observed)
        tor_router = Router(topology)
        for column, (i, j) in enumerate(pairs):
            paths = tor_router.equal_cost_paths(
                topology.tor_of_rack(i), topology.tor_of_rack(j)
            )
            expected = sum(
                sum(1 for link_id in path if link_id in observed_set)
                for path in paths
            ) / len(paths)
            if not _close(float(matrix[:, column].sum()), expected):
                violations.append(make_violation(
                    name,
                    "multipath A-matrix column sum != mean observed hops",
                    pair=(i, j), column_sum=float(matrix[:, column].sum()),
                    expected=expected,
                ))
    return violations
