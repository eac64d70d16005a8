"""Lazy reader for ``.reprotrace`` directories.

``TraceReader`` loads the manifest eagerly and chunks on demand, so a
streaming analysis over a long campaign holds one chunk of events in
memory at a time.  ``read_all`` rebuilds the full in-memory
:class:`~repro.instrumentation.events.SocketEventLog` for code that
wants the classic pipeline.
"""

from __future__ import annotations

import os
import pathlib
import zipfile
import zlib
from typing import Iterator

import numpy as np

from ..instrumentation.events import SocketEventLog
from ..telemetry import NULL_TELEMETRY, Telemetry
from .format import (
    LINKLOADS_NAME,
    MANIFEST_NAME,
    content_hash,
    is_trace_dir,
    read_manifest,
)

__all__ = ["TraceReader", "TraceLinkLoads", "as_event_log", "find_traces"]

#: Failure modes a damaged npz produces: truncated/garbled zip containers,
#: bad compressed streams, missing files or archive members, and numpy
#: refusing a mangled array header.
_CORRUPTION_ERRORS = (
    OSError,
    EOFError,
    KeyError,
    ValueError,
    zipfile.BadZipFile,
    zlib.error,
)


class TraceLinkLoads:
    """The trace-stored counterpart of the simulator's link-load tracker.

    Exposes the same ``byte_matrix()`` / ``utilization_matrix()`` surface
    (with the identical utilisation expression), so trace-backed analyses
    and datasets are drop-in.
    """

    def __init__(
        self,
        byte_counts: np.ndarray,
        capacities: np.ndarray,
        bin_width: float,
        observed_links: np.ndarray,
        queue_depth: np.ndarray | None = None,
    ) -> None:
        self._bytes = byte_counts
        self.capacities = capacities
        self.bin_width = float(bin_width)
        self.observed_links = observed_links
        self._queue_depth = queue_depth

    @property
    def num_links(self) -> int:
        """Number of topology links."""
        return int(self._bytes.shape[0])

    @property
    def num_bins(self) -> int:
        """Number of time bins."""
        return int(self._bytes.shape[1])

    def byte_matrix(self) -> np.ndarray:
        """(links, bins) bytes carried per bin."""
        return self._bytes

    def utilization_matrix(self) -> np.ndarray:
        """(links, bins) utilisation in [0, 1]-ish (same expression as
        :meth:`~repro.simulation.linkloads.LinkLoadTracker.utilization_matrix`)."""
        return self._bytes / (self.capacities[:, None] * self.bin_width)

    @property
    def has_queue_depth(self) -> bool:
        """Whether the recording stored queue-occupancy bins."""
        return self._queue_depth is not None

    def queue_depth_matrix(self) -> np.ndarray | None:
        """(links, bins) mean queue occupancy in bytes, or ``None`` for
        fluid recordings (same surface as the live tracker)."""
        return self._queue_depth


class TraceReader:
    """Read a chunked trace lazily; one chunk in memory at a time."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.manifest = read_manifest(self.path)
        self.chunks: list[dict] = self.manifest["chunks"]
        self.meta: dict = self.manifest.get("meta", {})
        self.column_names = [name for name, _ in self.manifest["columns"]]

    # ------------------------------------------------------------ overview

    @property
    def num_chunks(self) -> int:
        """Number of event chunks on disk."""
        return len(self.chunks)

    @property
    def total_rows(self) -> int:
        """Total event rows across all chunks."""
        return int(self.manifest["total_rows"])

    @property
    def chunk_size(self) -> int:
        """The writer's target rows per chunk."""
        return int(self.manifest["chunk_size"])

    def time_span(self) -> tuple[float, float]:
        """(first, last) event timestamps; (0, 0) when empty."""
        span = self.manifest.get("time_span")
        if not span:
            return (0.0, 0.0)
        return (float(span[0]), float(span[1]))

    def bytes_on_disk(self) -> int:
        """Total size of the trace directory's files, in bytes."""
        return sum(
            entry.stat().st_size
            for entry in self.path.iterdir()
            if entry.is_file()
        )

    # ------------------------------------------------------------- chunks

    def chunk_columns(self, index: int) -> dict[str, np.ndarray]:
        """Raw column arrays of one chunk.

        Raises :class:`~repro.validate.violations.TraceCorruptionError`
        when the chunk file is missing, truncated or otherwise
        unreadable, instead of leaking ``zipfile``/``numpy`` internals.
        """
        from ..validate.violations import TraceCorruptionError

        entry = self.chunks[index]
        try:
            with np.load(self.path / entry["file"]) as archive:
                return {name: archive[name] for name in self.column_names}
        except _CORRUPTION_ERRORS as error:
            raise TraceCorruptionError(
                f"trace chunk {entry['file']!r} in {self.path} is missing "
                f"or corrupt: {error}"
            ) from error

    def read_chunk(self, index: int) -> SocketEventLog:
        """One chunk as a finalized event log."""
        return SocketEventLog.from_columns(self.chunk_columns(index))

    def iter_chunks(
        self, telemetry: Telemetry | None = None
    ) -> Iterator[SocketEventLog]:
        """Yield chunk logs lazily, in order."""
        tele = telemetry or NULL_TELEMETRY
        for index in range(self.num_chunks):
            with tele.span(
                "trace.read_chunk", index=index, rows=self.chunks[index]["rows"]
            ):
                log = self.read_chunk(index)
            tele.counter("trace.chunks_read").inc()
            tele.counter("trace.rows_read").inc(len(log))
            yield log

    def read_all(self) -> SocketEventLog:
        """The whole trace as one in-memory log (chunks are consecutive
        and time-sorted, so concatenation is already finalize order)."""
        if self.num_chunks == 0:
            empty = SocketEventLog()
            empty.finalize()
            return empty
        parts = [self.chunk_columns(i) for i in range(self.num_chunks)]
        columns = {
            name: np.concatenate([part[name] for part in parts])
            for name in self.column_names
        }
        return SocketEventLog.from_columns(columns)

    # ------------------------------------------------------------ validate

    def verify(self) -> list[str]:
        """Re-hash every chunk; returns the files that do not match.

        Unreadable files count as mismatches rather than aborting the
        sweep, so one corrupt chunk cannot mask damage elsewhere.
        """
        from ..validate.violations import TraceCorruptionError

        bad = []
        for index, entry in enumerate(self.chunks):
            try:
                columns = self.chunk_columns(index)
            except TraceCorruptionError:
                bad.append(entry["file"])
                continue
            if content_hash(columns, self.column_names) != entry["sha256"]:
                bad.append(entry["file"])
        loads_entry = self.manifest.get("linkloads")
        if loads_entry is not None:
            try:
                with np.load(self.path / loads_entry["file"]) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            except _CORRUPTION_ERRORS:
                bad.append(loads_entry["file"])
            else:
                hashed = ["bytes", "capacities", "bin_width", "observed_links"]
                if "queue_depth" in arrays:
                    hashed.append("queue_depth")
                digest = content_hash(arrays, hashed)
                if digest != loads_entry["sha256"]:
                    bad.append(loads_entry["file"])
        return bad

    # ------------------------------------------------------------ linkloads

    def linkloads(self) -> TraceLinkLoads | None:
        """The stored link byte counters, or ``None`` if not recorded.

        Raises :class:`~repro.validate.violations.TraceCorruptionError`
        when the manifest declares a sidecar that is missing or damaged.
        """
        from ..validate.violations import TraceCorruptionError

        if self.manifest.get("linkloads") is None:
            return None
        try:
            with np.load(self.path / LINKLOADS_NAME) as archive:
                return TraceLinkLoads(
                    byte_counts=archive["bytes"],
                    capacities=archive["capacities"],
                    bin_width=float(archive["bin_width"]),
                    observed_links=archive["observed_links"],
                    queue_depth=(
                        archive["queue_depth"]
                        if "queue_depth" in archive.files
                        else None
                    ),
                )
        except _CORRUPTION_ERRORS as error:
            raise TraceCorruptionError(
                f"trace sidecar {LINKLOADS_NAME!r} in {self.path} is "
                f"declared in the manifest but missing or corrupt: {error}"
            ) from error


def as_event_log(source) -> SocketEventLog:
    """Coerce a log / reader / trace path into a finalized event log."""
    if isinstance(source, SocketEventLog):
        return source
    if isinstance(source, TraceReader):
        return source.read_all()
    if isinstance(source, (str, os.PathLike)):
        return TraceReader(source).read_all()
    raise TypeError(
        f"expected a SocketEventLog, TraceReader or trace path, got {type(source)!r}"
    )


def find_traces(root) -> list[pathlib.Path]:
    """Trace directories at ``root``: itself, or direct children."""
    root = pathlib.Path(root)
    if is_trace_dir(root):
        return [root]
    if not root.is_dir():
        return []
    return sorted(
        child
        for child in root.iterdir()
        if child.is_dir() and (child / MANIFEST_NAME).is_file() and is_trace_dir(child)
    )
