"""On-disk trace store and streaming analyses (the out-of-core layer).

The paper's measurement campaign persisted months of socket-level logs
and analysed them out of core; this package gives the reproduction the
same shape:

* :mod:`~repro.trace.format` — the versioned ``.reprotrace`` directory
  layout (npz chunks + JSON manifest with content hashes);
* :class:`~repro.trace.writer.TraceWriter` /
  :class:`~repro.trace.reader.TraceReader` — append-only chunked writing
  and lazy chunk iteration;
* :func:`~repro.trace.record.record_trace` — simulate while streaming
  events to disk (constant memory, bit-identical to an in-memory run);
* :func:`~repro.trace.analyze.analyze_trace` — one in-process streaming
  pass of the core accumulators.
"""

from .analyze import TraceAnalysis, analyze_trace, check_against_inmemory
from .format import (
    DEFAULT_CHUNK_SIZE,
    TRACE_FORMAT,
    TRACE_SCHEMA_VERSION,
    TRACE_SUFFIX,
)
from .reader import TraceLinkLoads, TraceReader, as_event_log, find_traces
from .record import RecordResult, record_trace
from .writer import TraceWriter

__all__ = [
    "TRACE_FORMAT",
    "TRACE_SCHEMA_VERSION",
    "TRACE_SUFFIX",
    "DEFAULT_CHUNK_SIZE",
    "TraceWriter",
    "TraceReader",
    "TraceLinkLoads",
    "TraceAnalysis",
    "RecordResult",
    "as_event_log",
    "find_traces",
    "record_trace",
    "analyze_trace",
    "check_against_inmemory",
]
