"""Discrete event engine.

A minimal binary-heap scheduler with batch hooks and *dynamic time
sources*.  The simulator registers a hook that runs after every batch
of same-time events, which is where transport rates get recomputed —
recomputing once per *timestamp* instead of once per *event* matters
because barrier phases release dozens of shuffle flows at the same
instant.

Dynamic time sources are the structure-of-arrays answer to wakeup
churn: instead of scheduling (and cancelling, and re-scheduling) a
heap event for every "earliest completion" / "next rate recompute"
estimate, a source is a zero-argument callable returning the next time
it wants the engine to wake (or ``None``).  The engine polls sources
each loop iteration and merges their times with the heap head; a wakeup
at ``T`` consumes every source value ``<= T``, so a source re-arms by
simply returning a later time.  Cancelling is returning ``None`` —
no heap object ever existed.  Heap events are therefore never
cancelled: every scheduled callback fires once its time comes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["EventEngine"]

# Heap entries are plain ``(time, sequence, callback)`` tuples: tuple
# comparison short-circuits on ``time`` and never reaches the callback
# (sequence numbers are unique, so same-time events run in scheduling
# order).


class EventEngine:
    """Priority-queue event loop with pluggable dynamic time sources.

    Events scheduled for the same instant run in scheduling order.  The
    optional ``batch_hook`` runs after all events at one timestamp have
    fired and may itself schedule new events (including at the current
    time, which extends the batch).  A batch driven purely by a dynamic
    source contains no heap events — only the time-advance and batch
    hooks run.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.events_processed = 0
        #: Number of same-timestamp batches drained (telemetry: the ratio
        #: events_processed / batches_processed is the mean batch size).
        self.batches_processed = 0
        #: High-water mark of the heap.
        self.peak_heap_depth = 0
        self.batch_hook: Callable[[], None] | None = None
        self.time_advance_hook: Callable[[float], None] | None = None
        #: Dynamic wakeup sources: callables returning the next absolute
        #: time they need the engine to wake, or ``None`` for "nothing".
        self.dynamic_sources: list[Callable[[], float | None]] = []
        self._dynamic_last_fired: list[float] = []
        #: Telemetry: batches triggered by a dynamic source rather than
        #: a heap event.
        self.dynamic_wakeups = 0

    # ---------------------------------------------------------------- heap

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at ``time`` (>= now)."""
        if time < self.now - 1e-9:
            raise ValueError(f"cannot schedule at {time} before now {self.now}")
        heapq.heappush(
            self._heap, (max(time, self.now), next(self._sequence), callback)
        )
        if len(self._heap) > self.peak_heap_depth:
            self.peak_heap_depth = len(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next pending event, or ``None``."""
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------- dynamic

    def add_dynamic_source(self, source: Callable[[], float | None]) -> None:
        """Register a wakeup source polled before each batch.

        A source returning ``t`` asks for a (possibly empty) batch at
        ``t``; values in the past are clamped to ``now``.  Once the
        engine runs a batch at ``T``, source values ``<= T`` are
        considered served: the source must return a strictly later time
        (or ``None``) to be woken again.  This gives one-shot semantics
        without per-wakeup heap objects.
        """
        self.dynamic_sources.append(source)
        self._dynamic_last_fired.append(float("-inf"))

    def _poll_dynamic(self) -> list[tuple[float, int]]:
        """Current ``(time, source_index)`` wakeup requests, clamped/filtered."""
        requests: list[tuple[float, int]] = []
        for index, source in enumerate(self.dynamic_sources):
            time = source()
            if time is None:
                continue
            time = max(time, self.now)
            if time <= self._dynamic_last_fired[index]:
                continue
            requests.append((time, index))
        return requests

    # ----------------------------------------------------------------- run

    def run(self, until: float) -> None:
        """Process events up to and including time ``until``.

        The clock is left at ``until`` when the queue drains early, so a
        subsequent ``run`` continues from there.
        """
        if until < self.now:
            raise ValueError("cannot run backwards")
        while True:
            next_time = self.peek_time()
            requests = self._poll_dynamic()
            heap_drives = next_time is not None
            for time, _ in requests:
                if next_time is None or time < next_time:
                    next_time = time
                    heap_drives = False
            if next_time is None or next_time > until:
                break
            for time, index in requests:
                if time <= next_time:
                    self._dynamic_last_fired[index] = next_time
            if not heap_drives:
                self.dynamic_wakeups += 1
            self.now = next_time
            if self.time_advance_hook is not None:
                self.time_advance_hook(next_time)
            # Drain the batch at this timestamp; callbacks may extend it.
            while self._heap and self._heap[0][0] <= self.now + 1e-12:
                callback = heapq.heappop(self._heap)[2]
                self.events_processed += 1
                callback()
            self.batches_processed += 1
            if self.batch_hook is not None:
                self.batch_hook()
        self.now = until

    @property
    def pending(self) -> int:
        """Number of queued events."""
        return len(self._heap)
