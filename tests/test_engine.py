"""Discrete event engine."""

import pytest

from repro.simulation.engine import EventEngine


class TestScheduling:
    def test_events_fire_in_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run(until=10.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = EventEngine()
        fired = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: fired.append(n))
        engine.run(until=2.0)
        assert fired == ["a", "b", "c"]

    def test_clock_lands_on_until(self):
        engine = EventEngine()
        engine.run(until=5.0)
        assert engine.now == 5.0

    def test_past_scheduling_rejected(self):
        engine = EventEngine()
        engine.run(until=5.0)
        with pytest.raises(ValueError):
            engine.schedule(1.0, lambda: None)

    def test_events_beyond_until_pend(self):
        engine = EventEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(1))
        engine.run(until=4.0)
        assert fired == []
        assert engine.pending == 1
        engine.run(until=6.0)
        assert fired == [1]

    def test_cannot_run_backwards(self):
        engine = EventEngine()
        engine.run(until=5.0)
        with pytest.raises(ValueError):
            engine.run(until=4.0)


class TestHooks:
    def test_batch_hook_runs_once_per_timestamp(self):
        engine = EventEngine()
        batches = []
        engine.batch_hook = lambda: batches.append(engine.now)
        for time in (1.0, 1.0, 2.0):
            engine.schedule(time, lambda: None)
        engine.run(until=3.0)
        assert batches == [1.0, 2.0]

    def test_time_advance_hook_sees_new_time(self):
        engine = EventEngine()
        advances = []
        engine.time_advance_hook = advances.append
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.5, lambda: None)
        engine.run(until=3.0)
        assert advances == [1.0, 2.5]

    def test_callback_extends_batch_at_same_time(self):
        engine = EventEngine()
        fired = []

        def chain():
            fired.append("first")
            engine.schedule(engine.now, lambda: fired.append("second"))

        engine.schedule(1.0, chain)
        engine.run(until=2.0)
        assert fired == ["first", "second"]

    def test_events_scheduled_by_batch_hook_run(self):
        engine = EventEngine()
        fired = []

        def hook():
            if engine.now == 1.0 and not fired:
                engine.schedule(1.5, lambda: fired.append("late"))

        engine.batch_hook = hook
        engine.schedule(1.0, lambda: None)
        engine.run(until=2.0)
        assert fired == ["late"]


class TestDynamicSources:
    def test_source_drives_a_batch(self):
        engine = EventEngine()
        wakeups = []
        engine.add_dynamic_source(lambda: 5.0 if not wakeups else None)
        engine.time_advance_hook = lambda now: wakeups.append(now)
        engine.run(until=10.0)
        assert wakeups == [5.0]
        assert engine.dynamic_wakeups == 1
        assert engine.now == 10.0

    def test_source_fires_once_per_timestamp(self):
        # A source that keeps requesting the same instant must not spin
        # the loop: the per-source last-fired guard suppresses repeats.
        engine = EventEngine()
        batches = []
        engine.add_dynamic_source(lambda: 3.0)
        engine.batch_hook = lambda: batches.append(engine.now)
        engine.run(until=10.0)
        assert batches == [3.0]
        assert engine.dynamic_wakeups == 1

    def test_heap_event_at_same_time_counts_as_heap_drive(self):
        engine = EventEngine()
        fired = []
        engine.schedule(4.0, lambda: fired.append("heap"))
        engine.add_dynamic_source(lambda: 4.0)
        engine.run(until=10.0)
        assert fired == ["heap"]
        # The heap supplied the batch time; the source rode along.
        assert engine.dynamic_wakeups == 0

    def test_past_requests_are_clamped_to_now(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run(until=6.0)
        batches = []
        engine.add_dynamic_source(lambda: 1.0 if not batches else None)
        engine.batch_hook = lambda: batches.append(engine.now)
        engine.run(until=10.0)
        # The stale request (t=1 < now=6) fires immediately at now, not
        # in the past.
        assert batches == [6.0]
