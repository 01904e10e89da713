"""Engine fast-path semantics: lazy cancellation and batch draining.

``peek_time`` discards cancelled heap heads lazily, and ``run`` drains
co-scheduled same-instant events in a batch.  Both are pure wall-clock
moves, so the tests pin the *observable* contract: firing order, stop
and re-entrancy never change.
"""

from repro.errors import SchedulingError
from repro.sim.engine import Simulator


class TestPeekAndBatchDrain:
    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0
        assert sim.pending_count() == 1

    def test_peek_time_empty(self):
        sim = Simulator()
        assert sim.peek_time() is None

    def test_same_instant_fifo_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule_at(3.0, order.append, tag)
        sim.schedule_at(1.0, order.append, "early")
        sim.run(until=10.0)
        assert order == ["early", 0, 1, 2, 3, 4]

    def test_batch_respects_stop(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, order.append, "a")
        sim.schedule_at(3.0, sim.stop)
        sim.schedule_at(3.0, order.append, "never")
        sim.run(until=10.0)
        assert order == ["a"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run(until=5.0)
            except SchedulingError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, reenter)
        sim.run(until=10.0)
        assert len(errors) == 1

