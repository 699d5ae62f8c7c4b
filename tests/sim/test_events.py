"""Event queue: ordering, cancellation, determinism."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


def _noop():
    pass


class TestScheduling:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.schedule(20, lambda: fired.append("b"))
        q.schedule(10, lambda: fired.append("a"))
        for ev in q.pop_due(30):
            ev.action()
        assert fired == ["a", "b"]

    def test_same_time_fires_fifo(self):
        q = EventQueue()
        fired = []
        for tag in "abc":
            q.schedule(5, lambda t=tag: fired.append(t))
        for ev in q.pop_due(5):
            ev.action()
        assert fired == ["a", "b", "c"]

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1, _noop)

    def test_pop_due_leaves_future_events(self):
        q = EventQueue()
        q.schedule(10, _noop)
        q.schedule(50, _noop)
        assert len(q.pop_due(10)) == 1
        assert q.next_time() == 50

    def test_pop_due_includes_boundary(self):
        q = EventQueue()
        q.schedule(10, _noop)
        assert len(q.pop_due(10)) == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        q = EventQueue()
        ev = q.schedule(10, _noop)
        q.cancel(ev)
        assert q.pop_due(100) == []

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(10, _noop)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_cancel_one_of_many(self):
        q = EventQueue()
        keep = q.schedule(10, _noop)
        drop = q.schedule(5, _noop)
        q.cancel(drop)
        assert q.next_time() == 10
        assert q.pop_due(100) == [keep]

    def test_cancelling_a_popped_event_counts_nothing(self):
        q = EventQueue()
        first = q.schedule(5, _noop)
        q.schedule(10, _noop)
        assert q.pop_due(5) == [first]
        q.cancel(first)
        assert len(q) == 1 and bool(q) is True
        assert q.next_time() == 10


class TestIntrospection:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.schedule(1, _noop)
        assert q
        assert len(q) == 1

    def test_next_time_empty(self):
        assert EventQueue().next_time() is None
