"""Property tests: event queue ordering, clock arithmetic, resource
lists, policy box invention."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.clock_sync import (
    conservative_period,
    postpone_for_period,
    ticks_per_external_period,
)
from repro.core.grant_control import _EPS, GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.errors import GrantError
from repro.sim.events import EventQueue


def _fn(ctx):
    yield  # pragma: no cover


class TestEventQueueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
    def test_pop_due_is_sorted_and_stable(self, times):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in times]
        popped = q.pop_due(10_000)
        assert [e.time for e in popped] == sorted(e.time for e in popped)
        # Stability: equal times keep scheduling order.
        for a, b in zip(popped, popped[1:]):
            if a.time == b.time:
                assert a.seq < b.seq

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30),
        st.data(),
    )
    def test_cancelled_events_never_fire(self, times, data):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in times]
        to_cancel = data.draw(st.sets(st.integers(0, len(events) - 1)))
        for i in to_cancel:
            q.cancel(events[i])
        popped = {e.seq for e in q.pop_due(1_000)}
        assert popped == {e.seq for i, e in enumerate(events) if i not in to_cancel}


class TestClockSyncProperties:
    skews = st.floats(min_value=-5_000.0, max_value=5_000.0, allow_nan=False)
    periods = st.integers(min_value=units.MIN_PERIOD_TICKS, max_value=units.sec_to_ticks(1))

    @given(periods, skews)
    def test_postpone_is_never_negative(self, period, skew):
        assert postpone_for_period(period, period, skew) >= 0

    @given(periods, st.floats(min_value=0.0, max_value=5_000.0))
    def test_conservative_period_absorbs_worst_case(self, period, max_skew):
        declared = conservative_period(period, max_skew)
        assert declared <= period
        # At the worst fast skew, the needed postponement is >= 0.
        assert postpone_for_period(declared, period, max_skew) >= 0
        # And the long-run pace matches the external clock exactly.
        target = ticks_per_external_period(period, max_skew)
        assert declared + postpone_for_period(declared, period, max_skew) == pytest.approx(
            target, abs=1.0
        )


class TestResourceListProperties:
    rate_lists = st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=8,
        unique=True,
    )

    @staticmethod
    def _list(rates):
        period = units.ms_to_ticks(10)
        cpu = sorted({max(1, round(period * r)) for r in rates}, reverse=True)
        return ResourceList([ResourceListEntry(period, c, _fn) for c in cpu])

    @given(rate_lists)
    def test_one_thread_takes_best_fit(self, rates):
        """A lone thread the invented policy gives a whole machine of
        capacity ``probe`` gets the highest-QOS level that fits in it,
        rounded down, never fractional; with none, there is no set."""
        rl = self._list(rates)
        for probe in [r / 2 for r in rates] + list(rates):
            box = PolicyBox(capacity=probe)
            request = GrantRequest(1, box.register_task("t"), rl)
            fitting = [i for i, rate in enumerate(rl.rates) if rate <= probe + _EPS]
            if not fitting:
                with pytest.raises(GrantError):
                    GrantController(probe, box).compute([request])
                continue
            result = GrantController(probe, box).compute([request])
            assert result.grant_set[1].entry_index == fitting[0]

    @given(rate_lists)
    def test_split_brackets_the_target(self, rates):
        """Pass 1's bisection splits a list into the levels at or above a
        target (within ``_EPS``) and those below it."""
        rl = self._list(rates)
        for target in (0.005, 0.3, 0.77, 1.0, *rates):
            split = bisect_right(rl.negated_rates, _EPS - target)
            assert all(rate >= target - _EPS for rate in rl.rates[:split])
            assert all(rate < target - _EPS for rate in rl.rates[split:])


class TestPolicyBoxProperties:
    @given(st.integers(min_value=1, max_value=20))
    def test_invented_shares_fit_capacity(self, n):
        box = PolicyBox(capacity=0.96)
        ids = {box.register_task(f"t{i}") for i in range(n)}
        policy = box.resolve(ids)
        assert sum(policy.shares.values()) <= 0.96 + 1e-9
        assert policy.invented
        assert set(policy.shares) == ids

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=99))
    def test_resolution_is_deterministic(self, n, salt):
        box = PolicyBox(capacity=0.96)
        ids = {box.register_task(f"t{salt}-{i}") for i in range(n)}
        a = box.resolve(ids)
        b = box.resolve(ids)
        assert a.shares == b.shares
        assert a.exclusive_preference == b.exclusive_preference
