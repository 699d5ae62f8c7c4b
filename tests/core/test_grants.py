"""Grants and grant sets: the <= capacity invariant."""

import pytest

from repro.core.grants import Grant, GrantSet
from repro.core.resource_list import ResourceListEntry
from repro.errors import GrantError


def _fn(ctx):
    yield  # pragma: no cover


def grant(tid, period, cpu, exclusive=frozenset(), index=0):
    entry = ResourceListEntry(
        period=period, cpu_ticks=cpu, function=_fn, exclusive=frozenset(exclusive)
    )
    return Grant(thread_id=tid, entry=entry, entry_index=index)


def owners(grant_set, unit):
    """The threads whose grant names exclusive unit ``unit``."""
    return [g.thread_id for g in grant_set if unit in g.exclusive]


class TestGrant:
    def test_delegates_to_entry(self):
        g = grant(1, 900_000, 300_000)
        assert g.period == 900_000
        assert g.cpu_ticks == 300_000
        assert g.rate == pytest.approx(1 / 3)


class TestGrantSet:
    def test_total_rate_and_slack(self):
        gs = GrantSet(
            {1: grant(1, 900_000, 300_000), 2: grant(2, 900_000, 90_000)},
            capacity=0.96,
        )
        assert gs.total_rate == pytest.approx(300_000 / 900_000 + 0.1)
        assert gs.slack == pytest.approx(0.96 - gs.total_rate)

    def test_rejects_over_capacity(self):
        with pytest.raises(GrantError):
            GrantSet(
                {1: grant(1, 900_000, 600_000), 2: grant(2, 900_000, 600_000)},
                capacity=0.96,
            )

    def test_rejects_mismatched_key(self):
        with pytest.raises(GrantError):
            GrantSet({2: grant(1, 900_000, 100_000)}, capacity=1.0)

    def test_lookup(self):
        g = grant(1, 900_000, 100_000)
        gs = GrantSet({1: g}, capacity=1.0)
        assert gs[1] is g
        assert gs.get(2) is None
        with pytest.raises(GrantError):
            gs[2]

    def test_contains_and_len(self):
        gs = GrantSet({1: grant(1, 900_000, 100_000)}, capacity=1.0)
        assert 1 in gs
        assert 2 not in gs
        assert len(gs) == 1

    def test_empty_set_is_valid(self):
        gs = GrantSet({}, capacity=0.96)
        assert gs.total_rate == 0.0

    def test_exclusive_owner(self):
        gs = GrantSet(
            {1: grant(1, 900_000, 100_000, {"ffu.video_scaler"})}, capacity=1.0
        )
        assert owners(gs, "ffu.video_scaler") == [1]
        assert owners(gs, "data_streamer") == []

    def test_exclusive_double_grant_detected(self):
        gs = GrantSet(
            {
                1: grant(1, 900_000, 100_000, {"ffu.video_scaler"}),
                2: grant(2, 900_000, 100_000, {"ffu.video_scaler"}),
            },
            capacity=1.0,
        )
        # GrantSet checks only the budgets; grant control is what keeps
        # a unit to one owner (see test_grant_control's exclusive tests).
        assert owners(gs, "ffu.video_scaler") == [1, 2]

    def test_describe_table4_format(self):
        gs = GrantSet({1: grant(1, 270_000, 27_000)}, capacity=0.96)
        assert "10.0%" in gs.describe()
