"""Resource lists: Table 1 semantics and validation."""

import dataclasses
from bisect import bisect_right

import pytest

from repro.core.grant_control import _EPS, GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.errors import GrantError, ResourceListError


def _fn(ctx):
    yield  # pragma: no cover - never driven


def entry(period, cpu, **kwargs):
    return ResourceListEntry(period=period, cpu_ticks=cpu, function=_fn, **kwargs)


class TestEntry:
    def test_rate_is_cpu_over_period(self):
        # Table 2's top row: 300,000 / 900,000 = 33.3 %.
        assert entry(900_000, 300_000).rate == pytest.approx(1 / 3)

    def test_rejects_cpu_over_period(self):
        with pytest.raises(ResourceListError):
            entry(900_000, 900_001)

    def test_rejects_zero_cpu(self):
        with pytest.raises(ResourceListError):
            entry(900_000, 0)

    def test_rejects_float_cpu(self):
        with pytest.raises(ResourceListError):
            entry(900_000, 1000.5)

    def test_rejects_out_of_range_period(self):
        with pytest.raises(ValueError):
            entry(100, 10)

    def test_rejects_non_callable_function(self):
        with pytest.raises(ResourceListError):
            ResourceListEntry(period=900_000, cpu_ticks=100, function="nope")

    def test_full_rate_entry_allowed(self):
        assert entry(900_000, 900_000).rate == 1.0

    def test_stored_rate_is_not_part_of_identity(self):
        """``rate`` is derived: storing it must leave equality, hash and
        repr exactly as the six declared fields define them."""
        a = entry(900_000, 300_000, label="x", bandwidth=0.25)
        b = entry(900_000, 300_000, label="x", bandwidth=0.25)
        assert a == b and hash(a) == hash(b)
        assert a != entry(900_000, 300_001, label="x", bandwidth=0.25)
        assert "rate" not in repr(a)
        assert [f.name for f in dataclasses.fields(a) if f.compare] == [
            "period", "cpu_ticks", "function", "label", "exclusive", "bandwidth",
        ]
        with pytest.raises(TypeError):
            ResourceListEntry(900_000, 300_000, _fn, "", frozenset(), 0.0, 0.5)

    def test_replace_recomputes_the_rate(self):
        a = entry(900_000, 300_000)
        b = dataclasses.replace(a, cpu_ticks=450_000)
        assert (a.rate, b.rate) == (300_000 / 900_000, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.rate = 0.9


class TestListOrdering:
    def test_requires_strictly_decreasing_rates(self):
        with pytest.raises(ResourceListError):
            ResourceList([entry(900_000, 100_000), entry(900_000, 200_000)])

    def test_rejects_equal_rates(self):
        with pytest.raises(ResourceListError):
            ResourceList([entry(900_000, 100_000), entry(900_000, 100_000)])

    def test_rejects_empty(self):
        with pytest.raises(ResourceListError):
            ResourceList([])

    def test_max_and_min(self):
        rl = ResourceList([entry(900_000, 300_000), entry(900_000, 100_000)])
        assert rl.maximum.cpu_ticks == 300_000
        assert rl.minimum.cpu_ticks == 100_000

    def test_single_entry_is_both_max_and_min(self):
        rl = ResourceList([entry(900_000, 300_000)])
        assert rl.maximum is rl.minimum

    def test_mixed_periods_ordered_by_rate(self):
        # Table 2 mixes periods; ordering is by rate, not period.
        rl = ResourceList(
            [
                entry(900_000, 300_000),  # 33.3 %
                entry(3_600_000, 900_000),  # 25.0 %
                entry(2_700_000, 600_000),  # 22.2 %
                entry(3_600_000, 600_000),  # 16.7 %
            ]
        )
        assert [round(e.rate, 3) for e in rl] == [0.333, 0.25, 0.222, 0.167]


class TestTables:
    """What a list precomputes for grant control agrees with its entries."""

    def test_rates_and_bandwidths_mirror_the_entries(self):
        rl = ResourceList(
            [
                entry(900_000, 300_000, bandwidth=0.1),
                entry(3_600_000, 900_000, bandwidth=0.4, exclusive=frozenset({"u"})),
                entry(2_700_000, 600_000),
            ]
        )
        assert rl.rates == tuple(e.cpu_ticks / e.period for e in rl)
        assert rl.bandwidths == (0.1, 0.4, 0.0)
        assert rl.negated_rates == tuple(-rate for rate in rl.rates)
        assert rl.entries == tuple(rl)
        assert rl.indices == (0, 1, 2)
        assert rl.smallest_step == min(
            rl.rates[0] - rl.rates[1], rl.rates[1] - rl.rates[2]
        )
        assert rl.names_exclusive

    def test_single_entry_list(self):
        rl = ResourceList([entry(900_000, 300_000)])
        assert rl.rates == (1 / 3,) and rl.indices == (0,)
        assert rl.negated_rates == (-1 / 3,)
        assert rl.smallest_step == float("inf")
        assert not rl.names_exclusive


def split(rl, target):
    """How many entries grant control counts as at or above ``target``:
    pass 1's "above" is the last of them, its "below" the next one."""
    return bisect_right(rl.negated_rates, _EPS - target)


def one_thread(rl, share):
    """(entry index, passes) granted to a lone thread that the invented
    policy gives all of a machine with capacity ``share``."""
    box = PolicyBox(capacity=share)
    request = GrantRequest(
        thread_id=1, policy_id=box.register_task("t"), resource_list=rl
    )
    result = GrantController(share, box).compute([request])
    return result.grant_set[1].entry_index, result.passes


class TestSelection:
    """Pass 1's split of a list around a policy target, and what a lone
    thread is granted through it."""

    @pytest.fixture
    def rl(self):
        return ResourceList(
            [entry(900_000, 450_000), entry(900_000, 270_000), entry(900_000, 90_000)]
        )  # 50 %, 30 %, 10 %

    def test_split_middle(self, rl):
        # 50 % is just above a 40 % target, 30 % just below it; a lone
        # thread that cannot have the level above drops to the one below.
        assert split(rl, 0.4) == 1
        assert one_thread(rl, 0.4) == (1, 2)

    def test_split_above_every_level(self, rl):
        # Nothing is at or above 90 %: "above" is the best entry there is.
        assert split(rl, 0.9) == 0

    def test_split_below_every_level(self, rl):
        # Every level is above 1 %: "above" is the minimum entry, and
        # "below" clamps to it.
        assert split(rl, 0.01) == 3

    def test_split_counts_an_exact_level_as_above(self, rl):
        assert split(rl, 0.3) == 2
        assert split(rl, 0.3 + _EPS / 2) == 2
        assert split(rl, 0.3 + 2 * _EPS) == 1
        # On the boundary itself the level sits exactly ``_EPS`` under
        # the target, and still counts: a lone thread takes it in pass 1.
        target = 0.3 + _EPS
        assert target - _EPS == rl.rates[1]
        assert split(rl, target) == 2
        assert one_thread(rl, target) == (1, 1)

    def test_one_thread_gets_a_level_equal_to_its_share(self, rl):
        assert one_thread(rl, 0.3) == (1, 1)
        assert one_thread(rl, 0.5) == (0, 0)  # everyone's maximum fits

    def test_one_thread_rounds_down_to_a_useful_level(self, rl):
        # 45 % cannot run the 50 % level; the useful quantum is 30 %.
        assert one_thread(rl, 0.45) == (1, 2)

    def test_one_thread_under_its_minimum_is_refused(self, rl):
        # Admission never lets this happen: no entry fits in 5 %, so
        # demotion stops at the minimum and the set is rejected.
        with pytest.raises(GrantError):
            one_thread(rl, 0.05)

    def test_index_of(self, rl):
        assert rl.index_of(rl.minimum) == 2
        other = entry(900_000, 450_000)
        with pytest.raises(ResourceListError):
            rl.index_of(other)


class TestDescribe:
    def test_describe_contains_rates(self):
        rl = ResourceList([entry(900_000, 300_000, label="FullDecompress")])
        text = rl.describe()
        assert "FullDecompress" in text
        assert "33.3%" in text
