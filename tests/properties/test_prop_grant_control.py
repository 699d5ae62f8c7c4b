"""Property tests: grant-set computation over random task populations.

The second half holds the correlator as it was before grant control
read per-list tables: ``ReferenceCorrelator`` (in
``repro.fuzz.reference``, beside the differential fuzzer's other
references) rebuilds a candidate list through ``any()`` over
``entry.exclusive`` on every ``_select_*`` / ``_promote`` call and keys
everything by thread id.  It is the from-scratch reference the shipped
controller must agree with — selection, pass count, fallback, unit ownership and any
``GrantError`` — over populations built to reach every branch, and on
every op of a Resource Manager stream held in overload.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest, _claim_order
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.errors import AdmissionError, GrantError
from repro.fuzz.reference import ReferenceCorrelator
from repro.tasks.base import TaskDefinition
from repro.workloads import grant_follower
from tests.random_workloads import random_resource_list

CAPACITY = 0.96
_EPS = 1e-9


def build_requests(seed, count, quiescent_mask):
    rng = random.Random(seed)
    box = PolicyBox(capacity=CAPACITY)
    requests = []
    committed = 0.0
    for i in range(count):
        rl = random_resource_list(rng, max_levels=5)
        if committed + rl.minimum.rate > CAPACITY:
            continue
        committed += rl.minimum.rate
        requests.append(
            GrantRequest(
                thread_id=i,
                policy_id=box.register_task(f"task{i}"),
                resource_list=rl,
                quiescent=bool(quiescent_mask & (1 << i)),
            )
        )
    return box, requests


@st.composite
def populations(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=1, max_value=12))
    quiescent_mask = draw(st.integers(min_value=0, max_value=(1 << 12) - 1))
    return build_requests(seed, count, quiescent_mask)


class TestGrantSetInvariants:
    @given(populations())
    @settings(max_examples=60, deadline=None)
    def test_total_rate_within_capacity(self, population):
        box, requests = build_population_safe(population)
        result = GrantController(CAPACITY, box).compute(requests)
        assert result.grant_set.total_rate <= CAPACITY + 1e-9

    @given(populations())
    @settings(max_examples=60, deadline=None)
    def test_every_grant_is_a_listed_entry(self, population):
        box, requests = build_population_safe(population)
        result = GrantController(CAPACITY, box).compute(requests)
        by_id = {r.thread_id: r for r in requests}
        for grant in result.grant_set:
            entries = by_id[grant.thread_id].resource_list.entries
            assert grant.entry in entries
            assert entries[grant.entry_index] is grant.entry

    @given(populations())
    @settings(max_examples=60, deadline=None)
    def test_active_threads_always_get_a_grant(self, population):
        """Admitted => granted: at worst the minimum entry."""
        box, requests = build_population_safe(population)
        result = GrantController(CAPACITY, box).compute(requests)
        for request in requests:
            if request.quiescent:
                assert request.thread_id not in result.grant_set
            else:
                assert request.thread_id in result.grant_set

    @given(populations())
    @settings(max_examples=60, deadline=None)
    def test_underload_means_everyone_max(self, population):
        box, requests = build_population_safe(population)
        active = [r for r in requests if not r.quiescent]
        result = GrantController(CAPACITY, box).compute(requests)
        if (
            active
            and sum(r.max_rate for r in active) <= CAPACITY
            and not any(r.resource_list.maximum.exclusive for r in active)
        ):
            for request in active:
                assert result.grant_set[request.thread_id].entry_index == 0

    @given(populations())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, population):
        box, requests = build_population_safe(population)
        a = GrantController(CAPACITY, box).compute(requests)
        b = GrantController(CAPACITY, box).compute(requests)
        for request in requests:
            ga, gb = a.grant_set.get(request.thread_id), b.grant_set.get(request.thread_id)
            assert (ga is None) == (gb is None)
            if ga is not None:
                assert ga.entry_index == gb.entry_index


def build_population_safe(population):
    box, requests = population
    return box, requests


# -- the table-driven correlator against its per-call-list reference --------

UNITS = ("ffu.video_scaler", "data_streamer")
PERIOD = units.ms_to_ticks(10)


def contended_list(rng, count, bandwidth_capacity, unit_on_minimum):
    """Up to five levels over a heavy maximum, rates on a coarse grid (so
    threads tie on overshoot), exclusive units and bandwidth scattered
    over the non-minimum entries, and a minimum small enough that
    ``count`` of them stay jointly admissible in both resources."""
    levels = rng.randint(1, 5)
    grid = sorted(rng.sample(range(2, 19), levels - 1), reverse=True)
    rates = [g * 0.05 for g in grid] + [0.9 / count * rng.choice((0.5, 0.75, 1.0))]
    entries = []
    for position, rate in enumerate(rates):
        cpu = max(1, round(PERIOD * rate))
        if entries and cpu >= entries[-1].cpu_ticks:
            continue
        minimum = position == len(rates) - 1
        names_unit = rng.random() < (unit_on_minimum if minimum else 0.35)
        entries.append(
            ResourceListEntry(
                period=PERIOD,
                cpu_ticks=cpu,
                function=grant_follower,
                exclusive=(
                    frozenset(rng.sample(UNITS, rng.randint(1, 2)))
                    if names_unit
                    else frozenset()
                ),
                # Ordered by CPU rate, not bandwidth: a lower level may
                # stream more than the one above it.
                bandwidth=(
                    0.9 * bandwidth_capacity / count * rng.random()
                    if minimum
                    else rng.choice((0.0, 0.0, 0.1, 0.25, 0.4))
                ),
            )
        )
    return ResourceList(entries)


def contended_population(seed, count, quiescent_mask, policy_mode, tight, cyclic):
    """A policy box, a bandwidth capacity and ``count`` requests.

    ``policy_mode`` 0 leaves the box empty (the invented 1/N policy); 1
    installs a default over the active set, 2 an override on top of it,
    with some targets far below their thread's minimum entry.  ``tight``
    makes bandwidth the binding budget; ``cyclic`` lets minimum entries
    name units too — the one way (reachable only through the controller
    directly, the Resource Manager rejects such lists) to a demotion
    deadlock, hence to the everyone-minimum fallback or a ``GrantError``.
    """
    rng = random.Random(seed)
    box = PolicyBox(capacity=CAPACITY)
    bandwidth_capacity = 0.3 if tight else 1.0
    shapes = [
        contended_list(rng, count, bandwidth_capacity, 0.3 if cyclic else 0.0)
        for _ in range(rng.randint(1, 4))
    ]
    requests = []
    for i in range(count):
        fresh = contended_list(rng, count, bandwidth_capacity, 0.3 if cyclic else 0.0)
        requests.append(
            GrantRequest(
                thread_id=i,
                policy_id=box.register_task(f"task{i}"),
                # Shared shapes make exact ties; fresh ones break them.
                resource_list=rng.choice(shapes) if rng.random() < 0.6 else fresh,
                quiescent=bool(quiescent_mask & (1 << i)),
            )
        )
    active = [r.policy_id for r in requests if not r.quiescent]
    if policy_mode and active:
        for install in (box.set_default, box.set_override)[:policy_mode]:
            weights = [rng.choice((0.001, 0.5, 1.0, 1.0, 3.0)) for _ in active]
            scale = 95.0 * rng.choice((0.3, 1.0)) / sum(weights)
            install({pid: w * scale for pid, w in zip(active, weights)})
    return box, bandwidth_capacity, requests


CHURN_PERIODS_MS = (5, 10, 20, 30, 40, 50, 100)


def churn_list(rng, count):
    """A ``dense_churn``-shaped list: up to five levels — a top rate in
    U(0.2, 0.9), its half, fifth and fifteenth — over a minimum small
    enough that ``count`` of them stay admissible.  No exclusive unit,
    no bandwidth."""
    period = units.ms_to_ticks(rng.choice(CHURN_PERIODS_MS))
    top = rng.uniform(0.2, 0.9)
    floor = 0.5 / count * rng.uniform(0.5, 1.0)
    entries = []
    for rate in (top, top / 2, top / 5, top / 15, floor):
        cpu = max(1, round(period * rate))
        if entries and cpu >= entries[-1].cpu_ticks:
            continue
        entries.append(ResourceListEntry(period, cpu, grant_follower))
    return ResourceList(entries)


def churn_population(seed, count, quiescent_mask):
    """``count`` churn-shaped requests under the invented 1/N policy, so
    every awake thread has the same target; half of them share a few
    lists, which ties their demotion keys exactly."""
    rng = random.Random(seed)
    box = PolicyBox(capacity=CAPACITY)
    shapes = [churn_list(rng, count) for _ in range(rng.randint(1, 8))]
    requests = [
        GrantRequest(
            thread_id=i,
            policy_id=box.register_task(f"churn{i}"),
            resource_list=rng.choice(shapes) if rng.random() < 0.5 else churn_list(rng, count),
            quiescent=bool(quiescent_mask & (1 << i)),
        )
        for i in range(count)
    ]
    return box, 1.0, requests


@st.composite
def contended_populations(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=256))
        return churn_population(
            seed, count, draw(st.integers(min_value=0, max_value=(1 << count) - 1))
            & draw(st.integers(min_value=0, max_value=(1 << count) - 1))
        )
    # Small populations deadlock and tie; large ones exercise the rows.
    count = draw(st.integers(min_value=1, max_value=6) | st.integers(min_value=1, max_value=64))
    return contended_population(
        seed=seed,
        count=count,
        # Mostly-awake masks: AND of two draws would thin them too far.
        quiescent_mask=draw(st.integers(min_value=0, max_value=(1 << count) - 1))
        & draw(st.integers(min_value=0, max_value=(1 << count) - 1)),
        policy_mode=draw(st.integers(min_value=0, max_value=2)),
        tight=draw(st.booleans()),
        cyclic=draw(st.booleans()),
    )


def outcome(controller, requests):
    """Everything a caller can observe of one computation."""
    try:
        result = controller.compute(requests)
    except GrantError as exc:
        return ("error", str(exc))
    return summary(result, requests)


def summary(result, requests):
    """Selection, passes, fallback, owners and whether the policy was
    invented; every grant checked to be its list's entry at its index."""
    by_id = {r.thread_id: r for r in requests}
    for grant in result.grant_set:
        assert by_id[grant.thread_id].resource_list[grant.entry_index] is grant.entry
    return (
        {g.thread_id: g.entry_index for g in result.grant_set},
        result.passes,
        result.minimum_fallback,
        result.exclusive_assignment,
        None if result.policy is None else result.policy.invented,
    )


class TestTablesMatchPerCallLists:
    @given(contended_populations())
    @settings(max_examples=300, deadline=None)
    def test_shipped_correlator_matches_reference(self, population):
        box, bandwidth_capacity, requests = population
        shipped = GrantController(CAPACITY, box, bandwidth_capacity)
        reference = ReferenceCorrelator(CAPACITY, box, bandwidth_capacity)
        assert outcome(shipped, requests) == outcome(reference, requests)

    def test_fixed_sample_reaches_every_branch_and_agrees(self):
        """The strategy is only as good as what it reaches.  A fixed
        sample — half of it small populations whose minimum entries
        name units, where demotion can deadlock, then churn-shaped ones
        up to N = 256 — must take all three passes, the fallback, both
        errors and contended-unit paths, and, on lists that name no
        unit, a "below" entry clamped at the minimum, a pass-3
        promotion and a demotion-order tie; and it must agree with the
        reference on every one of them."""
        seen = set()
        rng = random.Random(0)
        for seed in range(1400):
            if seed < 1200:
                cyclic = bool(seed & 2)
                count = rng.randint(2, 6 if cyclic else 64)
                box, bandwidth_capacity, requests = contended_population(
                    seed,
                    count,
                    rng.getrandbits(count) & rng.getrandbits(count),
                    policy_mode=seed % 3,
                    tight=bool(seed & 1),
                    cyclic=cyclic,
                )
            else:
                count = rng.randint(2, 256)
                box, bandwidth_capacity, requests = churn_population(
                    seed, count, rng.getrandbits(count) & rng.getrandbits(count)
                )
            reference = WatchedReference(CAPACITY, box, bandwidth_capacity)
            result = outcome(
                GrantController(CAPACITY, box, bandwidth_capacity), requests
            )
            assert result == outcome(reference, requests)
            seen |= reference.reached
            if result[0] == "error":
                seen.add("claimed" if "already claimed" in result[1] else "no-entry")
                continue
            _, passes, fallback, owners, invented = result
            seen.add(f"passes={passes}")
            seen.add(f"invented={invented}")
            if fallback:
                seen.add("fallback")
            if len(owners) == 2 and passes:
                seen.add("both-units-owned")
        assert seen >= {
            "passes=0", "passes=1", "passes=2", "passes=3", "fallback",
            "claimed", "no-entry", "both-units-owned",
            "invented=True", "invented=False",
            "clamped", "promoted", "tie",
        }


class WatchedReference(ReferenceCorrelator):
    """The reference, noting three cases of passes 2 and 3 as it takes
    them on a list that names no unit: a demotion whose "below" entry is
    clamped at the minimum (nothing sits under the target), a pass-3
    promotion, and two threads demoted back to back on equal keys, where
    only the tie-break orders them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reached = set()
        self._last_key = None

    def _select_below(self, request, target, owners, current):
        index = super()._select_below(request, target, owners, current)
        entries = request.resource_list
        key = entries[current].rate - target
        if not entries.names_exclusive:
            if entries[index].rate >= target - _EPS:
                self.reached.add("clamped")
            if key == self._last_key:
                self.reached.add("tie")
        self._last_key = key
        return index

    def _promote(self, request, current, slack, owners, floor=0, bw_slack=1.0):
        index = super()._promote(request, current, slack, owners, floor, bw_slack)
        if index != current and not request.resource_list.names_exclusive:
            self.reached.add("promoted")
        return index


# -- the RM-op stream against the reference ------------------------------------

#: Fewest runnable tasks a stream keeps: five tops of at least 20 % each
#: overload a 96 % machine, so every op takes the policy path.
MIN_RUNNABLE = 5


def run_op_stream(seed, count, ops):
    """Admit ``count`` churn-shaped tasks, then run one op per simulated
    ms under the strict sanitizer; after each, the Resource Manager's
    last result must be what the reference computes from its requests."""
    rng = random.Random(seed)
    rd = ResourceDistributor(
        sim=SimConfig(seed=seed), sanitize=True, sanitize_strict=True
    )
    manager = rd.resource_manager
    names = itertools.count()
    # Shared lists tie demotion keys exactly, as in ``churn_population``.
    shapes = [churn_list(rng, count) for _ in range(rng.randint(1, 4))]

    def fresh(name=None):
        return TaskDefinition(
            name=name or f"churn{next(names)}",
            resource_list=rng.choice(shapes) if rng.random() < 0.5 else churn_list(rng, count),
        )

    rd.admit_many([fresh() for _ in range(count)])
    for kind in ops:
        rd.run_for(units.ms_to_ticks(1))
        live = list(manager.admitted_ids())
        runnable = [tid for tid in live if not manager.usage(tid).quiescent]
        quiescent = [tid for tid in live if manager.usage(tid).quiescent]
        try:
            if kind == "admit":
                rd.admit(fresh())
            elif kind == "exit" and len(runnable) > MIN_RUNNABLE:
                rd.exit_thread(rng.choice(runnable))
            elif kind == "exit" and quiescent:
                rd.exit_thread(rng.choice(quiescent))
            elif kind == "quiesce" and len(runnable) > MIN_RUNNABLE:
                rd.enter_quiescent(rng.choice(runnable))
            elif kind == "wake" and quiescent:
                rd.wake(rng.choice(quiescent))
            elif kind == "relist":
                tid = rng.choice(live)
                manager.change_resource_list(tid, fresh(rd.thread(tid).name))
        except AdmissionError:
            pass  # a denied minimum changes nothing
        result = manager.last_result
        assert result.passes >= 1  # held in overload
        requests = manager._requests()
        reference = ReferenceCorrelator(
            manager.grant_control.capacity,
            rd.policy_box,
            manager.grant_control.bandwidth_capacity,
        )
        assert summary(result, requests) == outcome(reference, requests)
    assert rd.sanitizer.ok


class TestRMOpStream:
    """The reference watches the RM-op stream, not only single
    populations: admits, exits, quiesces, wakes and list changes on a
    distributor held in overload, each checked as it lands."""

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        count=st.integers(min_value=MIN_RUNNABLE, max_value=64),
        ops=st.lists(
            st.sampled_from(("admit", "exit", "quiesce", "wake", "relist")),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_op_matches_the_reference(self, seed, count, ops):
        run_op_stream(seed, count, ops)


# -- the claim order is three stable sorts --------------------------------------


@st.composite
def claim_keys(draw):
    """Distinct tids in any order, policy ids drawn from a few (two
    live tasks with one name share a pid), targets from a coarse grid
    (ties, a zero share for a pid the policy does not rank), and a
    preferred pid that may be None or name no live task."""
    count = draw(st.integers(min_value=1, max_value=40))
    tids = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    pids = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=count, max_size=count))
    shares = {pid: draw(st.sampled_from((0.0, 0.05, 0.12, 0.12, 0.3))) for pid in range(1, 7)}
    targets = [shares[pid] for pid in pids]
    preferred = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=7)))
    return tids, pids, targets, preferred


class TestClaimOrder:
    """``_claim_order`` sorts three plain key lists in turn; the order
    must be the one the key tuple ``(pid != preferred, -target, tid)``
    gives."""

    @given(claim_keys())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_tuple_sort(self, keys):
        tids, pids, targets, preferred = keys
        expected = sorted(
            range(len(tids)),
            key=lambda p: (pids[p] != preferred, -targets[p], tids[p]),
        )
        assert _claim_order(tids, pids, targets, preferred) == expected

    def test_a_shared_pid_and_no_preference(self):
        tids, pids, targets = [9, 4, 7, 2], [3, 1, 3, 2], [0.1, 0.1, 0.1, 0.2]
        assert _claim_order(tids, pids, targets, 3) == [2, 0, 3, 1]
        assert _claim_order(tids, pids, targets, None) == [3, 1, 2, 0]
