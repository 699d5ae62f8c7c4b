"""Property: the one-pass audit judges every pick as the full scan does.

``InvariantSanitizer.on_pick`` finds the TimeRemaining head in one pass,
testing ``SimThread.eligible_time_remaining``'s predicate field by field
and keeping the minimum ``(deadline, tid)`` as it goes.  The reference
below is the scan it replaced, kept verbatim: the eligible threads
listed through the predicate method, then ``min`` on ``(deadline,
tid)`` — and, when TimeRemaining is empty, the same over
``eligible_overtime``.  ``edf-order`` must be flagged exactly when the
reference's head is not the pick.

The populations are drawn to reach every field the predicate reads:
ties on deadline, postponed periods (``period_start > now``) and periods
opening *at* ``now``, ``remaining == 0``, ``declared_done``, blocked,
quiescent and exited threads, ``grant is None`` and ``period_index <
0``.  The kernel stub hands the threads out in a drawn order, so a head
is never found by iteration order alone.  Checked by hand: dropping the
tid tie-break, or testing ``period_start < now``, fails this file.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threads import (
    STATE_ACTIVE,
    STATE_BLOCKED,
    STATE_EXITED,
    STATE_QUIESCENT,
    THREAD_IDLE,
    THREAD_PERIODIC,
    SimThread,
)
from repro.metrics.sanitizer import InvariantSanitizer

NOW = 10_000
#: The predicates read only whether a grant is present.
GRANT = object()


class _Kernel:
    """What the audit reads of a kernel: the periodic threads, in the
    order given, and the tid table."""

    def __init__(self, order: list[SimThread], missing: set[int]) -> None:
        self._order = order
        self.threads = {t.tid: t for t in order if t.tid not in missing}

    def periodic_threads(self):
        return iter(self._order)


class _ResourceManager:
    def __init__(self, admitted: tuple[int, ...]) -> None:
        self._admitted = admitted

    def admitted_ids(self) -> tuple[int, ...]:
        return self._admitted


def _edf_key(thread: SimThread) -> tuple[int, int]:
    return (thread.deadline, thread.tid)


def reference_verdict(order: list[SimThread], chosen: SimThread, now: int) -> bool:
    """Does the full scan flag ``chosen``?"""
    eligible = [t for t in order if t.eligible_time_remaining(now)]
    if eligible:
        return chosen is not min(eligible, key=_edf_key)
    overtime = [t for t in order if t.eligible_overtime(now)]
    if overtime:
        return chosen is not min(overtime, key=_edf_key)
    return not chosen.is_idle


#: Per field the predicate reads, the values that make a thread
#: ineligible for TimeRemaining.
INELIGIBLE = {
    "remaining": (0,),
    "declared_done": (True,),
    "state": (STATE_BLOCKED, STATE_QUIESCENT, STATE_EXITED),
    "grant": (None,),
    "period_index": (-1,),
    "period_start": (NOW + 1, NOW + 50),
}


@st.composite
def periodic_thread(draw, tid: int) -> SimThread:
    """An eligible thread (a period opening at ``now`` is eligible),
    then made ineligible through none, one or two fields."""
    thread = SimThread(tid, f"t{tid}", THREAD_PERIODIC)
    thread.grant = GRANT
    thread.period_index = draw(st.sampled_from((0, 3)))
    thread.period_start = NOW + draw(st.sampled_from((-50, -1, 0)))
    # Few distinct deadlines, so ties are common.
    thread.deadline = NOW + 10 * draw(st.integers(min_value=1, max_value=3))
    thread.remaining = draw(st.sampled_from((1, 700)))
    thread.wants_overtime = draw(st.booleans())
    thread.restart_pending = draw(st.booleans())
    # Drawn uniformly, so each field is often the only reason a thread
    # is ineligible: that is the case a dropped field test gets wrong.
    first = draw(st.sampled_from((None, None, *INELIGIBLE)))
    second = draw(st.sampled_from((None, None, None, *INELIGIBLE))) if first else None
    for field in (first, second):
        if field is not None:
            setattr(thread, field, draw(st.sampled_from(INELIGIBLE[field])))
    return thread


@st.composite
def populations(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    members = [draw(periodic_thread(tid)) for tid in range(2, count + 2)]
    order = draw(st.permutations(members))
    idle = SimThread(1, "Idle", THREAD_IDLE)
    reference = [t for t in order if t.eligible_time_remaining(NOW)]
    candidates = [idle, *members]
    if reference:
        # Half the time the pick is the head, so agreement is tested too.
        candidates += [min(reference, key=_edf_key)] * len(candidates)
    chosen = draw(st.sampled_from(candidates))
    return order, chosen


def _sanitizer(order, admitted=(), missing=frozenset()) -> InvariantSanitizer:
    return InvariantSanitizer(
        _Kernel(order, set(missing)), _ResourceManager(tuple(admitted)), strict=False
    )


class TestOnePassAudit:
    @given(populations())
    @settings(max_examples=250, deadline=None)
    def test_edf_order_is_flagged_exactly_when_the_scan_flags_it(self, drawn):
        order, chosen = drawn
        sanitizer = _sanitizer(order)
        sanitizer.on_pick(chosen, NOW)
        flagged = [v for v in sanitizer.report.violations if v.rule == "edf-order"]
        assert len(flagged) == int(reference_verdict(order, chosen, NOW))
        assert sanitizer.decisions_checked == 1

    @given(populations(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_never_terminated_names_each_dead_admitted_thread_once(self, drawn, data):
        order, chosen = drawn
        tids = [t.tid for t in order]
        admitted = sorted(data.draw(st.sets(st.sampled_from(tids)))) if tids else []
        missing = data.draw(st.sets(st.sampled_from(tids))) if tids else set()
        sanitizer = _sanitizer(order, admitted, missing)
        by_tid = {t.tid: t for t in order}
        dead = [
            tid for tid in admitted
            if tid in missing or by_tid[tid].state is STATE_EXITED
        ]
        for _ in range(3):
            sanitizer.on_pick(chosen, NOW)
        reported = [
            int(v.detail.split()[1])
            for v in sanitizer.report.violations
            if v.rule == "never-terminated"
        ]
        assert reported == dead
