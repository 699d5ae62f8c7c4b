"""Synthetic scheduler bugs, for proving the fuzz pipeline works.

A fuzzer that has never seen a failure is untested.  Each injection
here plants one deliberate, deterministic defect into a wired
:class:`ResourceDistributor`; an oracle must catch it — the strict
sanitizer, or for ``trace-double-count`` (which the sanitizer cannot
see) the offline trace audit — the shrinker must reduce the triggering
spec, and replaying the written trace (which records the injection
name) must reproduce the violation.

The injections are instance-level monkey-patches — nothing in the
production code knows about them, so a clean run is provably clean.
"""

from __future__ import annotations

from repro import units
from repro.errors import SimulationError
from repro.sim.trace import SegmentKind

#: When the ``terminate-admitted`` kill event fires, into the run.
_KILL_AT_MS = 20


def _edf_invert(rd) -> None:
    """Anti-EDF: whenever more than one thread is eligible, dispatch the
    one with the *latest* deadline.  Trips ``edf-order`` on the first
    contended decision."""
    real_pick = rd.scheduler.pick
    kernel = rd.kernel

    def pick(now: int):
        eligible = [
            t for t in kernel.periodic_threads() if t.eligible_time_remaining(now)
        ]
        if len(eligible) > 1:
            return max(eligible, key=lambda t: (t.deadline, t.tid))
        return real_pick(now)

    # The kernel dispatches through ``policy.pick``; the instance
    # attribute shadows the bound method for this distributor only.
    rd.scheduler.pick = pick


def _terminate_admitted(rd) -> None:
    """Kill an admitted thread behind the Resource Manager's back —
    the one thing the paper says the system may never do.  Trips
    ``never-terminated`` on the next scheduling decision."""

    def kill() -> None:
        from repro.core.threads import ThreadState

        tids = sorted(rd.resource_manager.admitted_ids())
        if tids:
            rd.kernel.threads[tids[0]].state = ThreadState.EXITED

    rd.at(units.ms_to_ticks(_KILL_AT_MS), kill, "inject: terminate admitted")


def _trace_double_count(rd) -> None:
    """Record the first granted run one tick longer than it ran, so the
    next run overlaps it.  Scheduling and accounting are untouched — the
    live sanitizer never reads run segments and stays clean — but the
    recorded trace now shows two threads on one CPU: only the offline
    audit (``invariant:trace-cpu-overlap``) can object."""
    real_record_run = rd.trace.record_run
    armed = True

    def record_run(thread_id, start, end, kind, *rest):
        nonlocal armed
        if armed and kind is SegmentKind.GRANTED:
            armed = False
            end += 1
        real_record_run(thread_id, start, end, kind, *rest)

    rd.trace.record_run = record_run


INJECTIONS = {
    "edf-invert": _edf_invert,
    "terminate-admitted": _terminate_admitted,
    "trace-double-count": _trace_double_count,
}


def injector(name: str | None):
    """The injection function for ``name`` (None means no injection)."""
    if name is None:
        return None
    try:
        return INJECTIONS[name]
    except KeyError:
        raise SimulationError(
            f"unknown injection {name!r}; known: {sorted(INJECTIONS)}"
        ) from None
