"""Deterministic phase counters/timers for subsystem cost attribution.

The instrumenting tier of ``repro.obs.prof``.  A method across the
ResourceManager, GrantController, PolicyBox, MessageBus, broker,
cluster and serving stack that is a phase of its own enters it one
way, the decorator :func:`repro.sim.phase.phase`::

    @phase("rm.recompute")
    def _recompute_now(self) -> None:
        ...

which runs the method between ``begin`` and ``end`` when the object's
``prof`` slot holds a profiler and straight through when it is
``None``.  A phase that opens and closes mid-function (the kernel's
``kernel.dispatch``, the scheduler's ``sched.notify`` /
``sched.activate``, a delivery's ``bus.rpc``, ``serve.http-parse``)
keeps the same guard inline.  The guard mirrors the obs emission idiom
(truthy check, zero work when no profiler is attached);
``tests/test_hot_paths.py`` runs every hook site with the slot ``None``
and checks that no profiler code is called.

Two books are kept:

* **counts** — how many times each phase ran.  Pure control flow: two
  same-seed runs produce byte-identical count tables, so counts live in
  the deterministic artifact (``prof_counts.json``).
* **self/cumulative nanoseconds** — wall-clock cost, reported
  separately (``prof_times.json``) because wall time is never
  deterministic.  ``self`` excludes time spent in nested profiled
  phases; ``cumulative`` is wall time with children included, added
  only when the *outermost* frame of a phase closes so recursion does
  not double-count.

The clock is injectable so unit tests script it; production uses
``time.perf_counter_ns`` — this module is part of the observability
layer's sanctioned wall-clock funnel (``tests/determinism_guard.py``).
"""

from __future__ import annotations

import time
from typing import Callable


class PhaseProfiler:
    """Accumulates per-phase call counts and self/cumulative wall time.

    Instances are always truthy; the hook-site guard ``if self.prof:``
    distinguishes *attached* (a profiler object) from *absent* (the
    ``None`` default), exactly like the obs bus guard.
    """

    __slots__ = ("counts", "self_ns", "cum_ns", "_stack", "_clock")

    def __init__(self, clock: Callable[[], int] | None = None) -> None:
        #: phase -> number of ``begin`` calls (deterministic).
        self.counts: dict[str, int] = {}
        #: phase -> wall ns excluding nested profiled phases.
        self.self_ns: dict[str, int] = {}
        #: phase -> wall ns including children (outermost frames only).
        self.cum_ns: dict[str, int] = {}
        # Open frames: [phase, start_ns, child_ns] — a plain list per
        # frame keeps begin() allocation-light on the hot path.
        self._stack: list[list] = []
        self._clock = clock if clock is not None else time.perf_counter_ns

    def begin(self, phase: str) -> None:
        """Open a frame for ``phase`` and count the call."""
        try:
            self.counts[phase] += 1
        except KeyError:
            # First sighting: seed all three books so the hot path
            # never needs .get() fallbacks (try/except is free on the
            # no-raise path).
            self.counts[phase] = 1
            self.self_ns[phase] = 0
            self.cum_ns[phase] = 0
        self._stack.append([phase, self._clock(), 0])

    def end(self, phase: str) -> None:
        """Close the innermost open frame for ``phase``.

        Unbalanced inner frames (a hook site that returned without its
        ``end``, e.g. via an exception swallowed above the hook) are
        settled and discarded on the way down rather than corrupting
        the stack.
        """
        stack = self._stack
        if not stack:
            return
        frame = stack.pop()
        if frame[0] == phase:
            # Fast path: the balanced case every hook site produces.
            elapsed = self._clock() - frame[1]
            if elapsed < 0:
                elapsed = 0
            own = elapsed - frame[2]
            if own > 0:
                self.self_ns[phase] += own
            if stack:
                stack[-1][2] += elapsed
                # Cumulative time counts only the outermost frame of a
                # phase, so recursion is not double-counted.  The open
                # stack is short (phase nesting, not call depth), so a
                # linear scan beats keeping a per-phase depth dict
                # current on every begin().
                for open_frame in stack:
                    if open_frame[0] == phase:
                        return
            self.cum_ns[phase] += elapsed
            return
        stack.append(frame)
        self._unwind(phase)

    def _unwind(self, phase: str) -> None:
        """Settle leaked inner frames until ``phase``'s frame closes."""
        now = self._clock()
        stack = self._stack
        while stack:
            frame = stack.pop()
            closed = frame[0]
            elapsed = now - frame[1]
            if elapsed < 0:
                elapsed = 0
            own = elapsed - frame[2]
            if own > 0:
                self.self_ns[closed] += own
            for open_frame in stack:
                if open_frame[0] == closed:
                    break
            else:
                self.cum_ns[closed] += elapsed
            if stack:
                stack[-1][2] += elapsed
            if closed == phase:
                return

    def finish(self) -> None:
        """Settle any frames still open (e.g. a run aborted mid-phase)."""
        while self._stack:
            self.end(self._stack[-1][0])

    def count_table(self) -> dict[str, int]:
        """Deterministic phase -> count mapping, sorted by phase name."""
        return {phase: self.counts[phase] for phase in sorted(self.counts)}

    def timing_table(self) -> dict[str, dict[str, int]]:
        """Phase -> ``{calls, self_ns, cum_ns}``, sorted by phase name.

        Wall-clock figures: report them separately from the count
        table, never inside a determinism-gated artifact.
        """
        return {
            phase: {
                "calls": self.counts[phase],
                "self_ns": self.self_ns.get(phase, 0),
                "cum_ns": self.cum_ns.get(phase, 0),
            }
            for phase in sorted(self.counts)
        }

    def snapshot(self) -> dict:
        """Live snapshot for ``/debug/prof``: counts plus timings."""
        return {
            "phases": self.timing_table(),
            "open_frames": len(self._stack),
        }
