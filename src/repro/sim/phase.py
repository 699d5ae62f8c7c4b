"""The one way a method enters a profiler phase.

A method that is a phase of its own is decorated::

    @phase("policy.resolve")
    def resolve(self, policy_ids):
        ...

and runs between ``prof.begin`` / ``prof.end`` when its object's
``prof`` slot holds a profiler (:class:`repro.obs.prof.PhaseProfiler`,
injected from above), or straight through when the slot is ``None`` —
one attribute read and one falsy branch, and nothing under
``repro/obs`` is called.  The decorator lives here, below every caller
and outside the observability layer, so code that takes it imports no
profiler.  A phase that opens and closes mid-function (the kernel's
dispatch, the scheduler's notify and activation, the message bus's
delivery, the HTTP parse) keeps its inline guard.
"""

from __future__ import annotations

import functools


def phase(name: str):
    """Run the decorated method inside profiler phase ``name``."""

    def wrap(method):
        @functools.wraps(method)
        def entered(self, *args, **kwargs):
            prof = self.prof
            if prof:
                prof.begin(name)
                try:
                    return method(self, *args, **kwargs)
                finally:
                    prof.end(name)
            return method(self, *args, **kwargs)

        return entered

    return wrap
