"""Fence off the host's clock and its unseeded randomness.

A run is a pure function of its seed only while nothing in ``repro``
reads the host clock or draws from a random source no seed controls.
Inside a :class:`HostStateGuard`, each of these is a *read*:

* ``time.{time,monotonic,perf_counter}[_ns]``;
* ``now`` / ``utcnow`` / ``today`` of ``datetime.datetime`` and
  ``datetime.date``, looked up after the guard is installed (``from
  datetime import datetime`` binds the guarded class then);
* every module-level ``random`` function (they draw from the hidden
  global generator), ``random.SystemRandom`` and ``random.Random()`` or
  ``random.Random(None)`` — a generator seeded from OS entropy.

A read is judged by the innermost ``repro`` frame on the stack, so a
read made through a helper outside ``repro`` (the standard library, a
package ``__init__``) still counts.  Only :data:`CLOCK_FUNNELS` may read
the clock: the phase profiler, whose timings land in
``prof_times.json`` (never byte-compared), and the fuzz driver's
``--time-budget``, which only decides when to stop starting scenarios.
A read with no ``repro`` frame on the stack — the harness, the test
runner — is not judged.

Strict (the default), a read records a :class:`Finding` and raises
:class:`HostStateRead`; with ``strict=False`` it records and answers,
so one run collects every read.  ``python -m tests.determinism_guard``
installs a strict guard before anything imports ``repro``, runs
``tests.test_determinism.DRIVERS`` and prints one sha256 per driver; it
exits 1 if a driver failed or read host state, naming each read's call
chain.
"""

from __future__ import annotations

import datetime
import random
import sys
import time
import traceback
from dataclasses import dataclass

#: Modules (and packages) that may read the host clock.
CLOCK_FUNNELS = ("repro.obs.prof", "repro.fuzz.driver")

CLOCKS = ("time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns")

#: The ``random`` functions bound to its hidden global generator.
GLOBAL_RNG = tuple(
    name
    for name in random.__all__
    if getattr(getattr(random, name), "__self__", None) is random._inst
)


class HostStateRead(RuntimeError):
    """Code in ``repro`` read the host clock or unseeded randomness."""


def _in(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


@dataclass(frozen=True)
class Finding:
    """One read: what was read, and the ``repro`` frames that asked."""

    sink: str
    #: ``module.qualname`` of each ``repro`` frame, outermost first,
    #: then the sink.
    witness: tuple[str, ...]
    #: ``(filename, line)`` of each of those frames.
    sites: tuple[tuple[str, int], ...]

    def lines_in(self, filename: str) -> list[int]:
        return [line for path, line in self.sites if path == filename]

    def __str__(self) -> str:
        path, line = self.sites[-1]
        return f"{path}:{line} read {self.sink}: {' -> '.join(self.witness)}"


class HostStateGuard:
    """Patch the host's clock and randomness for the ``with`` block."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.findings: list[Finding] = []
        self._saved: list[tuple[object, str, object]] = []

    def read(self, sink: str, clock: bool) -> None:
        """Judge one read by the ``repro`` frames on the caller's stack."""
        modules, witness, sites = [], [], []
        frame = sys._getframe(1)
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if _in(module, "repro"):
                modules.append(module)
                witness.append(f"{module}.{frame.f_code.co_qualname}")
                sites.append((frame.f_code.co_filename, frame.f_lineno))
            frame = frame.f_back
        if not modules:
            return
        if clock and any(_in(modules[0], funnel) for funnel in CLOCK_FUNNELS):
            return
        finding = Finding(sink, (*reversed(witness), sink), tuple(reversed(sites)))
        self.findings.append(finding)
        if self.strict:
            raise HostStateRead(str(finding))

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "HostStateGuard":
        guard = self

        def fenced(owner, name: str, sink: str, clock: bool):
            real = getattr(owner, name)

            def read(*args, **kwargs):
                guard.read(sink, clock)
                return real(*args, **kwargs)

            return read

        for name in CLOCKS:
            self._patch(time, name, fenced(time, name, f"time.{name}", True))
        for name in GLOBAL_RNG:
            self._patch(random, name, fenced(random, name, f"random.{name}", False))
        self._patch(
            random, "SystemRandom", fenced(random, "SystemRandom", "random.SystemRandom", False)
        )

        class SeededRandom(random.Random):
            def seed(self, a=None, version=2):
                if a is None:
                    guard.read("random.Random", False)
                super().seed(a, version)

        def clock_reads(cls):
            """``cls`` with its host-clock constructors fenced."""
            return type(
                cls.__name__,
                (cls,),
                {
                    name: staticmethod(fenced(cls, name, f"{cls.__name__}.{name}", True))
                    for name in ("now", "utcnow", "today")
                    if hasattr(cls, name)
                },
            )

        self._patch(random, "Random", SeededRandom)
        self._patch(datetime, "datetime", clock_reads(datetime.datetime))
        self._patch(datetime, "date", clock_reads(datetime.date))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def main() -> int:
    import hashlib

    failed = False
    with HostStateGuard() as guard:
        from tests.test_determinism import DRIVERS

        for name, driver in DRIVERS.items():
            try:
                digest = hashlib.sha256(driver().encode()).hexdigest()
            except Exception as exc:  # reported here; the other drivers still run
                traceback.print_exc()
                digest, failed = f"failed: {exc!r}", True
            print(name, digest)
    for finding in guard.findings:
        print(finding, file=sys.stderr)
    return 1 if failed or guard.findings else 0


if __name__ == "__main__":
    sys.exit(main())
