"""Interrupt reserve accounting and interrupt-load injection.

Latency requirements under ~1 ms cannot be met by periodic tasks (the
best guaranteed latency is twice the period minus twice the CPU
allocation), so such work is handled by interrupt handlers *outside* the
Resource Distributor's purview.  The paper reserves a small, fixed
percentage of the processor for them — 4 % in the §6.5 experiments —
trading wasted resources against interrupt handlers conflicting with
admitted tasks' deadlines (``bench_ablation_reserve.py`` sweeps the
reserve against switch overhead alone).

The reserve also absorbs scheduler overhead (timer interrupts, context
switches), which is why admission control admits against
``1 - reserve`` rather than the full processor.

:class:`InterruptSource` injects an actual interrupt load — periodic or
jittered handler invocations that steal CPU from whatever is running —
so the reserve-sizing tradeoff can be exercised rather than asserted:
no scenario or bench attaches one; the reserve-sizing tests
(``tests/machine/test_interrupt_injection.py``) and the soak test do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import units
from repro.sim.trace import SEGMENT_SYSTEM


@dataclass
class InterruptReserve:
    """Tracks the reserved fraction and the overhead actually consumed."""

    fraction: float = 0.04
    consumed_ticks: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"reserve fraction must be in [0, 1), got {self.fraction}")

    def charge(self, ticks: int) -> None:
        """Charge interrupt/overhead time against the reserve."""
        if ticks < 0:
            raise ValueError(f"cannot charge negative overhead: {ticks}")
        self.consumed_ticks += ticks

    def consumed_fraction(self, elapsed_ticks: int) -> float:
        """Overhead consumed as a fraction of ``elapsed_ticks``."""
        if elapsed_ticks <= 0:
            return 0.0
        return self.consumed_ticks / elapsed_ticks


class InterruptSource:
    """A device raising interrupts whose handlers steal CPU time.

    Handlers run outside the Resource Distributor: they preempt whatever
    is running, consume ``service_us`` of CPU charged to the interrupt
    reserve, and return.  ``jitter`` spreads inter-arrival times
    uniformly within +-jitter of the nominal interval.

    Attach to a kernel with :meth:`attach`; interrupts self-reschedule
    until the horizon.
    """

    def __init__(
        self,
        name: str,
        rate_hz: float,
        service_us: float,
        jitter: float = 0.25,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError(f"interrupt rate must be positive, got {rate_hz}")
        if service_us <= 0:
            raise ValueError(f"service time must be positive, got {service_us}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.name = name
        self.rate_hz = rate_hz
        self.service_us = service_us
        self.jitter = jitter
        self.fired = 0

    def attach(self, kernel, horizon: int) -> None:
        """Start raising interrupts on ``kernel`` until ``horizon``."""
        interval = units.TCI_HZ / self.rate_hz
        service_ticks = units.us_to_ticks(self.service_us)
        rng: random.Random = kernel.rngs.stream(f"interrupts:{self.name}")

        def next_gap() -> int:
            spread = interval * self.jitter
            return max(1, round(interval + rng.uniform(-spread, spread)))

        def schedule(at: int) -> None:
            if at >= horizon:
                return

            def handler() -> None:
                start = kernel.now
                kernel.clock.advance(service_ticks)
                kernel.reserve.charge(service_ticks)
                self.fired += 1
                kernel.trace.record_run(-1, start, kernel.now, SEGMENT_SYSTEM)
                schedule(kernel.now + next_gap())

            kernel.at(at, handler, label=f"irq:{self.name}")

        schedule(kernel.now + next_gap())
