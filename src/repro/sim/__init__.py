"""Discrete-event simulation substrate.

This package provides the deterministic foundation every experiment runs
on: an event queue with stable ordering, simulated clocks (including
drifting external clocks for the clock-synchronization experiments), a
seeded RNG registry, and a trace recorder that captures everything the
metrics and visualization layers need.
"""

from repro.sim.clock import DriftingClock, SimClock, TCIClock
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.messages import BusStats, Envelope, MessageBus
from repro.sim.rng import RngRegistry
from repro.sim.trace import (
    BlockRecord,
    ContextSwitchRecord,
    DeadlineRecord,
    GrantChangeRecord,
    RunSegment,
    SwitchKind,
    TraceRecorder,
)

__all__ = [
    "BlockRecord",
    "BusStats",
    "ContextSwitchRecord",
    "DeadlineRecord",
    "DriftingClock",
    "Envelope",
    "EventQueue",
    "MessageBus",
    "GrantChangeRecord",
    "RngRegistry",
    "RunSegment",
    "ScheduledEvent",
    "SimClock",
    "SwitchKind",
    "TCIClock",
    "TraceRecorder",
]
