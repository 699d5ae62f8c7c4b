"""Metrics derived from simulation traces, and the online sanitizer.

Everything but :class:`InvariantSanitizer` is computed from
:class:`repro.sim.trace.TraceRecorder` records only — never from
scheduler internals — so the same functions apply to the Resource
Distributor and to every baseline scheduler.  The sanitizer is online:
it sits in the kernel's hook slot and checks the live run as it goes.
"""

from repro.metrics.accounting import (
    allocation_series,
    miss_rate,
    qos_timeline,
    utilization,
)
from repro.metrics.analysis import (
    SwitchStats,
    overhead_fraction,
    summarize_switches,
)
from repro.metrics.latency import (
    LatencyStats,
    completion_times,
    latency_stats,
    max_service_gap,
    service_intervals,
)
from repro.metrics.sanitizer import InvariantSanitizer
from repro.metrics.validate import TraceValidator, ValidationReport, validate_trace

__all__ = [
    "InvariantSanitizer",
    "LatencyStats",
    "SwitchStats",
    "TraceValidator",
    "ValidationReport",
    "completion_times",
    "latency_stats",
    "max_service_gap",
    "service_intervals",
    "validate_trace",
    "allocation_series",
    "miss_rate",
    "overhead_fraction",
    "qos_timeline",
    "summarize_switches",
    "utilization",
]
