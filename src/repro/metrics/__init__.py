"""Metrics derived from simulation traces.

Everything here is computed from :class:`repro.sim.trace.TraceRecorder`
records only — never from scheduler internals — so the same functions
apply to the Resource Distributor and to every baseline scheduler.
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
from repro.metrics.export import deadlines_to_csv, segments_to_csv, trace_to_json
from repro.metrics.latency import (
    LatencyStats,
    completion_times,
    latency_stats,
    max_service_gap,
    service_intervals,
)
from repro.metrics.report import run_report
from repro.metrics.sanitizer import InvariantSanitizer
from repro.metrics.validate import TraceValidator, ValidationReport, validate_trace

__all__ = [
    "InvariantSanitizer",
    "LatencyStats",
    "SwitchStats",
    "TraceValidator",
    "ValidationReport",
    "completion_times",
    "deadlines_to_csv",
    "latency_stats",
    "max_service_gap",
    "segments_to_csv",
    "service_intervals",
    "trace_to_json",
    "validate_trace",
    "allocation_series",
    "miss_rate",
    "overhead_fraction",
    "qos_timeline",
    "run_report",
    "summarize_switches",
    "utilization",
]
