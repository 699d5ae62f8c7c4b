"""repro.obs: structured telemetry for the Resource Distributor.

The paper's entire evaluation is about *seeing* scheduler behaviour —
who ran, when, against which grant, which overload policy fired.  This
package makes that first-class instead of post-hoc trace archaeology:

* :mod:`repro.obs.events` — a zero-dependency event bus with typed,
  sim-tick-stamped event records for every interesting decision
  (admissions, policy resolutions, grant recomputations, grace
  periods, migrations, RPC send/receive/drop/retry, invariant
  violations);
* :mod:`repro.obs.log` — deterministic JSONL serialization of events;
* :mod:`repro.obs.registry` / :mod:`repro.obs.prom` — a counters /
  gauges / histograms registry with a Prometheus-text exporter;
* :mod:`repro.obs.spans` — span tracing with trace-id/span-id
  propagation through MessageBus envelopes, so one admission's
  fail-over chain across nodes is a single causal tree;
* :mod:`repro.obs.perfetto` — a Chrome trace-event / Perfetto JSON
  exporter rendering scheduler run segments and cluster spans on one
  timeline;
* :mod:`repro.obs.session` — the bundle the CLI wires up
  (``--obs-out DIR`` writes four artifacts: events.jsonl,
  metrics.prom, trace.perfetto.json and pipeline.json).

Layering: ``repro.obs`` sits beside :mod:`repro.sim` at the bottom of
the stack.  ``repro.core``, ``repro.sim``, and ``repro.cluster`` may
all emit into it; ``repro.obs`` itself imports nothing above it (and
never ``repro.cluster`` — tier-1's import-graph test enforces both
directions).  All timestamps are simulated ticks, never wall-clock
(tier-1's determinism drivers fence off the host clock), so two runs
with the same seed write byte-identical artifacts.

Instrumentation is off by default: a run is observed by an
:class:`~repro.obs.session.ObsSession` or not at all.  Every hook site
guards with ``if self.obs:`` — a missing bus is ``None``, an attached
one is always truthy — so an unobserved distributor pays one attribute
read and a falsy branch per decision and never constructs the event
object.
"""

from repro.obs.events import (
    EVENT_TYPES,
    ActivationEvent,
    AdmissionEvent,
    GraceEvent,
    GrantChangeEvent,
    GrantRecomputeEvent,
    MigrationEvent,
    ObsBus,
    ObsEvent,
    PeriodCloseEvent,
    PolicyResolutionEvent,
    RpcEvent,
    SloAlertEvent,
    SwitchEvent,
    ViolationEvent,
)
from repro.obs.log import SCHEMA_VERSION, event_to_dict, events_to_jsonl
from repro.obs.perfetto import perfetto_trace_json
from repro.obs.prom import render_prometheus
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import ObsSession
from repro.obs.spans import Span, SpanTracker, TraceContext

__all__ = [
    "ActivationEvent",
    "AdmissionEvent",
    "Counter",
    "EVENT_TYPES",
    "Gauge",
    "GraceEvent",
    "GrantChangeEvent",
    "GrantRecomputeEvent",
    "Histogram",
    "MetricsRegistry",
    "MigrationEvent",
    "ObsBus",
    "ObsEvent",
    "ObsSession",
    "PeriodCloseEvent",
    "PolicyResolutionEvent",
    "RpcEvent",
    "SCHEMA_VERSION",
    "SloAlertEvent",
    "Span",
    "SpanTracker",
    "SwitchEvent",
    "TraceContext",
    "ViolationEvent",
    "event_to_dict",
    "events_to_jsonl",
    "perfetto_trace_json",
    "render_prometheus",
]
