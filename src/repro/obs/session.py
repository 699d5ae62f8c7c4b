"""One observability session: arenas + metrics + spans + exporters.

An :class:`ObsSession` is what ``--obs-out DIR`` wires up: a single
columnar event bus (:class:`~repro.obs.pipeline.arena.ArenaBus`) shared
by every instrumented component, a metrics registry derived from the
recorded stream, and a span tracker for the cluster layer.  Recording is
one scalar append per field per event; nothing else happens on the hot
path.  Typed events and metrics are *views* over the arenas:

* :attr:`events` materializes the whole stream on demand;
* :attr:`registry` (and :meth:`metrics_prom`) first *catch up*: the
  session keeps a cursor into the bus's global emission order and folds
  only the events emitted since the previous read through the
  event->metric table, never resetting a series.  Metrics registered on
  the same registry by other layers (the serve front-end's HTTP
  counters) therefore live undisturbed beside the derived ones, and a
  mid-run reader (the cluster's per-node telemetry) sees exactly the
  stream so far.

At the end of the run :meth:`write` emits four artifacts —

* ``events.jsonl``  — every event, one canonical JSON object per line;
* ``metrics.prom``  — the registry in Prometheus text format;
* ``trace.perfetto.json`` — scheduler segments + spans + decision
  markers for Perfetto / chrome://tracing;
* ``pipeline.json`` — the loss accounting (per node / per kind emitted,
  delivered, dropped, sampled_out, overwritten, plus chunk-level
  totals) —

all derived purely from sim-tick-stamped data, so two same-seed runs
write byte-identical files (tier-1 pins their digests in
``tests/obs/golden_artifacts.json``).

When the cluster layer ships chunks it attaches its
:class:`~repro.cluster.obs_pipeline.PipelineShipping` plane as
:attr:`ObsSession.shipping`; a session without one reports the local
ground truth (everything retained counts as delivered, ring overwrites
as dropped).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SimulationError
from repro.obs.events import ObsEvent, ScopedBus
from repro.obs.log import events_to_jsonl
from repro.obs.perfetto import perfetto_trace_json
from repro.obs.pipeline.aggregate import RootCollector, check_loss_invariant
from repro.obs.pipeline.arena import ArenaBus, StreamCursor
from repro.obs.prom import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracker

_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)
_TICK_BUCKETS = (0.0, 27.0, 270.0, 2_700.0, 27_000.0, 270_000.0, 2_700_000.0)
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class ObsSession:
    """Everything one observed run accumulates.

    Metric values are read through :attr:`registry` (by name) or
    :meth:`metrics_prom`; both fold pending events in first.
    """

    def __init__(self) -> None:
        self.bus = ArenaBus()
        self.spans = SpanTracker()
        #: Set by the cluster layer when chunks ship over a telemetry
        #: plane (:class:`repro.cluster.obs_pipeline.PipelineShipping`).
        self.shipping = None
        self._registry = MetricsRegistry()
        #: How far into the bus's global order the metrics have caught up.
        self._cursor = StreamCursor()
        self._build_metrics()
        #: node name -> kernel, read at export time for the Perfetto timeline.
        self._kernels: dict[str, object] = {}

    def scoped(self, node: str) -> ScopedBus:
        """A bus view for one cluster node (stamps ``event.node``)."""
        return ScopedBus(self.bus, node)

    def add_kernel(self, node: str, kernel) -> None:
        """Register a node's kernel so its run segments and thread names
        reach the Perfetto timeline.

        Both are read at export time, never captured here: a
        ``TraceRecorder`` holds its most recent run in an open buffer
        that only a read of its ``segments`` property flushes, and
        threads are created as tasks are admitted, mid-run.
        """
        self._kernels[node] = kernel

    # -- derived views -----------------------------------------------------

    @property
    def events(self) -> list[ObsEvent]:
        """The full retained stream, materialized from the arenas."""
        return self.bus.materialize()

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry, caught up to the stream on every read.

        Only events emitted since the previous read are folded in, so a
        quiet epoch costs nothing and a long run is walked once in
        total, not once per reader.
        """
        for event in self.bus.materialize_since(self._cursor):
            self._update_metrics(event)
        return self._registry

    # -- the event -> metrics table ----------------------------------------

    def _build_metrics(self) -> None:
        r = self._registry
        self._m_switches = r.counter(
            "repro_context_switches_total",
            "Context switches by SwitchKind",
            ("node", "kind"),
        )
        self._m_switch_cost = r.counter(
            "repro_context_switch_cost_ticks_total",
            "Simulated ticks spent on context-switch overhead",
            ("node", "kind"),
        )
        self._m_admissions = r.counter(
            "repro_admissions_total",
            "Admission decisions by outcome",
            ("node", "outcome"),
        )
        self._m_headroom = r.gauge(
            "repro_headroom_ratio",
            "Uncommitted fraction of the schedulable capacity",
            ("node",),
        )
        self._m_degraded = r.gauge(
            "repro_degraded_tasks",
            "Tasks currently granted below their maximum entry",
            ("node",),
        )
        self._m_qos = r.gauge(
            "repro_qos_fraction",
            "Delivered fraction of requested top QOS",
            ("node",),
        )
        self._m_recomputes = r.counter(
            "repro_grant_recomputes_total",
            "Grant-set recomputations",
            ("node",),
        )
        self._m_recompute_size = r.histogram(
            "repro_grant_recompute_requests",
            "Admitted threads per grant-set recomputation",
            _SIZE_BUCKETS,
            ("node",),
        )
        self._m_policy = r.counter(
            "repro_policy_resolutions_total",
            "Policy Box resolutions (resolved vs invented)",
            ("node", "invented"),
        )
        self._m_policy_latency = r.histogram(
            "repro_policy_latency_ticks",
            "Sim-tick latency charged to policy-box consultation",
            _TICK_BUCKETS,
            ("node",),
        )
        self._m_periods = r.counter(
            "repro_periods_closed_total",
            "Periods closed, healthy or not",
            ("node",),
        )
        self._m_delivery_latency = r.histogram(
            "repro_grant_delivery_latency_ticks",
            "Ticks from period start to full grant delivery (completed periods)",
            _TICK_BUCKETS,
            ("node",),
        )
        self._m_misses = r.counter(
            "repro_deadline_misses_total",
            "Periods closed with the grant undelivered",
            ("node",),
        )
        self._m_voided = r.counter(
            "repro_voided_periods_total",
            "Periods voided by blocking (guarantee suspended)",
            ("node",),
        )
        self._m_grace = r.counter(
            "repro_grace_periods_total",
            "Controlled-preemption grace periods by outcome",
            ("node", "honoured"),
        )
        self._m_activations = r.counter(
            "repro_scheduler_activations_total",
            "Unallocated-time Resource Manager callbacks",
            ("node",),
        )
        self._m_rpc = r.counter(
            "repro_rpc_total",
            "MessageBus RPC hops by action and message kind",
            ("action", "kind"),
        )
        self._m_rpc_attempts = r.histogram(
            "repro_rpc_retry_attempts",
            "Transmissions per logical RPC at the point it was retried",
            _ATTEMPT_BUCKETS,
        )
        self._m_migrations = r.counter(
            "repro_migrations_total",
            "Broker migrations by outcome",
            ("outcome",),
        )
        self._m_violations = r.counter(
            "repro_sanitizer_violations_total",
            "Invariant sanitizer violations by rule",
            ("node", "rule"),
        )
        self._m_slo_alerts = r.counter(
            "repro_slo_alerts_total",
            "Rolling-window SLO alerts by objective name",
            ("slo",),
        )

    def _update_metrics(self, event: ObsEvent) -> None:
        kind = event.type
        if kind == "context-switch":
            self._m_switches.inc(node=event.node, kind=event.kind)
            self._m_switch_cost.inc(event.cost_ticks, node=event.node, kind=event.kind)
        elif kind == "admission":
            self._m_admissions.inc(node=event.node, outcome=event.outcome)
            self._m_headroom.set(event.headroom, node=event.node)
        elif kind == "grant-recompute":
            self._m_recomputes.inc(node=event.node)
            self._m_recompute_size.observe(event.requests, node=event.node)
            self._m_degraded.set(event.degraded, node=event.node)
            self._m_qos.set(event.qos_fraction, node=event.node)
            self._m_headroom.set(event.headroom, node=event.node)
            self._m_policy_latency.observe(event.latency_ticks, node=event.node)
        elif kind == "policy-resolution":
            self._m_policy.inc(
                node=event.node, invented="true" if event.invented else "false"
            )
        elif kind == "period-close":
            self._m_periods.inc(node=event.node)
            if event.completion >= 0 and event.start >= 0:
                self._m_delivery_latency.observe(
                    event.completion - event.start, node=event.node
                )
            if event.missed:
                self._m_misses.inc(node=event.node)
            if event.voided:
                self._m_voided.inc(node=event.node)
        elif kind == "grace-period":
            self._m_grace.inc(
                node=event.node, honoured="true" if event.honoured else "false"
            )
        elif kind == "activation":
            self._m_activations.inc(node=event.node)
        elif kind == "rpc":
            self._m_rpc.inc(action=event.action, kind=event.kind)
            if event.action == "retry":
                self._m_rpc_attempts.observe(event.attempt)
        elif kind == "migration":
            self._m_migrations.inc(outcome=event.outcome)
        elif kind == "violation":
            self._m_violations.inc(node=event.node, rule=event.rule)
        elif kind == "slo-alert":
            self._m_slo_alerts.inc(slo=event.slo)

    def load_signal(self, node: str) -> tuple[int, float, int, float]:
        """``node``'s observed load, caught up to the stream: cumulative
        deadline misses, QOS fraction, degraded tasks, headroom.

        This is everything the cluster's telemetry ships per node per
        epoch.  A node that has not recomputed a grant set yet is at
        full QOS and full headroom, not at the gauges' unset zero.
        """
        self.registry  # fold pending events in first
        return (
            int(self._m_misses.value(node=node)),
            self._m_qos.value(1.0, node=node),
            int(self._m_degraded.value(node=node)),
            self._m_headroom.value(1.0, node=node),
        )

    # -- loss accounting ---------------------------------------------------

    def loss_accounting(self) -> dict:
        """The shipping tier's accounting, or local ground truth.

        Without a shipping plane nothing was ever at risk in flight:
        every retained row counts as delivered and ring overwrites are
        the only drops, so the invariant
        ``emitted == delivered + dropped + sampled_out`` holds here
        exactly as it does at a cluster root.
        """
        if self.shipping is not None:
            return self.shipping.accounting()
        truth = self.bus.cum()
        local = RootCollector()
        for node, cum in truth.items():
            local.delivered[node] = {
                tag: emitted
                - cum["overwritten"].get(tag, 0)
                - cum["sampled_out"].get(tag, 0)
                for tag, emitted in cum["emitted"].items()
            }
        return local.accounting(truth=truth)

    # -- exports -----------------------------------------------------------

    def events_jsonl(self) -> str:
        return events_to_jsonl(self.events)

    def metrics_prom(self) -> str:
        return render_prometheus(self.registry)

    def perfetto_json(self, now: int) -> str:
        self.spans.finish_open(now)
        schedules = {
            node: (
                kernel.trace.segments,
                {t.tid: t.name for t in kernel.threads.values()},
            )
            for node, kernel in self._kernels.items()
        }
        return perfetto_trace_json(
            spans=self.spans.spans,
            schedules=schedules,
            events=self.events,
        )

    def write(self, directory: str | Path, now: int) -> dict[str, Path]:
        """Write the four artifacts (see the module docstring)."""
        if self.shipping is not None:
            self.shipping.finalize(now)
        accounting = self.loss_accounting()
        problems = check_loss_invariant(accounting)
        if problems:
            raise SimulationError(
                "pipeline loss accounting is inconsistent: "
                + "; ".join(problems)
            )
        texts = {
            "events": ("events.jsonl", self.events_jsonl()),
            "metrics": ("metrics.prom", self.metrics_prom()),
            "trace": ("trace.perfetto.json", self.perfetto_json(now)),
            "pipeline": (
                "pipeline.json",
                json.dumps(accounting, sort_keys=True, separators=(",", ":"))
                + "\n",
            ),
        }
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, (name, text) in texts.items():
            paths[key] = out / name
            paths[key].write_text(text, encoding="utf-8")
        return paths

    def summary(self) -> str:
        """One-paragraph operator view of what the session captured."""
        by_type: dict[str, int] = {}
        for arena in self.bus.arenas.values():
            for tag in arena.kinds:
                by_type[tag] = by_type.get(tag, 0) + arena.kind_emitted(tag)
        parts = [f"{name}={count}" for name, count in sorted(by_type.items())]
        return (
            f"obs: {self.bus.total_emitted} events "
            f"({', '.join(parts) if parts else 'none'}), "
            f"{len(self.spans.spans)} spans, "
            f"{len(self._registry.all_metrics())} metrics"
        )
