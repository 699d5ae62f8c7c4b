"""One observability session: arenas + metrics + spans + exporters.

An :class:`ObsSession` is what ``--obs-out DIR`` wires up: a single
columnar event bus (:class:`~repro.obs.pipeline.arena.ArenaBus`) shared
by every instrumented component, a metrics registry derived from the
recorded stream, and a span tracker for the cluster layer.  Recording is
one bound append per field per event, through the node's
:class:`~repro.obs.pipeline.arena.NodeScope`; nothing else happens on
the hot path.  Typed events and metrics are *views* over the arenas:

* :attr:`events` materializes the whole stream on demand;
* :attr:`registry` (and :meth:`metrics_prom`) first *catch up*: the
  session keeps a cursor into the bus's global emission order and folds
  the rows emitted since the previous read, straight from their
  columns, into the metrics — each (node, kind)'s pending rows in one
  call — never resetting a series.  Metrics
  registered on the same registry by other layers (the serve
  front-end's HTTP counters) live undisturbed beside the derived ones,
  and a mid-run reader (the cluster's per-node telemetry) sees exactly
  the stream so far.

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
from itertools import compress, repeat
from operator import eq
from pathlib import Path

from repro.errors import SimulationError
from repro.obs.events import FIELD_PLANS, ObsEvent
from repro.obs.log import events_to_jsonl
from repro.obs.perfetto import perfetto_trace_json
from repro.obs.pipeline.aggregate import RootCollector, check_loss_invariant
from repro.obs.pipeline.arena import ArenaBus, NodeScope
from repro.obs.prom import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracker

_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)
_TICK_BUCKETS = (0.0, 27.0, 270.0, 2_700.0, 27_000.0, 270_000.0, 2_700_000.0)
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Kinds that both set the headroom gauge, whose value is the last
#: writer's: their rows fold in stream order.
_ORDERED = frozenset({"admission", "grant-recompute"})

#: The kinds :meth:`ObsSession.load_signal`'s four numbers fold from.
_SIGNAL = ("period-close", "admission", "grant-recompute")


class ObsSession:
    """Everything one observed run accumulates.

    Metric values are read through :attr:`registry` (by name) or
    :meth:`metrics_prom`; both fold pending rows in first.
    """

    def __init__(self) -> None:
        self.bus = ArenaBus()
        self.spans = SpanTracker()
        #: Set by the cluster layer when chunks ship over a telemetry
        #: plane (:class:`repro.cluster.obs_pipeline.PipelineShipping`).
        self.shipping = None
        self._registry = MetricsRegistry()
        #: (node, kind) -> absolute rows the metrics have caught up on.
        self._passed: dict[tuple[str, str], int] = {}
        self._folders = self._build_metrics()
        #: node name -> kernel, read at export time for the Perfetto timeline.
        self._kernels: dict[str, object] = {}

    def scoped(self, node: str) -> NodeScope:
        """The bus's recording scope for one cluster node (its rows and
        node-less events carry ``node``)."""
        return self.bus.scope(node)

    def add_kernel(self, node: str, kernel) -> None:
        """Register a node's kernel so its run segments and thread names
        reach the Perfetto timeline.

        Both are read at export time, never captured here: a
        ``TraceRecorder``'s run on the CPU is its last segment row,
        extended in place as the run goes on, and threads are created
        as tasks are admitted, mid-run.
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

        Only rows emitted since the previous read are folded in, straight
        from the arena columns, so a quiet epoch costs nothing and a long
        run is walked once in total, not once per reader.
        """
        for node in self.bus.arenas:
            self._catch_up(node)
        return self._registry

    def _catch_up(self, node: str, tags=None) -> None:
        """Fold ``node``'s unread rows of ``tags`` (every kind when None),
        one call per kind.  The read position moves before any fold runs,
        so a failed fold does not fold its rows again on the next read."""
        folders = self._folders
        for kind, start, stop in self.bus._ranges(self._passed, node, tags, _ORDERED):
            folders[kind.tag](kind.columns, start, stop)

    # -- the event -> metrics table ----------------------------------------

    def _build_metrics(self) -> dict:
        """Register the derived metrics; return the event -> metric table:
        kind -> ``fold(columns, start, stop)``, folding the arena rows
        ``[start, stop)`` of one node (``columns``: field name -> column)
        through keyed updates with no event object.  Each label is the
        row field of the same name, checked here, once.  A kind's metrics
        are its own, except the headroom gauge the ``_ORDERED`` kinds
        both set: their ranges fold last writer last, row by row.
        """
        r = self._registry
        switches = r.counter(
            "repro_context_switches_total",
            "Context switches by SwitchKind",
            ("node", "kind"),
        )
        switch_cost = r.counter(
            "repro_context_switch_cost_ticks_total",
            "Simulated ticks spent on context-switch overhead",
            ("node", "kind"),
        )
        admissions = r.counter(
            "repro_admissions_total",
            "Admission decisions by outcome",
            ("node", "outcome"),
        )
        self._m_headroom = headroom = r.gauge(
            "repro_headroom_ratio",
            "Uncommitted fraction of the schedulable capacity",
            ("node",),
        )
        self._m_degraded = degraded = r.gauge(
            "repro_degraded_tasks",
            "Tasks currently granted below their maximum entry",
            ("node",),
        )
        self._m_qos = qos = r.gauge(
            "repro_qos_fraction",
            "Delivered fraction of requested top QOS",
            ("node",),
        )
        recomputes = r.counter(
            "repro_grant_recomputes_total",
            "Grant-set recomputations",
            ("node",),
        )
        sizes = r.histogram(
            "repro_grant_recompute_requests",
            "Admitted threads per grant-set recomputation",
            _SIZE_BUCKETS,
            ("node",),
        )
        policy = r.counter(
            "repro_policy_resolutions_total",
            "Policy Box resolutions (resolved vs invented)",
            ("node", "invented"),
        )
        latency = r.histogram(
            "repro_policy_latency_ticks",
            "Sim-tick latency charged to policy-box consultation",
            _TICK_BUCKETS,
            ("node",),
        )
        periods = r.counter(
            "repro_periods_closed_total",
            "Periods closed, healthy or not",
            ("node",),
        )
        delivery_latency = r.histogram(
            "repro_grant_delivery_latency_ticks",
            "Ticks from period start to full grant delivery (completed periods)",
            _TICK_BUCKETS,
            ("node",),
        )
        self._m_misses = misses = r.counter(
            "repro_deadline_misses_total",
            "Periods closed with the grant undelivered",
            ("node",),
        )
        voided = r.counter(
            "repro_voided_periods_total",
            "Periods voided by blocking (guarantee suspended)",
            ("node",),
        )
        grace = r.counter(
            "repro_grace_periods_total",
            "Controlled-preemption grace periods by outcome",
            ("node", "honoured"),
        )
        activations = r.counter(
            "repro_scheduler_activations_total",
            "Unallocated-time Resource Manager callbacks",
            ("node",),
        )
        rpc = r.counter(
            "repro_rpc_total",
            "MessageBus RPC hops by action and message kind",
            ("action", "kind"),
        )
        rpc_attempts = r.histogram(
            "repro_rpc_retry_attempts",
            "Transmissions per logical RPC at the point it was retried",
            _ATTEMPT_BUCKETS,
        )
        migrations = r.counter(
            "repro_migrations_total",
            "Broker migrations by outcome",
            ("outcome",),
        )
        violations = r.counter(
            "repro_sanitizer_violations_total",
            "Invariant sanitizer violations by rule",
            ("node", "rule"),
        )
        slo_alerts = r.counter(
            "repro_slo_alerts_total",
            "Rolling-window SLO alerts by objective name",
            ("slo",),
        )

        table = dict.fromkeys(FIELD_PLANS, lambda c, start, stop: None)

        def folds(tag: str, *metrics):
            """Enter ``tag``'s fold once its rows carry every label of ``metrics``."""
            for metric in metrics:
                missing = set(metric.label_names).difference(FIELD_PLANS[tag])
                if missing:
                    raise SimulationError(
                        f"{tag} rows cannot key {metric.name} by {sorted(missing)}"
                    )

            def enter(fold):
                table[tag] = fold
                return fold

            return enter

        def each_row(fold):
            """A range fold that folds its rows one at a time, in order."""

            def fold_rows(c, start, stop):
                for row in range(start, stop):
                    fold(c, row)

            return fold_rows

        @folds("context-switch", switches, switch_cost)
        def context_switch(c, start, stop):
            node = str(c["node"][start])
            kinds = list(map(str, c["kind"][start:stop]))
            costs = c["cost_ticks"][start:stop]
            for kind in dict.fromkeys(kinds):
                key = (node, kind)
                switches.inc_key(key, kinds.count(kind))
                switch_cost.inc_each(
                    key, list(compress(costs, map(eq, kinds, repeat(kind))))
                )

        @folds("admission", admissions, headroom)
        @each_row
        def admission(c, row):
            node = str(c["node"][row])
            admissions.inc_key((node, str(c["outcome"][row])))
            headroom.set_key((node,), c["headroom"][row])

        @folds("grant-recompute", recomputes, sizes, degraded, qos, headroom, latency)
        @each_row
        def grant_recompute(c, row):
            key = (str(c["node"][row]),)
            recomputes.inc_key(key)
            sizes.observe_each(key, (c["requests"][row],))
            degraded.set_key(key, c["degraded"][row])
            qos.set_key(key, c["qos_fraction"][row])
            headroom.set_key(key, c["headroom"][row])
            latency.observe_each(key, (c["latency_ticks"][row],))

        @folds("period-close", periods, delivery_latency, misses, voided)
        def period_close(c, start, stop):
            key = (str(c["node"][start]),)
            periods.inc_key(key, stop - start)
            delivery_latency.observe_each(
                key,
                [
                    done - begun
                    for begun, done in zip(
                        c["start"][start:stop], c["completion"][start:stop]
                    )
                    if done >= 0 and begun >= 0
                ],
            )
            for metric, flags in ((misses, c["missed"]), (voided, c["voided"])):
                flagged = sum(map(bool, flags[start:stop]))
                if flagged:
                    metric.inc_key(key, flagged)

        @folds("rpc", rpc, rpc_attempts)
        def rpc_hops(c, start, stop):
            actions = c["action"][start:stop]
            keys = list(zip(map(str, actions), map(str, c["kind"][start:stop])))
            for key in dict.fromkeys(keys):
                rpc.inc_key(key, keys.count(key))
            retried = map(eq, actions, repeat("retry"))
            rpc_attempts.observe_each(
                (), list(compress(c["attempt"][start:stop], retried))
            )

        @folds("policy-resolution", policy)
        @each_row
        def policy_resolution(c, row):
            invented = "true" if c["invented"][row] else "false"
            policy.inc_key((str(c["node"][row]), invented))

        @folds("grace-period", grace)
        @each_row
        def grace_period(c, row):
            honoured = "true" if c["honoured"][row] else "false"
            grace.inc_key((str(c["node"][row]), honoured))

        def count(tag, metric):
            """One per row, keyed by the fields named like its labels."""
            labels = metric.label_names
            folds(tag, metric)(
                each_row(
                    lambda c, row: metric.inc_key(
                        tuple(str(c[n][row]) for n in labels)
                    )
                )
            )

        count("activation", activations)
        count("migration", migrations)
        count("violation", violations)
        count("slo-alert", slo_alerts)
        return table

    def load_signal(self, node: str) -> tuple[int, float, int, float]:
        """``node``'s observed load, caught up to the stream: cumulative
        deadline misses, QOS fraction, degraded tasks, headroom.

        This is everything the cluster's telemetry ships per node per
        epoch, so only ``node``'s rows of the kinds these metrics fold
        from are caught up here; the rest wait for a :attr:`registry`
        read.  A node that has not recomputed a grant set yet is at full
        QOS and full headroom, not at the gauges' unset zero.
        """
        self._catch_up(node, _SIGNAL)
        key = (node,)
        return (
            int(self._m_misses.value_key(key)),
            self._m_qos.value_key(key, 1.0),
            int(self._m_degraded.value_key(key)),
            self._m_headroom.value_key(key, 1.0),
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
