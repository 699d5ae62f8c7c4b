"""ObsSession: event->metric bookkeeping, artifact writing, summaries."""

import json

import pytest

from repro.obs.events import (
    AdmissionEvent,
    GraceEvent,
    GrantRecomputeEvent,
    MigrationEvent,
    PeriodCloseEvent,
    RpcEvent,
    SwitchEvent,
    ViolationEvent,
)
from repro.obs.session import ObsSession


@pytest.fixture
def session():
    return ObsSession()


class TestMetricsSubscriber:
    """Values are read through ``session.registry``: the read is what
    folds the emitted events into the metrics."""

    def test_switch_events_feed_count_and_cost(self, session):
        session.bus.emit(SwitchEvent(time=1, kind="preempt", cost_ticks=189))
        session.bus.emit(SwitchEvent(time=2, kind="preempt", cost_ticks=189))
        get = session.registry.get
        labels = {"node": "", "kind": "preempt"}
        assert get("repro_context_switches_total").value(**labels) == 2
        assert get("repro_context_switch_cost_ticks_total").value(**labels) == 378

    def test_admission_events_feed_outcomes_and_headroom(self, session):
        session.bus.emit(AdmissionEvent(time=1, outcome="accepted", headroom=0.4))
        session.bus.emit(AdmissionEvent(time=2, outcome="denied", headroom=0.4))
        get = session.registry.get
        admissions = get("repro_admissions_total")
        assert admissions.value(node="", outcome="accepted") == 1
        assert admissions.value(node="", outcome="denied") == 1
        assert get("repro_headroom_ratio").value(node="") == pytest.approx(0.4)

    def test_recompute_events_feed_gauges_and_histograms(self, session):
        session.bus.emit(
            GrantRecomputeEvent(
                time=1, requests=3, degraded=1, qos_fraction=0.8, headroom=0.1
            )
        )
        get = session.registry.get
        assert get("repro_grant_recomputes_total").value(node="") == 1
        assert get("repro_grant_recompute_requests").count(node="") == 1
        assert get("repro_degraded_tasks").value(node="") == 1
        assert get("repro_qos_fraction").value(node="") == pytest.approx(0.8)

    def test_period_close_counts_only_misses_and_voids(self, session):
        session.bus.emit(PeriodCloseEvent(time=1, missed=True))
        session.bus.emit(PeriodCloseEvent(time=2, voided=True))
        session.bus.emit(PeriodCloseEvent(time=3))
        get = session.registry.get
        assert get("repro_deadline_misses_total").value(node="") == 1
        assert get("repro_voided_periods_total").value(node="") == 1

    def test_rpc_retry_attempts_feed_the_histogram(self, session):
        session.bus.emit(RpcEvent(time=1, action="send", kind="admit"))
        session.bus.emit(RpcEvent(time=2, action="retry", kind="admit", attempt=2))
        get = session.registry.get
        assert get("repro_rpc_total").value(action="send", kind="admit") == 1
        assert get("repro_rpc_total").value(action="retry", kind="admit") == 1
        assert get("repro_rpc_retry_attempts").count() == 1
        assert get("repro_rpc_retry_attempts").sum() == 2

    def test_grace_migration_violation_counters(self, session):
        session.bus.emit(GraceEvent(time=1, honoured=False))
        session.bus.emit(MigrationEvent(time=2, outcome="completed"))
        session.bus.emit(ViolationEvent(time=3, rule="edf-order"))
        get = session.registry.get
        assert get("repro_grace_periods_total").value(node="", honoured="false") == 1
        assert get("repro_migrations_total").value(outcome="completed") == 1
        violations = get("repro_sanitizer_violations_total")
        assert violations.value(node="", rule="edf-order") == 1


class TestExports:
    def test_events_jsonl_matches_collected_events(self, session):
        session.bus.emit(SwitchEvent(time=5))
        assert len(session.events) == 1
        line = session.events_jsonl().strip()
        assert json.loads(line)["type"] == "context-switch"

    def test_write_emits_the_three_artifacts(self, session, tmp_path):
        session.bus.emit(AdmissionEvent(time=1, task="a"))
        paths = session.write(tmp_path / "obs", now=100)
        assert paths["events"].name == "events.jsonl"
        assert paths["metrics"].name == "metrics.prom"
        assert paths["trace"].name == "trace.perfetto.json"
        for path in paths.values():
            assert path.exists()
        assert "repro_admissions_total" in paths["metrics"].read_text()
        json.loads(paths["trace"].read_text())  # well-formed

    def test_write_closes_open_spans_at_now(self, session, tmp_path):
        session.spans.start("place:x", 10)
        session.write(tmp_path, now=250)
        assert session.spans.spans[0].end == 250

    def test_schedule_names_may_be_deferred(self, session):
        """A kernel's threads are read at export time — they are
        created mid-run, after the kernel is registered."""
        from types import SimpleNamespace

        kernel = SimpleNamespace(trace=SimpleNamespace(segments=[]), threads={})
        session.add_kernel("node00", kernel)
        kernel.threads[1] = SimpleNamespace(tid=1, name="late-thread")
        doc = json.loads(session.perfetto_json(now=0))
        thread_meta = [
            e for e in doc["traceEvents"] if e.get("name") == "thread_name"
        ]
        assert thread_meta[0]["args"]["name"] == "late-thread"

    def test_summary_counts_by_type(self, session):
        session.bus.emit(SwitchEvent(time=1))
        session.bus.emit(SwitchEvent(time=2))
        session.bus.emit(AdmissionEvent(time=3))
        text = session.summary()
        assert "3 events" in text
        assert "context-switch=2" in text
        assert "admission=1" in text
