"""End to end through the core hooks: one ResourceDistributor run with an
ObsSession attached — event streams, metrics, sanitizer round-trip,
and byte-identical same-seed artifacts."""

import json

import pytest

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.errors import AdmissionError
from repro.obs.session import ObsSession
from repro.scenarios import figure5
from repro.workloads import single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


def of_type(session, tag):
    return [e for e in session.events if e.type == tag]


def observed_rd(**kwargs):
    session = ObsSession()
    rd = ResourceDistributor(
        machine=MachineConfig(), sim=SimConfig(seed=7), obs=session, **kwargs
    )
    return session, rd


class TestCoreHooks:
    def test_admissions_and_grants_become_events(self):
        session, rd = observed_rd()
        rd.admit(single_entry_definition("video", 30, 0.4))
        rd.admit(single_entry_definition("audio", 30, 0.2))
        rd.run_for(ms(100))
        admissions = of_type(session, "admission")
        assert [e.task for e in admissions] == ["video", "audio"]
        assert all(e.outcome == "accepted" for e in admissions)
        assert of_type(session, "grant-recompute")
        assert of_type(session, "grant-change")
        assert of_type(session, "context-switch")
        # Reading the registry folds the recorded stream into metrics.
        registry = session.registry
        admitted = registry.get("repro_admissions_total")
        assert admitted.value(node="", outcome="accepted") == 2
        switches = registry.get("repro_context_switches_total")
        total = sum(value for _, value in switches.series())
        assert total == len(of_type(session, "context-switch"))

    def test_denied_admission_is_recorded_before_the_raise(self):
        session, rd = observed_rd()
        rd.admit(single_entry_definition("big0", 30, 0.6))
        with pytest.raises(AdmissionError):
            rd.admit(single_entry_definition("big1", 30, 0.6))
        denied = [
            e for e in of_type(session, "admission") if e.outcome == "denied"
        ]
        assert len(denied) == 1
        assert denied[0].task == "big1"
        assert denied[0].error != ""
        admissions = session.registry.get("repro_admissions_total")
        assert admissions.value(node="", outcome="denied") == 1


class TestViolationRoundTrip:
    def test_injected_violation_reaches_events_jsonl(self):
        """Satellite: a sanitizer violation becomes a structured obs
        event (severity=error) and survives into events.jsonl."""
        session, rd = observed_rd(sanitize=True, sanitize_strict=False)
        thread = rd.admit(single_entry_definition("video", 30, 0.4))
        # Inject through the public hook: the first period (ending at
        # 30 ms) closing with the grant undelivered breaks the
        # per-period guarantee.
        rd.run_for(ms(1))
        assert (thread.period_index, thread.deadline) == (0, ms(30))
        rd.sanitizer.on_period_close(thread, ms(12), ms(5), True)
        assert not rd.sanitizer.ok  # non-strict: collected, not raised
        violations = of_type(session, "violation")
        assert len(violations) == 1
        assert violations[0].rule == "grant-delivery"
        assert violations[0].severity == "error"
        assert violations[0].time == ms(30)
        lines = [json.loads(l) for l in session.events_jsonl().splitlines()]
        wire = [d for d in lines if d["type"] == "violation"]
        assert len(wire) == 1
        assert "guarantee" in wire[0]["detail"]
        flagged = session.registry.get("repro_sanitizer_violations_total")
        assert flagged.value(node="", rule="grant-delivery") == 1


class TestDeterminism:
    def test_same_seed_runs_write_identical_artifacts(self):
        def run():
            session = ObsSession()
            scenario = figure5(seed=11, obs=session)
            scenario.run_for(ms(120))
            session.add_kernel("", scenario.rd.kernel)
            return (
                session.events_jsonl(),
                session.metrics_prom(),
                session.perfetto_json(scenario.rd.kernel.now),
            )

        assert run() == run()
