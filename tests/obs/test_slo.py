"""SLO specs: TOML parsing/validation, offline evaluation, the
streaming engine's transition-edge alerting, and burn rates."""

import pytest

from repro.errors import SimulationError
from repro.obs.analysis import (
    SloEngine,
    build_timelines,
    evaluate_slos,
    load_slo_file,
    parse_slo_toml,
)
from repro.obs.analysis.slo import BURN_RATE_CAP, _burn_rate
from repro.obs.events import (
    AdmissionEvent,
    PeriodCloseEvent,
    ViolationEvent,
)
from repro.obs.pipeline.arena import ArenaBus


def spec_toml(**overrides):
    table = {
        "name": "grants",
        "metric": "grant_delivery_ratio",
        "op": ">=",
        "threshold": 1.0,
        "per": "task",
    }
    table.update(overrides)
    lines = ["[[slo]]"]
    for key, value in table.items():
        if isinstance(value, str):
            lines.append(f'{key} = "{value}"')
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def close(thread_id, index, start, deadline, *, missed=False, voided=False,
          completion=None, node=""):
    if completion is None:
        completion = -1 if missed or voided else start + (deadline - start) // 2
    return PeriodCloseEvent(
        time=deadline, node=node, thread_id=thread_id, period_index=index,
        start=start, completion=completion, granted=100,
        delivered=40 if missed else 100, missed=missed, voided=voided,
    )


class TestParsing:
    def test_full_spec_round_trips(self):
        (spec,) = parse_slo_toml(
            spec_toml(window_periods=7, description="headline guarantee")
        )
        assert spec.name == "grants"
        assert spec.metric == "grant_delivery_ratio"
        assert (spec.op, spec.threshold) == (">=", 1.0)
        assert spec.window_periods == 7
        assert spec.description == "headline guarantee"

    def test_defaults(self):
        (spec,) = parse_slo_toml(
            '[[slo]]\nname = "n"\nmetric = "deadline_misses"\nthreshold = 0\n'
        )
        assert (spec.op, spec.per, spec.window_periods) == ("<=", "task", 20)

    @pytest.mark.parametrize(
        "toml, match",
        [
            ("", r"expected at least one \[\[slo\]\]"),
            ("not toml [", "invalid TOML"),
            (spec_toml(name=""), "'name' is required"),
            (spec_toml() + spec_toml(), "duplicate slo name"),
            (spec_toml(metric="bogus"), "unknown metric 'bogus'"),
            (spec_toml(op="!="), "unknown op"),
            (spec_toml(per="rack"), "'per' must be task, node, or fleet"),
            (spec_toml(window_periods=0), "positive integer"),
            (spec_toml(window_periods=2.5), "positive integer"),
            (
                spec_toml(metric="violations"),
                "node/fleet-scoped",
            ),
        ],
    )
    def test_invalid_specs_are_rejected(self, toml, match):
        with pytest.raises(SimulationError, match=match):
            parse_slo_toml(toml)

    def test_threshold_must_be_a_number(self):
        bad = '[[slo]]\nname = "n"\nmetric = "deadline_misses"\nthreshold = "x"\n'
        with pytest.raises(SimulationError, match="'threshold' must be a number"):
            parse_slo_toml(bad)

    def test_percentile_metric_names_parse(self):
        text = spec_toml(metric="p95_delivery_latency_ticks", op="<=", threshold=500)
        assert parse_slo_toml(text)[0].metric == "p95_delivery_latency_ticks"

    def test_load_slo_file_missing(self, tmp_path):
        with pytest.raises(SimulationError, match="no SLO spec"):
            load_slo_file(tmp_path / "slo.toml")

    def test_load_slo_file(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(spec_toml(), encoding="utf-8")
        assert len(load_slo_file(path)) == 1


class TestBurnRate:
    def test_at_objective_is_one(self):
        assert _burn_rate(1.0, 1.0, ">=") == 1.0
        assert _burn_rate(5.0, 5.0, "<=") == 1.0

    def test_direction(self):
        assert _burn_rate(0.5, 1.0, ">=") == 2.0  # delivering half the promise
        assert _burn_rate(4.0, 2.0, "<=") == 2.0  # double the latency budget
        assert _burn_rate(2.0, 1.0, ">=") == 0.5  # over-delivering

    def test_zero_division_is_capped(self):
        assert _burn_rate(0.0, 1.0, ">=") == BURN_RATE_CAP
        assert _burn_rate(3.0, 0.0, "<=") == BURN_RATE_CAP
        assert _burn_rate(0.0, 0.0, "<=") == 1.0


class TestOfflineEvaluation:
    def test_per_task_ratio_flags_the_missing_task(self):
        events = [
            AdmissionEvent(time=0, task="good", thread_id=1),
            AdmissionEvent(time=0, task="bad", thread_id=2),
            close(1, 0, 0, 100),
            close(2, 0, 0, 100, missed=True),
        ]
        specs = parse_slo_toml(spec_toml())
        results = evaluate_slos(specs, build_timelines(events), events)
        by_subject = {r.subject: r for r in results}
        assert by_subject["good"].ok and by_subject["good"].value == 1.0
        assert not by_subject["bad"].ok and by_subject["bad"].value == 0.0
        assert by_subject["bad"].burn_rate == BURN_RATE_CAP

    def test_fleet_scope_pools_every_period(self):
        events = [close(1, 0, 0, 100, node="n0"), close(2, 0, 0, 100, node="n1",
                                                        missed=True)]
        specs = parse_slo_toml(
            spec_toml(metric="deadline_misses", op="<=", threshold=0, per="fleet")
        )
        (result,) = evaluate_slos(specs, build_timelines(events), events)
        assert result.subject == "fleet"
        assert result.value == 1.0
        assert not result.ok

    def test_violations_metric_counts_per_node(self):
        events = [
            ViolationEvent(time=5, node="n0", rule="r", detail="d"),
            ViolationEvent(time=6, node="n0", rule="r", detail="d"),
        ]
        specs = parse_slo_toml(
            spec_toml(metric="violations", op="<=", threshold=0, per="node")
        )
        results = evaluate_slos(specs, [], events)
        by_subject = {r.subject: r for r in results}
        assert by_subject["n0"].value == 2.0 and not by_subject["n0"].ok


class TestStreamingEngine:
    def feed(self, engine_bus, events):
        for event in events:
            engine_bus.emit(event)

    def test_alert_fires_on_transition_only(self):
        bus = ArenaBus()
        engine = SloEngine(bus, parse_slo_toml(spec_toml(window_periods=4)))
        self.feed(bus, [
            AdmissionEvent(time=0, task="video", thread_id=1),
            close(1, 0, 0, 100),
            close(1, 1, 100, 200, missed=True),   # ratio drops: one alert
            close(1, 2, 200, 300, missed=True),   # still violating: no new alert
        ])
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.slo == "grants" and alert.subject == "video"
        assert alert.value == pytest.approx(0.5)
        assert alert.type == "slo-alert"

    def test_alert_lands_on_the_bus_it_watches(self):
        bus = ArenaBus()
        seen = []
        bus.subscribe(seen.append)
        SloEngine(bus, parse_slo_toml(spec_toml()))
        self.feed(bus, [close(1, 0, 0, 100, missed=True)])
        assert [e.type for e in seen] == ["period-close", "slo-alert"]

    def test_recovery_rearms_the_alarm(self):
        bus = ArenaBus()
        engine = SloEngine(bus, parse_slo_toml(spec_toml(window_periods=1)))
        self.feed(bus, [
            close(1, 0, 0, 100, missed=True),   # violate: alert 1
            close(1, 1, 100, 200),              # window of 1 recovers
            close(1, 2, 200, 300, missed=True),  # violate again: alert 2
        ])
        assert len(engine.alerts) == 2

    def test_rolling_window_forgets_old_misses(self):
        bus = ArenaBus()
        engine = SloEngine(bus, parse_slo_toml(spec_toml(window_periods=2)))
        self.feed(bus, [
            close(1, 0, 0, 100, missed=True),
            close(1, 1, 100, 200),
            close(1, 2, 200, 300),  # miss fell out of the 2-period window
        ])
        assert len(engine.alerts) == 1
        assert not engine._violating[("grants", "thread-1")]

    def test_scope_metric_alerts_cumulatively(self):
        bus = ArenaBus()
        engine = SloEngine(
            bus,
            parse_slo_toml(
                spec_toml(metric="violations", op="<=", threshold=1, per="fleet")
            ),
        )
        self.feed(bus, [
            ViolationEvent(time=5, rule="r", detail="d"),       # at threshold: ok
            ViolationEvent(time=6, rule="r", detail="d"),       # second: alert
            ViolationEvent(time=7, rule="r", detail="d"),       # still violating
        ])
        assert len(engine.alerts) == 1
        assert engine.alerts[0].value == 2.0

    def test_engine_ignores_its_own_alerts(self):
        bus = ArenaBus()
        engine = SloEngine(bus, parse_slo_toml(spec_toml(window_periods=1)))
        self.feed(bus, [close(1, 0, 0, 100, missed=True)])
        # The alert was emitted onto the bus the engine subscribes to; a
        # feedback loop would recurse or double-count.
        assert len(engine.alerts) == 1

    def test_subjects_use_admitted_names_per_node(self):
        bus = ArenaBus()
        engine = SloEngine(bus, parse_slo_toml(spec_toml()))
        self.feed(bus, [
            AdmissionEvent(time=0, task="video", thread_id=1, node="n3"),
            close(1, 0, 0, 100, missed=True, node="n3"),
        ])
        assert engine.alerts[0].subject == "n3/video"
