"""ScenarioSpec / trace-format unit tests: validation, round-tripping
through the trace file, and loud schema-version rejection."""

import json

import pytest

from repro import units
from repro.fuzz import (
    TRACE_SCHEMA_VERSION,
    ClusterSpec,
    LevelSpec,
    ScenarioSpec,
    SpecError,
    SporadicSpec,
    TaskSpec,
    TraceFile,
    load_trace,
    write_trace,
)


def make_spec(**overrides) -> ScenarioSpec:
    task = TaskSpec(
        name="a",
        behavior="follower",
        levels=(
            LevelSpec(units.ms_to_ticks(10), units.ms_to_ticks(3)),
            LevelSpec(units.ms_to_ticks(10), units.ms_to_ticks(1)),
        ),
        arrival_ticks=0,
    )
    base = dict(
        seed=7,
        horizon_ticks=units.ms_to_ticks(100),
        machine="ideal",
        tasks=(task,),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_valid_spec_chains(self):
        spec = make_spec()
        assert spec.validate() is spec

    def test_bad_horizon(self):
        with pytest.raises(SpecError, match="horizon"):
            make_spec(horizon_ticks=0).validate()

    def test_unknown_machine(self):
        with pytest.raises(SpecError, match="machine"):
            make_spec(machine="vapor").validate()

    def test_duplicate_names(self):
        task = make_spec().tasks[0]
        with pytest.raises(SpecError, match="duplicate"):
            make_spec(tasks=(task, task)).validate()

    def test_unknown_behavior(self):
        task = make_spec().tasks[0]
        bad = TaskSpec(
            name="b",
            behavior="chaotic",
            levels=task.levels,
            arrival_ticks=0,
        )
        with pytest.raises(SpecError, match="behavior"):
            make_spec(tasks=(bad,)).validate()

    def test_departure_before_arrival(self):
        task = make_spec().tasks[0]
        bad = TaskSpec(
            name="b",
            behavior="follower",
            levels=task.levels,
            arrival_ticks=100,
            departure_ticks=50,
        )
        with pytest.raises(SpecError, match="departure"):
            make_spec(tasks=(bad,)).validate()

    def test_sporadic_needs_server(self):
        source = TaskSpec(
            name="sp",
            behavior="follower",
            levels=(),
            arrival_ticks=0,
            sporadic=SporadicSpec(
                interarrival_ticks=units.ms_to_ticks(10),
                jitter_ticks=units.us_to_ticks(100),
                burst_ticks=units.us_to_ticks(200),
            ),
        )
        with pytest.raises(SpecError, match="Sporadic Server"):
            make_spec(tasks=(source,), server=False).validate()
        make_spec(tasks=(source,), server=True).validate()

    def test_cluster_bounds(self):
        with pytest.raises(SpecError, match="nodes"):
            make_spec(cluster=ClusterSpec(nodes=0)).validate()
        with pytest.raises(SpecError, match="drop_rate"):
            make_spec(cluster=ClusterSpec(nodes=2, drop_rate=1.0)).validate()

    def test_min_rate_sum_counts_periodic_only(self):
        spec = make_spec()
        assert spec.min_rate_sum == pytest.approx(0.1)


class TestRoundTrip:
    def test_json_round_trip_is_identity(self, tmp_path):
        spec = make_spec(
            server=True,
            cluster=ClusterSpec(nodes=3, drop_rate=0.05),
            notes={"mode": "test"},
        )
        first = write_trace(tmp_path / "a.trace.json", TraceFile(spec))
        again = load_trace(first).spec
        assert again == spec
        second = write_trace(tmp_path / "b.trace.json", TraceFile(again))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_json_is_a_spec_error(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_trace(path)
        path.write_text("[1, 2]")
        with pytest.raises(SpecError, match="object"):
            load_trace(path)

    def test_decoding_coerces_and_takes_dataclass_defaults(self):
        data = {
            "seed": "7",
            "horizon_ticks": 1000.0,
            "machine": "ideal",
            "tasks": [
                {
                    "name": "a",
                    "behavior": "follower",
                    "levels": [{"period_ticks": 100, "cpu_ticks": 10}],
                    "arrival_ticks": 0,
                    "quiescent_spans": [[10, 20]],
                }
            ],
            "cluster": {"nodes": 2},
        }
        spec = ScenarioSpec.from_dict(data)
        assert spec.seed == 7 and spec.horizon_ticks == 1000
        assert spec.tasks[0].quiescent_spans == ((10, 20),)
        assert spec.tasks[0].departure_ticks is None
        assert spec.cluster == ClusterSpec(nodes=2)
        assert spec.server is False and spec.notes == {}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["tasks"][0].pop("behavior"), r"tasks\[0\]\.behavior is missing"),
            (lambda d: d.update(tasks=5), "tasks must be a list"),
            (lambda d: d.pop("seed"), "seed is missing"),
            (lambda d: d["tasks"][0].update(arrival_ticks="soon"), "arrival_ticks must be int"),
            (lambda d: d["tasks"][0].update(levels=[7]), r"levels\[0\] must be an object"),
            (lambda d: d["tasks"][0].update(quiescent_spans=[[1]]), "must have 2 items"),
            (lambda d: d.update(cluster={"policy": "aimd"}), r"cluster\.nodes is missing"),
        ],
        ids=[
            "missing-behavior", "tasks-not-a-list", "missing-seed", "mistyped-int",
            "level-not-an-object", "short-span", "cluster-without-nodes",
        ],
    )
    def test_missing_or_mistyped_field_is_a_spec_error(self, edit, message):
        data = make_spec().to_dict()
        edit(data)
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)


class TestTraceFile:
    def test_write_load_round_trip(self, tmp_path):
        trace = TraceFile(
            spec=make_spec(),
            expect="invariant:edf-order",
            inject="edf-invert",
            meta={"note": "unit test"},
        )
        path = write_trace(tmp_path / "t.trace.json", trace)
        loaded = load_trace(path)
        assert loaded == trace

    def test_future_schema_version_is_rejected(self, tmp_path):
        trace = TraceFile(spec=make_spec())
        path = write_trace(tmp_path / "t.trace.json", trace)
        data = json.loads(path.read_text())
        data["schema_version"] = TRACE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError, match="newer repro"):
            load_trace(path)

    def test_wrong_kind_is_rejected(self, tmp_path):
        trace = TraceFile(spec=make_spec())
        path = write_trace(tmp_path / "t.trace.json", trace)
        data = json.loads(path.read_text())
        data["kind"] = "repro.obs.events"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError, match="not a fuzz trace"):
            load_trace(path)

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(SpecError, match="no trace file"):
            load_trace(tmp_path / "absent.trace.json")

    def test_a_bad_field_names_the_file_and_the_path(self, tmp_path):
        path = write_trace(tmp_path / "t.trace.json", TraceFile(spec=make_spec()))
        data = json.loads(path.read_text())
        del data["spec"]["tasks"][0]["levels"]
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError) as raised:
            load_trace(path)
        assert str(raised.value) == f"{path}: spec: tasks[0].levels is missing"

    def test_committed_corpus_writes_back_byte_identical(self, tmp_path):
        from pathlib import Path

        corpus = sorted((Path(__file__).parent / "corpus").glob("*.trace.json"))
        assert corpus
        for path in corpus:
            again = write_trace(tmp_path / path.name, load_trace(path))
            assert again.read_bytes() == path.read_bytes(), path.name
