"""The profiler: deterministic phase books, report/diff rendering, and
the determinism contracts (same-seed count tables byte-diff equal, the
rack capture's count table pinned; ``--profile`` never perturbs the obs
artifacts)."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prof import (
    PROF_SCHEMA_VERSION,
    PhaseProfiler,
    ProfSession,
    diff_profiles,
    load_profile,
    render_diff_json,
    render_diff_markdown,
    render_json,
    render_markdown,
)
from repro.obs.session import ObsSession
from repro.scenarios import cluster_rack


class ScriptedClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestPhaseProfiler:
    def test_counts_and_flat_timing(self):
        clock = ScriptedClock()
        prof = PhaseProfiler(clock=clock)
        prof.begin("a")
        clock.now += 100
        prof.end("a")
        prof.begin("a")
        clock.now += 50
        prof.end("a")
        assert prof.count_table() == {"a": 2}
        assert prof.self_ns["a"] == 150
        assert prof.cum_ns["a"] == 150

    def test_nested_phase_splits_self_and_cumulative(self):
        clock = ScriptedClock()
        prof = PhaseProfiler(clock=clock)
        prof.begin("outer")
        clock.now += 10
        prof.begin("inner")
        clock.now += 30
        prof.end("inner")
        clock.now += 5
        prof.end("outer")
        # outer: 45 elapsed, 30 of it inside inner.
        assert prof.self_ns == {"outer": 15, "inner": 30}
        assert prof.cum_ns == {"outer": 45, "inner": 30}

    def test_recursion_counts_cumulative_once(self):
        clock = ScriptedClock()
        prof = PhaseProfiler(clock=clock)
        prof.begin("f")
        clock.now += 10
        prof.begin("f")
        clock.now += 20
        prof.end("f")
        clock.now += 10
        prof.end("f")
        assert prof.counts["f"] == 2
        # Self time sums both frames; cumulative only the outermost.
        assert prof.self_ns["f"] == 40
        assert prof.cum_ns["f"] == 40

    def test_unbalanced_inner_frames_are_unwound(self):
        clock = ScriptedClock()
        prof = PhaseProfiler(clock=clock)
        prof.begin("outer")
        prof.begin("leaked")  # its hook never reached end()
        clock.now += 10
        prof.end("outer")
        assert prof.count_table() == {"leaked": 1, "outer": 1}
        assert not prof._stack

    def test_finish_settles_open_frames(self):
        clock = ScriptedClock()
        prof = PhaseProfiler(clock=clock)
        prof.begin("open")
        clock.now += 7
        prof.finish()
        assert prof.cum_ns["open"] == 7
        assert prof.timing_table()["open"]["calls"] == 1

    def test_profiler_is_truthy_for_the_hook_guard(self):
        assert PhaseProfiler()

    def test_snapshot_reports_open_frames(self):
        prof = PhaseProfiler(clock=ScriptedClock())
        prof.begin("a")
        snap = prof.snapshot()
        assert snap["open_frames"] == 1
        assert snap["phases"]["a"]["calls"] == 1


class TestProfSession:
    def _write(self, tmp_path, clock=None):
        session = ProfSession(clock=clock)
        session.phases.begin("kernel.dispatch")
        session.phases.end("kernel.dispatch")
        return session.write(tmp_path / "prof", sim_ticks=27_000_000)

    def test_write_lays_down_both_artifacts(self, tmp_path):
        out = self._write(tmp_path)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["prof_counts.json", "prof_times.json"]

    def test_write_settles_open_frames(self, tmp_path):
        session = ProfSession(clock=ScriptedClock())
        session.phases.begin("aborted")
        out = session.write(tmp_path / "prof")
        assert session.phases.snapshot()["open_frames"] == 0
        times = json.loads((out / "prof_times.json").read_text())
        assert set(times) == {"schema_version", "sim_ticks", "phases"}
        assert times["phases"]["aborted"]["calls"] == 1

    def test_counts_artifact_is_timing_free(self, tmp_path):
        out = self._write(tmp_path, clock=ScriptedClock())
        counts = json.loads((out / "prof_counts.json").read_text())
        assert counts == {
            "schema_version": PROF_SCHEMA_VERSION,
            "sim_ticks": 27_000_000,
            "phases": {"kernel.dispatch": 1},
        }

    def test_load_profile_round_trips(self, tmp_path):
        out = self._write(tmp_path)
        profile = load_profile(out)
        assert profile["counts"]["phases"] == {"kernel.dispatch": 1}
        assert "kernel.dispatch" in profile["times"]["phases"]

    def test_load_profile_rejects_non_profile_dir(self, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            load_profile(tmp_path)

    def test_load_profile_rejects_unknown_schema(self, tmp_path):
        out = self._write(tmp_path)
        counts = json.loads((out / "prof_counts.json").read_text())
        counts["schema_version"] = 99
        (out / "prof_counts.json").write_text(json.dumps(counts))
        with pytest.raises(ValueError, match="schema_version"):
            load_profile(out)


def _profiled_rack(seed, horizon_sec=0.1, obs=None):
    sim = cluster_rack(seed=seed, horizon_sec=horizon_sec, obs=obs)
    prof = ProfSession()
    sim.attach_prof(prof.phases)
    sim.run_until(sim.horizon)
    return sim, prof


class TestDeterminism:
    @settings(deadline=None, max_examples=5)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_same_seed_runs_have_identical_count_tables(self, seed):
        _, a = _profiled_rack(seed)
        _, b = _profiled_rack(seed)
        assert a.phases.count_table() == b.phases.count_table()
        assert a.phases.count_table()  # the rack exercises the hooks

    @settings(deadline=None, max_examples=3)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_profile_leaves_obs_artifacts_byte_identical(self, seed):
        bare = ObsSession()
        sim = cluster_rack(seed=seed, horizon_sec=0.1, obs=bare)
        sim.run_until(sim.horizon)
        profiled = ObsSession()
        sim2, _ = _profiled_rack(seed, obs=profiled)
        assert bare.events_jsonl() == profiled.events_jsonl()
        assert bare.metrics_prom() == profiled.metrics_prom()
        assert bare.perfetto_json(sim.now) == profiled.perfetto_json(sim2.now)

    def test_all_core_phases_fire_on_the_rack(self):
        sim = cluster_rack(seed=7, horizon_sec=0.2)
        prof = ProfSession()
        sim.attach_prof(prof.phases)
        sim.run_until(sim.horizon)
        sim.settle()
        phases = set(prof.phases.count_table())
        assert {
            "kernel.dispatch",
            "sched.notify",
            "rm.recompute",
            "grant.compute",
            "bus.rpc",
            "broker.rpc",
            "broker.epoch",
            "cluster.settle",
        } <= phases

    def test_counts_match_the_parent(self, tmp_path, capsys):
        """``prof_counts.json`` of the rack capture the ``prof-smoke``
        job renders, pinned at c956e06 and re-recorded twice, each time
        with only ``kernel.dispatch`` moved: when rack nodes began to run
        only when touched (914 → 438), and when a grant the dispatching
        pick activated stopped ending that pick's slice (438 → 416): a
        change that moves any phase count moves these bytes."""
        from repro.cli import main

        assert main(["run", "--scenario", "cluster_rack", "--seed", "7",
                     "--duration-ms", "400", "--profile", str(tmp_path)]) == 0
        counts = (tmp_path / "prof_counts.json").read_bytes()
        assert hashlib.sha256(counts).hexdigest()[:16] == "aa47151744e2579e"
        capsys.readouterr()

    def test_greedy_server_counts_match_the_parent(self, tmp_path, capsys):
        """The same for a greedy Sporadic Server's run, pinned at
        e4b4528, when every poll was re-picked: a continued poll is
        still one ``kernel.dispatch`` phase.  Re-recorded once, when a
        grant the dispatching pick activated stopped ending that pick's
        slice (``kernel.dispatch`` 4,585 → 4,580 in 400 ms, nothing
        else)."""
        from repro.cli import main

        assert main(["run", "--scenario", "figure5", "--duration-ms", "400",
                     "--profile", str(tmp_path)]) == 0
        counts = (tmp_path / "prof_counts.json").read_bytes()
        assert hashlib.sha256(counts).hexdigest()[:16] == "9d240ddf034e0ede"
        capsys.readouterr()


class TestReport:
    @pytest.fixture(scope="class")
    def profile_dir(self, tmp_path_factory):
        _, prof = _profiled_rack(7, horizon_sec=0.2)
        out = tmp_path_factory.mktemp("prof") / "p"
        prof.write(out, sim_ticks=5_400_000)
        return out

    def test_markdown_report_renders_deterministically(self, profile_dir):
        profile = load_profile(profile_dir)
        text = render_markdown(profile)
        assert text == render_markdown(load_profile(profile_dir))
        assert text.startswith("# Profile report")
        assert "| kernel.dispatch |" in text
        assert "self ms" in text

    def test_markdown_top_n_cuts_the_table(self, profile_dir):
        profile = load_profile(profile_dir)
        text = render_markdown(profile, top=2)
        assert "## Top 2 phases" in text
        assert "more phases below the cut" in text

    def test_json_report_shape(self, profile_dir):
        doc = json.loads(render_json(load_profile(profile_dir)))
        assert doc["schema_version"] == PROF_SCHEMA_VERSION
        assert doc["total_calls"] > 0
        phases = {r["phase"] for r in doc["phases"]}
        assert "kernel.dispatch" in phases
        self_ms = [r["self_ms"] for r in doc["phases"]]
        assert self_ms == sorted(self_ms, reverse=True)

    def test_diff_of_same_seed_runs_has_zero_call_deltas(self, profile_dir):
        _, other = _profiled_rack(7, horizon_sec=0.2)
        out_b = profile_dir.parent / "q"
        other.write(out_b, sim_ticks=5_400_000)
        diff = diff_profiles(load_profile(profile_dir), load_profile(out_b))
        assert all(r["calls_delta"] == 0 for r in diff["phases"])
        md = render_diff_markdown(diff)
        assert "+0" in md and md.startswith("# Profile diff")
        doc = json.loads(render_diff_json(diff))
        assert {r["phase"] for r in doc["phases"]} == {
            r["phase"] for r in diff["phases"]
        }

    def test_diff_attributes_call_deltas(self):
        profile = lambda calls: {  # noqa: E731 — tiny literal builder
            "counts": {"phases": {"a": calls}},
            "times": {"phases": {"a": {"self_ns": calls * 1000}}},
        }
        diff = diff_profiles(profile(10), profile(25))
        row = diff["phases"][0]
        assert row["calls_delta"] == 15
        assert row["self_ms_delta"] == pytest.approx(0.015)
