"""Campaign driver + replay: clean campaigns, reproducer persistence,
and the trace-replay loop."""

from repro.fuzz import (
    load_corpus,
    load_trace,
    replay,
    run_campaign,
)


class TestCampaign:
    def test_small_clean_campaign(self, tmp_path):
        stats = run_campaign(6, seed=1, out_dir=tmp_path)
        assert stats.ok
        assert stats.scenarios == 6
        assert stats.decisions_checked > 0
        assert "clean" in stats.summary()
        assert list(tmp_path.glob("*.trace.json")) == []

    def test_injected_campaign_writes_shrunk_reproducers(self, tmp_path):
        stats = run_campaign(4, seed=2, inject="edf-invert", out_dir=tmp_path)
        assert not stats.ok
        assert "failing scenario" in stats.summary()
        for failure in stats.failures:
            assert failure.outcome.startswith("invariant:")
            assert len(failure.shrunk.tasks) <= len(failure.spec.tasks)
            assert failure.trace_path is not None and failure.trace_path.is_file()
            trace = load_trace(failure.trace_path)
            assert trace.expect == failure.outcome
            assert trace.inject == "edf-invert"
            assert trace.meta["campaign_seed"] == 2
            assert trace.meta["campaign_index"] == failure.index

    def test_time_budget_stops_early(self, tmp_path):
        stats = run_campaign(
            10_000, seed=3, out_dir=tmp_path, time_budget_s=0.0
        )
        assert stats.scenarios == 0

    def test_campaigns_are_reproducible(self, tmp_path):
        first = run_campaign(3, seed=4, out_dir=tmp_path / "a")
        second = run_campaign(3, seed=4, out_dir=tmp_path / "b")
        assert first.decisions_checked == second.decisions_checked
        assert first.denials == second.denials


class TestReplay:
    def test_reproducer_round_trip(self, tmp_path):
        stats = run_campaign(4, seed=2, inject="edf-invert", out_dir=tmp_path)
        assert stats.failures
        path = stats.failures[0].trace_path
        replayed = replay(path, load_trace(path))
        assert replayed.matches
        assert "reproduced" in replayed.summary()

    def test_divergence_is_reported(self, tmp_path):
        stats = run_campaign(4, seed=2, inject="edf-invert", out_dir=tmp_path)
        assert stats.failures
        path = stats.failures[0].trace_path
        # Replaying WITHOUT re-arming the injection must diverge: the
        # recorded failure only exists under the synthetic bug.
        trace = load_trace(path)
        fixed = type(trace)(spec=trace.spec, expect=trace.expect, inject=None)
        from repro.fuzz import write_trace

        disarmed = write_trace(tmp_path / "disarmed.trace.json", fixed)
        replayed = replay(disarmed, load_trace(disarmed))
        assert not replayed.matches
        assert "DIVERGED" in replayed.summary()

    def test_replay_corpus_sorts_by_name(self, tmp_path):
        run_campaign(4, seed=2, inject="edf-invert", out_dir=tmp_path)
        results = [replay(path, trace) for path, trace in load_corpus(tmp_path)]
        names = [r.path.name for r in results]
        assert names == sorted(names)
