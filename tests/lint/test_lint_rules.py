"""Each lint rule against its positive (violating) and negative (clean)
fixtures under ``tests/lint/fixtures/tree``."""

from pathlib import Path

from repro.lint import run_lint

TREE = Path(__file__).parent / "fixtures" / "tree"


def lint(relpath):
    return run_lint([TREE / relpath])


def rule_ids(violations):
    return [v.rule_id for v in violations]


class TestLayering:
    def test_scheduler_importing_policy_box_is_flagged(self):
        violations = lint("repro/core/scheduler.py")
        assert rule_ids(violations) == ["layering", "layering"]
        assert "policy_box" in violations[0].message
        # Both the absolute and the relative import form are caught.
        assert {v.line for v in violations} == {3, 4}

    def test_core_importing_presentation_is_flagged(self):
        violations = lint("repro/core/presentation.py")
        assert rule_ids(violations) == ["layering"] * 2
        assert any("repro.cli" in v.message for v in violations)
        assert any("repro.viz" in v.message for v in violations)

    def test_sim_importing_core_or_metrics_is_flagged(self):
        violations = lint("repro/sim/bad_layering.py")
        assert rule_ids(violations) == ["layering", "layering"]

    def test_core_importing_cluster_is_flagged(self):
        violations = lint("repro/core/bad_cluster.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.cluster" in violations[0].message

    def test_sim_importing_cluster_is_flagged(self):
        violations = lint("repro/sim/bad_cluster.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.cluster" in violations[0].message

    def test_obs_importing_cluster_is_flagged(self):
        violations = lint("repro/obs/bad_cluster.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.cluster" in violations[0].message

    def test_obs_importing_core_or_sim_is_flagged(self):
        violations = lint("repro/obs/bad_core.py")
        assert rule_ids(violations) == ["layering", "layering"]
        assert any("repro.core" in v.message for v in violations)
        assert any("repro.sim" in v.message for v in violations)

    def test_core_importing_serve_is_flagged(self):
        violations = lint("repro/core/bad_serve.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.serve" in violations[0].message

    def test_cluster_importing_serve_is_flagged(self):
        violations = lint("repro/cluster/bad_serve.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.serve" in violations[0].message

    def test_core_importing_prof_is_flagged(self):
        violations = lint("repro/core/bad_prof_import.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.obs.prof" in violations[0].message

    def test_sim_importing_prof_is_flagged(self):
        violations = lint("repro/sim/bad_prof_import.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.obs.prof" in violations[0].message

    def test_core_importing_obs_pipeline_is_flagged(self):
        violations = lint("repro/core/bad_pipeline_import.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.obs.pipeline" in violations[0].message

    def test_sim_importing_obs_pipeline_is_flagged(self):
        violations = lint("repro/sim/bad_pipeline_import.py")
        assert rule_ids(violations) == ["layering"]
        assert "repro.obs.pipeline" in violations[0].message

    def test_cluster_may_import_obs_pipeline(self):
        assert lint("repro/cluster/good_pipeline_import.py") == []

    def test_serve_may_import_down_and_read_the_wall_clock(self):
        """The serving boundary's wall-clock exemption is a property of
        its *position*, not a blanket waiver: the module imports
        cluster/obs/core and reads time.monotonic, and no rule fires —
        while the reverse imports (above) are all flagged."""
        assert lint("repro/serve/clean.py") == []

    def test_clean_core_module_passes(self):
        assert lint("repro/core/clean.py") == []

    def test_clean_obs_module_passes(self):
        assert lint("repro/obs/clean.py") == []


class TestWallClock:
    """The wall-clock row of the ``determinism`` scope table."""

    def test_wallclock_reads_in_core_are_flagged(self):
        violations = [v for v in lint("repro/core/bad_clock.py") if v.rule_id == "determinism"]
        assert len(violations) == 2
        assert all(v.message.startswith("wall-clock read ") for v in violations)
        assert any("time.time" in v.message for v in violations)
        assert any("datetime.now" in v.message for v in violations)

    def test_wallclock_reads_in_obs_are_flagged(self):
        violations = lint("repro/obs/bad_clock.py")
        assert rule_ids(violations) == ["determinism"]
        assert "time.time" in violations[0].message

    def test_wallclock_outside_sim_core_is_ignored(self):
        assert lint("outside_scope.py") == []

    def test_prof_package_is_exempt(self):
        """``repro.obs.prof`` is the sanctioned wall-clock funnel: it
        measures host cost by design, and its timings land in a
        separate never-byte-compared artifact."""
        assert lint("repro/obs/prof/clean.py") == []


class TestUnseededRandom:
    """The RNG row of the ``determinism`` scope table."""

    def test_global_random_use_in_core_is_flagged(self):
        violations = lint("repro/core/bad_random.py")
        assert rule_ids(violations) == ["determinism"] * 3
        # ``from random import choice`` is reported at the import (line
        # 4), not again at the call through the imported name (line 16).
        assert [v.line for v in violations] == [4, 8, 12]
        assert "random.choice() imported by name" in violations[0].message
        assert any("random.random()" in v.message for v in violations)
        assert any("random.Random()" in v.message for v in violations)

    def test_sim_rng_module_is_exempt(self):
        assert lint("repro/sim/rng.py") == []

    def test_seeded_random_instance_passes(self):
        assert lint("repro/core/clean.py") == []


class TestFloatTicks:
    def test_float_literals_in_tick_positions_are_flagged(self):
        violations = lint("loose_float.py")
        assert rule_ids(violations) == ["tick-units"] * 4
        assert {v.line for v in violations} == {6, 10, 11, 13}

    def test_integer_ticks_and_converted_values_pass(self):
        lines = {v.line for v in lint("loose_float.py")}
        assert 5 not in lines  # ticks_to_ms(270000)
        assert 12 not in lines  # horizon=ms_to_ticks(10)

    def test_the_converter_table_names_the_integer_consumers(self, tmp_path):
        """Cycles are integers like ticks; a rate in Hz may be a float."""
        mod = tmp_path / "rates.py"
        mod.write_text("A = core_cycles_to_ticks(2.0)\nB = hz_to_period_ticks(29.97)\n")
        assert [(v.line, v.rule_id) for v in run_lint([mod])] == [(1, "tick-units")]


class TestExceptHygiene:
    def test_bare_and_silent_excepts_in_core_are_flagged(self):
        violations = lint("repro/core/bad_except.py")
        assert rule_ids(violations) == ["except-hygiene"] * 2
        assert "bare except:" in violations[0].message
        assert "except Exception with an empty body" in violations[1].message

    def test_bare_except_outside_scope_is_ignored(self):
        assert lint("outside_scope.py") == []


class TestObsUnguardedEmit:
    def test_unguarded_and_identity_guarded_emits_are_flagged(self):
        violations = lint("repro/core/bad_obs_emit.py")
        assert rule_ids(violations) == ["obs-unguarded-emit"] * 5
        # The identity-guarded sites get the dedicated explanation.
        identity = [v for v in violations if "identity check" in v.message]
        assert len(identity) == 2
        assert all("falsy" in v.message for v in identity)

    def test_every_accepted_guard_form_passes(self):
        assert lint("repro/core/good_obs_emit.py") == []

    def test_emit_outside_scope_is_ignored(self):
        assert lint("outside_scope.py") == []

    def test_unguarded_and_identity_guarded_prof_hooks_are_flagged(self):
        violations = lint("repro/core/bad_prof_hook.py")
        assert rule_ids(violations) == ["obs-unguarded-emit"] * 4
        identity = [v for v in violations if "identity check" in v.message]
        assert len(identity) == 1
        assert all("falsy" in v.message for v in identity)
        assert all("profiler" in v.message for v in violations)

    def test_every_accepted_prof_guard_form_passes(self):
        """Paired guards, the impl-rename wrapper (hook inside the
        guarded try/finally), conjunctions, guard clauses, and dotted
        receivers all pass; a non-prof ``.begin()`` is ignored."""
        assert lint("repro/core/good_prof_hook.py") == []

    def test_unguarded_arena_fast_paths_are_flagged(self):
        violations = lint("repro/core/bad_arena_hook.py")
        assert rule_ids(violations) == ["obs-unguarded-emit"] * 5
        # emit_* fast paths report as bus sites, append/flush as arena.
        assert sum("bus" in v.message for v in violations) == 2
        assert sum("arena" in v.message for v in violations) == 3
        identity = [v for v in violations if "identity check" in v.message]
        assert len(identity) == 1

    def test_every_accepted_arena_guard_form_passes(self):
        assert lint("repro/core/good_arena_hook.py") == []

    def test_serve_layer_prof_hooks_are_in_scope(self):
        violations = lint("repro/serve/bad_prof_hook.py")
        assert rule_ids(violations) == ["obs-unguarded-emit"]
        assert "serve.http-parse" not in violations[0].message
        assert "'prof'" in violations[0].message


class TestWholeTree:
    def test_fixture_tree_totals(self):
        """Linting the whole fixture tree finds every seeded violation —
        and nothing in the clean files."""
        violations = run_lint([TREE])
        by_file = {}
        for v in violations:
            by_file.setdefault(Path(v.path).name, []).append(v)
        assert "clean.py" not in by_file
        assert "rng.py" not in by_file
        assert "outside_scope.py" not in by_file
        determinism = {
            (Path(v.path).relative_to(TREE).as_posix(), v.line)
            for v in violations
            if v.rule_id == "determinism"
        }
        assert determinism == {
            ("repro/core/bad_clock.py", 8),
            ("repro/core/bad_clock.py", 12),
            ("repro/core/bad_random.py", 4),
            ("repro/core/bad_random.py", 8),
            ("repro/core/bad_random.py", 12),
            ("repro/obs/bad_clock.py", 8),
        }

    def test_shipped_src_tree_is_clean(self):
        """Acceptance: the real src/ tree lints clean."""
        src = Path(__file__).parents[2] / "src"
        assert run_lint([src]) == []
