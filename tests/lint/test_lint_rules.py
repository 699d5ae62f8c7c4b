"""Each lint rule against its positive (violating) and negative (clean)
fixtures under ``tests/lint/fixtures/tree``."""

import importlib.util
from pathlib import Path

from repro.lint import module_name, run_lint
from tests.determinism_guard import HostStateGuard
from tests.test_layering import layer_breaks

TREE = Path(__file__).parent / "fixtures" / "tree"


def lint(relpath):
    return run_lint([TREE / relpath])


def rule_ids(violations):
    return [v.rule_id for v in violations]


def breaks(relpath):
    return layer_breaks([TREE / relpath])


def guarded(relpath, *calls):
    """Load a fixture under its dotted name inside a recording guard,
    make each call (a function name, or ``(name, *args)``) and return
    the guard's findings."""
    path = TREE / relpath
    spec = importlib.util.spec_from_file_location(module_name(path), path)
    with HostStateGuard(strict=False) as guard:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for call in calls:
            name, *args = (call,) if isinstance(call, str) else call
            getattr(module, name)(*args)
    return guard.findings


class TestLayering:
    """The retired ``layering`` rule's fixtures, read by the tier-1
    import-graph check (``tests/test_layering.py``): each import the rule
    flagged crosses a layer there too, and each clean file crosses none."""

    def test_scheduler_importing_policy_box_is_flagged(self):
        found = breaks("repro/core/scheduler.py")
        assert len(found) == 2
        assert "policy_box" in found[0].imported
        # Both the absolute and the relative import form are caught.
        assert {b.line for b in found} == {3, 4}

    def test_core_importing_presentation_is_flagged(self):
        found = breaks("repro/core/presentation.py")
        assert len(found) == 2
        assert any("repro.cli" in b.imported for b in found)
        assert any("repro.viz" in b.imported for b in found)

    def test_sim_importing_core_or_metrics_is_flagged(self):
        assert {b.target for b in breaks("repro/sim/bad_layering.py")} == {
            "repro.core",
            "repro.metrics",
        }

    def test_core_importing_cluster_is_flagged(self):
        (found,) = breaks("repro/core/bad_cluster.py")
        assert found.target == "repro.cluster"

    def test_sim_importing_cluster_is_flagged(self):
        (found,) = breaks("repro/sim/bad_cluster.py")
        assert found.target == "repro.cluster"

    def test_obs_importing_cluster_is_flagged(self):
        (found,) = breaks("repro/obs/bad_cluster.py")
        assert found.target == "repro.cluster"

    def test_obs_importing_core_or_sim_is_flagged(self):
        found = breaks("repro/obs/bad_core.py")
        assert [b.target for b in found] == ["repro.core", "repro.sim"]

    def test_core_importing_serve_is_flagged(self):
        (found,) = breaks("repro/core/bad_serve.py")
        assert found.target == "repro.serve"

    def test_cluster_importing_serve_is_flagged(self):
        (found,) = breaks("repro/cluster/bad_serve.py")
        assert found.target == "repro.serve"

    def test_core_importing_prof_is_flagged(self):
        (found,) = breaks("repro/core/bad_prof_import.py")
        assert found.target == "repro.obs.prof"

    def test_sim_importing_prof_is_flagged(self):
        (found,) = breaks("repro/sim/bad_prof_import.py")
        assert found.target == "repro.obs.prof"

    def test_core_importing_obs_pipeline_is_flagged(self):
        (found,) = breaks("repro/core/bad_pipeline_import.py")
        assert found.target == "repro.obs.pipeline"

    def test_sim_importing_obs_pipeline_is_flagged(self):
        (found,) = breaks("repro/sim/bad_pipeline_import.py")
        assert found.target == "repro.obs.pipeline"

    def test_cluster_may_import_obs_pipeline(self):
        assert breaks("repro/cluster/good_pipeline_import.py") == []

    def test_serve_may_import_down_and_read_the_wall_clock(self):
        """The serving boundary imports cluster/obs/core and reads
        time.monotonic: no layer is crossed and no rule fires — while
        the reverse imports (above) all cross one."""
        assert breaks("repro/serve/clean.py") == []
        assert lint("repro/serve/clean.py") == []

    def test_clean_core_module_passes(self):
        assert breaks("repro/core/clean.py") == []

    def test_clean_obs_module_passes(self):
        assert breaks("repro/obs/clean.py") == []


class TestWallClock:
    """The retired ``determinism`` rule's wall-clock fixtures, run under
    the tier-1 host-state guard (``tests/determinism_guard.py``)."""

    def test_wallclock_reads_in_core_are_flagged(self):
        found = guarded("repro/core/bad_clock.py", "stamp", "stamp2")
        assert [f.sink for f in found] == ["time.time", "datetime.now"]

    def test_wallclock_reads_in_obs_are_flagged(self):
        (found,) = guarded("repro/obs/bad_clock.py", "stamp_event")
        assert found.witness == ("repro.obs.bad_clock.stamp_event", "time.time")

    def test_wallclock_outside_sim_core_is_ignored(self):
        """A module outside ``repro`` is the harness, not the program."""
        assert guarded("outside_scope.py", "now") == []

    def test_prof_package_is_exempt(self):
        """``repro.obs.prof`` is a sanctioned wall-clock funnel: it
        measures host cost by design, and its timings land in a
        separate never-byte-compared artifact."""
        assert guarded("repro/obs/prof/clean.py", "stamp") == []


class TestUnseededRandom:
    """The retired ``determinism`` rule's RNG fixtures, run under the
    host-state guard."""

    def test_global_random_use_in_core_is_flagged(self):
        path = TREE / "repro/core/bad_random.py"
        found = guarded("repro/core/bad_random.py", "jitter", "fresh", ("pickone", [1]))
        assert [f.sink for f in found] == ["random.random", "random.Random", "random.choice"]
        # ``from random import choice`` is caught where the name is called.
        assert [f.lines_in(str(path)) for f in found] == [[8], [12], [16]]

    def test_sim_rng_module_is_exempt(self):
        """The seeded stream registry needs no exemption: every stream
        it hands out is seeded."""
        from repro.sim.rng import RngRegistry

        with HostStateGuard() as guard:
            RngRegistry(7).stream("jitter").random()
        assert guard.findings == []

    def test_seeded_random_instance_passes(self):
        assert guarded("repro/core/clean.py", ("grant_delay", 10)) == []


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


class TestWholeTree:
    def test_fixture_tree_totals(self):
        """Linting the whole fixture tree finds every seeded violation of
        the two rules — and nothing in the clean files."""
        found = {
            (Path(v.path).relative_to(TREE).as_posix(), v.line, v.rule_id)
            for v in run_lint([TREE])
        }
        assert found == {
            ("loose_float.py", 6, "tick-units"),
            ("loose_float.py", 10, "tick-units"),
            ("loose_float.py", 11, "tick-units"),
            ("loose_float.py", 13, "tick-units"),
            ("repro/core/bad_except.py", 7, "except-hygiene"),
            ("repro/core/bad_except.py", 14, "except-hygiene"),
        }

    def test_shipped_src_tree_is_clean(self):
        """Acceptance: the real src/ tree lints clean."""
        src = Path(__file__).parents[2] / "src"
        assert run_lint([src]) == []
