"""Whole-program behaviour on the fixture project under fixtures/flowtree.

The ``tick-units`` rule gets a violating fixture (asserting exact lines
and the interprocedural path witness) and a clean fixture (asserting
silence); the determinism fixtures run under the host-state guard.
"""

import contextlib
import importlib
import sys
from pathlib import Path

import pytest

from repro.lint import module_name, run_lint
from tests.determinism_guard import HostStateGuard

FLOWTREE = Path(__file__).parent / "fixtures" / "flowtree"


@pytest.fixture(scope="module")
def flow_violations():
    return run_lint([FLOWTREE])


def by_file(violations, name):
    return sorted(
        (v for v in violations if Path(v.path).name == name),
        key=lambda v: (v.line, v.col),
    )


class TestTickUnitsRule:
    def test_flags_all_seeded_sites(self, flow_violations):
        found = by_file(flow_violations, "bad_units.py")
        assert [(v.line, v.rule_id) for v in found] == [
            (8, "tick-units"),
            (13, "tick-units"),
            (18, "tick-units"),
            (27, "tick-units"),
            (32, "tick-units"),
        ]

    def test_cross_unit_arithmetic_and_comparison(self, flow_violations):
        found = by_file(flow_violations, "bad_units.py")
        assert found[0].message == "cross-unit arithmetic: ticks vs ms"
        assert found[1].message == "cross-unit comparison: ms vs ticks"

    def test_interprocedural_pass_carries_witness(self, flow_violations):
        (v,) = [v for v in by_file(flow_violations, "bad_units.py") if v.line == 18]
        assert "ms quantity into ticks parameter 'deadline'" in v.message
        assert v.witness == (
            "repro.core.bad_units.relay",
            "repro.core.bad_units.set_deadline(deadline: ticks)",
        )

    def test_converter_misuse_and_wrong_direction_factor(self, flow_violations):
        found = by_file(flow_violations, "bad_units.py")
        assert "ms_to_ticks(), which expects ms" in found[3].message
        assert "TICKS_PER_MS (ticks/ms factor)" in found[4].message

    def test_clean_fixture_is_silent(self, flow_violations):
        assert by_file(flow_violations, "good_units.py") == []


class TestFuzzSporadicTickUnits:
    """The fuzz generator's sporadic-jitter fix, as dimensional analysis:
    jitter drawn in ms and added to a tick clock is flagged; the shipped
    whole-ticks arithmetic passes clean."""

    def test_pre_fix_bug_shape_is_flagged(self, flow_violations):
        found = by_file(flow_violations, "bad_sporadic.py")
        assert [(v.line, v.rule_id) for v in found] == [
            (11, "tick-units"),
            (17, "tick-units"),
        ]
        assert found[0].message == "cross-unit arithmetic: ticks vs ms"
        assert found[1].message == "cross-unit comparison: ms vs ticks"

    def test_fixed_shape_is_silent(self, flow_violations):
        assert by_file(flow_violations, "good_sporadic.py") == []

    def test_shipped_fuzz_module_passes_dimensional_analysis(self):
        src = Path(__file__).parent.parent.parent / "src" / "repro" / "fuzz"
        violations = run_lint([src])
        assert [v for v in violations if v.rule_id == "tick-units"] == []


@contextlib.contextmanager
def flowtree_guard():
    """Import FLOWTREE's ``repro`` package in place of the real one, inside
    a recording host-state guard (``tests/determinism_guard.py``)."""

    def ours():
        return [name for name in sys.modules if name == "repro" or name.startswith("repro.")]

    real = {name: sys.modules.pop(name) for name in ours()}
    sys.path.insert(0, str(FLOWTREE))
    try:
        with HostStateGuard(strict=False) as guard:
            yield guard
    finally:
        sys.path.remove(str(FLOWTREE))
        for name in ours():
            del sys.modules[name]
        sys.modules.update(real)


def run_flowtree(module, *calls):
    """The guard's findings for importing ``module`` and calling each
    named function of it with ``0``."""
    with flowtree_guard() as guard:
        loaded = importlib.import_module(module)
        for name in calls:
            getattr(loaded, name)(0)
    return guard.findings


#: How to run every marked line of each ``bad_determinism`` fixture
#: (importing it runs its module level and class bodies).
MARKED_RUNS = {
    "repro/cluster/bad_determinism.py": lambda m: (m.Jitter().settle(0), m.epoch(0)),
    "repro/obs/bad_determinism.py": lambda m: m.sample_rate(),
    "repro/core/bad_determinism.py": lambda m: (
        m.fresh(),
        m.by_keyword(),
        m.entropy(),
        m.seeded(),
    ),
}


class TestDeterminismReachRule:
    """The retired ``determinism`` rule's reach fixtures, run under the
    tier-1 host-state guard: a read reached through helpers, at any
    depth, is caught with the call chain that made it."""

    def test_flags_all_seeded_sites(self):
        path = str(FLOWTREE / "repro/core/bad_reach.py")
        found = run_flowtree("repro.core.bad_reach", "activate", "schedule", "perturb")
        assert [f.lines_in(path) for f in found] == [[11], [15], [19]]

    def test_two_hop_witness(self):
        (found,) = run_flowtree("repro.core.bad_reach", "activate")
        assert found.witness == (
            "repro.core.bad_reach.activate",
            "repro.helpers.util.stamp",
            "time.monotonic",
        )

    def test_three_hop_witness(self):
        (found,) = run_flowtree("repro.core.bad_reach", "schedule")
        assert found.witness == (
            "repro.core.bad_reach.schedule",
            "repro.helpers.util.chain",
            "repro.helpers.util.stamp",
            "time.monotonic",
        )

    def test_unseeded_rng_sink(self):
        (found,) = run_flowtree("repro.core.bad_reach", "perturb")
        assert found.witness[-1] == "random.random"

    def test_clean_fixture_is_silent(self):
        assert run_flowtree("repro.core.good_reach", "advance") == []

    @pytest.mark.parametrize("relpath", list(MARKED_RUNS))
    def test_every_marked_line_is_flagged(self, relpath):
        """Direct reads in cluster and obs, at module level, in a class
        body and at the end of an in-package chain, and RNGs seeded from
        OS entropy: each ``# flagged`` line is the innermost line of one
        finding in its file, and no other line of the file is."""
        path = FLOWTREE / relpath
        marked = [
            number
            for number, text in enumerate(path.read_text().splitlines(), 1)
            if text.endswith("# flagged")
        ]
        with flowtree_guard() as guard:
            MARKED_RUNS[relpath](importlib.import_module(module_name(path)))
        assert marked
        assert [f.lines_in(str(path))[-1] for f in guard.findings] == marked

    def test_a_package_init_resolves_its_relative_imports(self):
        """``repro.clocks``' ``__init__`` reaches the host clock through
        ``from .host import read``: its caller's chain names both."""
        (found,) = run_flowtree("repro.core.bad_package_reach", "skew")
        assert found.lines_in(str(FLOWTREE / "repro/core/bad_package_reach.py")) == [8]
        assert found.witness == (
            "repro.core.bad_package_reach.skew",
            "repro.clocks.drift",
            "repro.clocks.host.read",
            "time.monotonic",
        )

    def test_a_direct_call_is_a_witness_of_one_call(self):
        with flowtree_guard() as guard:
            importlib.import_module("repro.core.bad_determinism").entropy()
        (found,) = guard.findings
        assert found.witness == (
            "repro.core.bad_determinism.entropy",
            "random.SystemRandom",
        )


class TestFlowTierWiring:
    def test_output_is_deterministic_across_runs(self, flow_violations):
        again = run_lint([FLOWTREE])
        assert [v.to_dict() for v in again] == [
            v.to_dict() for v in flow_violations
        ]
