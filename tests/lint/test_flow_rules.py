"""Whole-program rule behavior on the fixture project under fixtures/flowtree.

Every such rule gets a violating fixture (asserting exact lines and the
interprocedural path witness) and a clean fixture (asserting silence).
"""

from pathlib import Path

import pytest

from repro.lint import run_lint

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


class TestDeterminismReachRule:
    """The ``determinism`` rule across calls: a sink reached through
    helpers outside its scope table's packages, at any depth."""

    def test_flags_all_seeded_sites(self, flow_violations):
        found = by_file(flow_violations, "bad_reach.py")
        assert [(v.line, v.rule_id) for v in found] == [
            (11, "determinism"),
            (15, "determinism"),
            (19, "determinism"),
        ]

    def test_two_hop_witness(self, flow_violations):
        (v,) = [v for v in by_file(flow_violations, "bad_reach.py") if v.line == 11]
        assert "time.monotonic() is reachable" in v.message
        assert v.witness == (
            "repro.core.bad_reach.activate",
            "repro.helpers.util.stamp",
            "time.monotonic",
        )

    def test_three_hop_witness(self, flow_violations):
        (v,) = [v for v in by_file(flow_violations, "bad_reach.py") if v.line == 15]
        assert "(3 call(s) away)" in v.message
        assert v.witness == (
            "repro.core.bad_reach.schedule",
            "repro.helpers.util.chain",
            "repro.helpers.util.stamp",
            "time.monotonic",
        )

    def test_unseeded_rng_sink(self, flow_violations):
        (v,) = [v for v in by_file(flow_violations, "bad_reach.py") if v.line == 19]
        assert "random.random() is reachable" in v.message
        assert v.witness[-1] == "random.random"

    def test_clean_fixture_is_silent(self, flow_violations):
        assert by_file(flow_violations, "good_reach.py") == []

    @pytest.mark.parametrize(
        "relpath",
        [
            "repro/cluster/bad_determinism.py",
            "repro/obs/bad_determinism.py",
            "repro/core/bad_determinism.py",
        ],
    )
    def test_every_marked_line_is_flagged(self, flow_violations, relpath):
        """Direct sinks in cluster and obs, at module level, in a class
        body and at the end of an in-package chain, and RNGs seeded from
        OS entropy: each ``# flagged`` line is one finding, no other
        line of the file is (so a chain inside the package is reported
        once, where it reaches the sink)."""
        path = FLOWTREE / relpath
        marked = [
            number
            for number, text in enumerate(path.read_text().splitlines(), 1)
            if text.endswith("# flagged")
        ]
        found = [v for v in flow_violations if Path(v.path) == path]
        assert marked
        assert [v.line for v in found] == marked
        assert {v.rule_id for v in found} == {"determinism"}

    def test_a_package_init_resolves_its_relative_imports(self, flow_violations):
        """``repro.clocks``' ``__init__`` reaches the host clock through
        ``from .host import read``: its covered caller is a finding."""
        (v,) = by_file(flow_violations, "bad_package_reach.py")
        assert (v.line, v.rule_id) == (8, "determinism")
        assert v.witness == (
            "repro.core.bad_package_reach.skew",
            "repro.clocks.drift",
            "repro.clocks.host.read",
            "time.monotonic",
        )

    def test_a_direct_call_is_a_witness_of_one_call(self, flow_violations):
        (v,) = [
            v
            for v in by_file(flow_violations, "bad_determinism.py")
            if "SystemRandom" in v.message
        ]
        assert v.witness == (
            "repro.core.bad_determinism.entropy",
            "random.SystemRandom",
        )
        assert "random.SystemRandom() in repro.core.bad_determinism.entropy" in v.message


class TestFlowTierWiring:
    def test_output_is_deterministic_across_runs(self, flow_violations):
        again = run_lint([FLOWTREE])
        assert [v.to_dict() for v in again] == [
            v.to_dict() for v in flow_violations
        ]
