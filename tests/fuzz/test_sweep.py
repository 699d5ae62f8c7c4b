"""Threshold sweep: the empirical admission boundary sits near the
analytic 0.96 capacity line, and the committed curve regenerates."""

import json
from pathlib import Path

import pytest

from repro.fuzz.generator import CAPACITY
from repro.fuzz.sweep import (
    SWEEP_KIND,
    SWEEP_SCHEMA_VERSION,
    admission_threshold,
    render_sweep,
    run_sweep,
)


class TestThreshold:
    def test_threshold_brackets_the_capacity_line(self):
        point = admission_threshold(3, iterations=8)
        # The empirical boundary sits at or below the mix's machine's
        # analytic line (integer-tick rounding only ever costs
        # capacity), and a sane mix lands within striking distance.
        cap = point["machine_capacity"]
        assert 0.5 * cap <= point["threshold_util"] <= cap + 1e-9
        assert point["capacity"] == CAPACITY
        assert point["tasks"] >= 1

    def test_point_is_deterministic(self):
        assert admission_threshold(5, iterations=6) == admission_threshold(
            5, iterations=6
        )


class TestSweepPayload:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_sweep(1, mixes=2, iterations=6)

    def test_schema(self, payload):
        assert payload["schema_version"] == SWEEP_SCHEMA_VERSION
        assert payload["kind"] == SWEEP_KIND
        assert len(payload["mixes"]) == 2

    def test_render_has_one_row_per_mix(self, payload):
        text = render_sweep(payload)
        assert text.count("\n") == 1 + len(payload["mixes"])

    def test_committed_curve_regenerates(self, payload):
        committed = json.loads(
            (
                Path(__file__).resolve().parents[2]
                / "benchmarks" / "out" / "fuzz_thresholds.json"
            ).read_text()
        )
        assert committed["schema_version"] == SWEEP_SCHEMA_VERSION
        assert committed["kind"] == SWEEP_KIND
        # Same campaign seed, same bisection depth: the first point of
        # the committed curve is what the sweep measures today.
        point = committed["mixes"][0]
        assert point == admission_threshold(
            point["seed"], iterations=point["iterations"]
        )
