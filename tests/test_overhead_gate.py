"""The overhead-budget gate's arithmetic, over scripted samples: no
clock is read and no scenario runs."""

import pytest

from benchmarks.builders import CALIBRATION_ITERATIONS, calibration_loop
from benchmarks.overhead import (
    CALIBRATION,
    gate_reading,
    interleaved_samples,
    unit_cost,
)

#: A calibration loop whose best run makes one step exactly 0.1 us.
STEP_S = 1e-7
CALIBRATION_S = STEP_S * CALIBRATION_ITERATIONS


def scripted(base, loaded, calibration=(CALIBRATION_S,)):
    return {"base": list(base), "loaded": list(loaded), CALIBRATION: list(calibration)}


class ScriptedWindows:
    """Hands out pre-written sampling windows, one per call."""

    def __init__(self, *windows):
        self.windows = list(windows)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.windows.pop(0)


class TestUnitCost:
    def test_reads_the_per_variant_minima_not_the_medians(self):
        samples = scripted(
            base=[0.020, 0.010, 0.030],
            loaded=[0.050, 0.040, 0.012],
            calibration=[CALIBRATION_S * 3, CALIBRATION_S, CALIBRATION_S * 2],
        )
        seconds, steps = unit_cost(samples, "loaded", "base", count=1000)
        # (0.012 - 0.010) / 1000 units, at 0.1 us a step.
        assert seconds == pytest.approx(2e-6)
        assert steps == pytest.approx(20.0)

    def test_a_slower_machine_reads_the_same_steps(self):
        fast = scripted(base=[0.010], loaded=[0.012])
        slow = scripted(
            base=[0.020], loaded=[0.024], calibration=[CALIBRATION_S * 2]
        )
        assert unit_cost(slow, "loaded", "base", 1000)[1] == pytest.approx(
            unit_cost(fast, "loaded", "base", 1000)[1]
        )
        assert unit_cost(slow, "loaded", "base", 1000)[0] == pytest.approx(
            2 * unit_cost(fast, "loaded", "base", 1000)[0]
        )

    def test_a_slower_base_does_not_move_the_reading(self):
        quick = scripted(base=[0.010], loaded=[0.012])
        slowed = scripted(base=[0.090], loaded=[0.092])
        assert unit_cost(slowed, "loaded", "base", 1000) == pytest.approx(
            unit_cost(quick, "loaded", "base", 1000)
        )

    @pytest.mark.parametrize("count", [0, -3])
    def test_nothing_counted_is_an_error_not_a_division(self, count):
        with pytest.raises(ValueError, match="nothing to divide"):
            unit_cost(scripted([0.010], [0.012]), "loaded", "base", count)


class TestGateReading:
    def test_a_reading_within_budget_takes_one_window(self):
        window = ScriptedWindows(scripted(base=[0.010, 0.011], loaded=[0.013, 0.012]))
        samples, seconds, steps = gate_reading(
            window, "loaded", "base", count=1000, budget=25.0
        )
        assert window.calls == 1
        assert steps == pytest.approx(20.0) and seconds == pytest.approx(2e-6)
        assert samples["base"] == [0.010, 0.011]

    def test_an_over_budget_window_is_merged_with_a_second(self):
        # Window one is inflated across the board (30 steps a unit);
        # window two holds the quiet minima (20 steps).
        window = ScriptedWindows(
            scripted(base=[0.020, 0.021], loaded=[0.024, 0.023]),
            scripted(base=[0.010, 0.012], loaded=[0.012, 0.015]),
        )
        samples, _, steps = gate_reading(
            window, "loaded", "base", count=1000, budget=25.0
        )
        assert window.calls == 2
        assert samples["base"] == [0.020, 0.021, 0.010, 0.012]
        assert samples["loaded"] == [0.024, 0.023, 0.012, 0.015]
        assert len(samples[CALIBRATION]) == 2
        assert steps == pytest.approx(20.0)

    def test_a_regression_survives_the_second_window(self):
        heavy = dict(base=[0.010, 0.011], loaded=[0.014, 0.015])
        window = ScriptedWindows(scripted(**heavy), scripted(**heavy))
        _, _, steps = gate_reading(
            window, "loaded", "base", count=1000, budget=25.0
        )
        assert window.calls == 2
        assert steps == pytest.approx(40.0)

    def test_nothing_counted_fails_before_any_merge(self):
        window = ScriptedWindows(scripted([0.010], [0.012]))
        with pytest.raises(ValueError):
            gate_reading(window, "loaded", "base", count=0, budget=25.0)


class TestSampling:
    def test_a_window_interleaves_every_variant_with_the_calibration_loop(self):
        calls = []
        samples = interleaved_samples(
            {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")},
            repeats=2,
        )
        # One warm-up round, then two timed rounds, variants in turn.
        assert calls == ["a", "b"] * 3
        assert {name: len(times) for name, times in samples.items()} == {
            "a": 2,
            "b": 2,
            CALIBRATION: 2,
        }

    def test_the_calibration_loop_is_deterministic(self):
        assert calibration_loop(1000) == calibration_loop(1000)
