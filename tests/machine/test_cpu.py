"""Context-switch cost model: calibration against section 6.1."""

import random
import statistics

import pytest

from repro import units
from repro.config import ContextSwitchCosts
from repro.machine.cpu import ContextSwitchModel
from repro.sim.trace import SwitchKind


@pytest.fixture
def model():
    return ContextSwitchModel(ContextSwitchCosts(), random.Random(1234))


class TestCalibration:
    """The sampled distributions must reproduce the paper's summary
    statistics: voluntary 11.5/18.3/20.7 us, involuntary 16.9/28.2/35.0."""

    N = 20_000

    def _stats(self, model, kind):
        samples = [units.ticks_to_us(model.sample_ticks(kind)) for _ in range(self.N)]
        return min(samples), statistics.median(samples), statistics.fmean(samples)

    def test_voluntary_statistics(self, model):
        lo, med, mean = self._stats(model, SwitchKind.VOLUNTARY)
        assert lo >= 11.5 - 0.05  # shifted distribution: hard minimum
        assert med == pytest.approx(18.3, rel=0.05)
        assert mean == pytest.approx(20.7, rel=0.05)

    def test_involuntary_statistics(self, model):
        lo, med, mean = self._stats(model, SwitchKind.INVOLUNTARY)
        assert lo >= 16.9 - 0.05
        assert med == pytest.approx(28.2, rel=0.05)
        assert mean == pytest.approx(35.0, rel=0.05)

    def test_involuntary_costs_more_on_average(self, model):
        _, _, vol = self._stats(model, SwitchKind.VOLUNTARY)
        _, _, invol = self._stats(model, SwitchKind.INVOLUNTARY)
        assert invol > vol


class TestZeroCost:
    def test_zero_model_always_free(self):
        model = ContextSwitchModel(ContextSwitchCosts.zero(), random.Random(0))
        assert model.sample_ticks(SwitchKind.VOLUNTARY) == 0
        assert model.sample_ticks(SwitchKind.INVOLUNTARY) == 0

    def test_is_zero_flag(self):
        assert ContextSwitchCosts.zero().is_zero
        assert not ContextSwitchCosts().is_zero


class TestMeanCost:
    def test_mean_cost_ticks(self):
        costs = ContextSwitchCosts()
        assert units.us_to_ticks(costs.voluntary_mean_us) == units.us_to_ticks(20.7)
        assert units.us_to_ticks(costs.involuntary_mean_us) == units.us_to_ticks(35.0)


class TestDeterminism:
    def test_same_stream_same_samples(self):
        a = ContextSwitchModel(ContextSwitchCosts(), random.Random(9))
        b = ContextSwitchModel(ContextSwitchCosts(), random.Random(9))
        assert [a.sample_ticks(SwitchKind.VOLUNTARY) for _ in range(10)] == [
            b.sample_ticks(SwitchKind.VOLUNTARY) for _ in range(10)
        ]
