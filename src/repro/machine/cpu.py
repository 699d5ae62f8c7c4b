"""Context-switch cost model calibrated to the paper's measurements.

Section 6.1 reports, for the 200 MHz MAP1000:

* A context switch saves/restores up to two banks of 64 32-bit
  registers.  The calling standard is caller-saved, so a *voluntary*
  (synchronous) switch saves only 14 registers per bank; an
  *involuntary* switch must additionally save 64 system registers.
* Measured costs: voluntary min/median/mean = 11.5/18.3/20.7 us;
  involuntary min/median/mean = 16.9/28.2/35.0 us.

We do not have the cycle-accurate simulator the paper measured on, so we
substitute a stochastic model: ``cost = min + LogNormal(mu, sigma)``
with ``mu = ln(median - min)`` and ``sigma = sqrt(2 ln((mean-min)/(median-min)))``
— the unique two-parameter lognormal whose shifted median and mean match
the paper exactly.  The §6.1 bench verifies the calibration empirically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import units
from repro.config import ContextSwitchCosts
from repro.sim.trace import SWITCH_VOLUNTARY, SwitchKind


@dataclass(frozen=True)
class RegisterFile:
    """Register counts of the MAP1000, used for documentation and for the
    analytic lower bound on switch cost in the §6.1 bench."""

    banks: int = 2
    registers_per_bank: int = 64
    caller_saved_per_bank: int = 50  # 64 - 14 callee-saved
    callee_saved_per_bank: int = 14
    system_registers: int = 64


class _ShiftedLognormal:
    """``min + LogNormal(mu, sigma)`` sampler over microseconds."""

    def __init__(self, min_us: float, median_us: float, mean_us: float) -> None:
        self.min_us = min_us
        self.median_us = median_us
        self.mean_us = mean_us
        med_off = median_us - min_us
        mean_off = mean_us - min_us
        if med_off <= 0 or mean_off <= 0:
            # Degenerate calibration: constant cost.
            self._mu = None
            self._sigma = 0.0
            self._const = max(min_us, 0.0)
            return
        if mean_off < med_off:
            raise ValueError(
                f"mean ({mean_us}) must be >= median ({median_us}) for a "
                f"lognormal cost model"
            )
        self._mu = math.log(med_off)
        self._sigma = math.sqrt(max(2.0 * math.log(mean_off / med_off), 0.0))
        self._const = 0.0

    def sample_us(self, rng: random.Random) -> float:
        if self._mu is None:
            return self._const
        return self.min_us + rng.lognormvariate(self._mu, self._sigma)


class ContextSwitchModel:
    """Samples context-switch costs in 27 MHz ticks.

    Draws come from a dedicated RNG stream so switch costs never perturb
    workload randomness.  A zero-cost calibration always returns 0.
    """

    def __init__(self, costs: ContextSwitchCosts, rng: random.Random) -> None:
        self._costs = costs
        self._rng = rng
        self._voluntary = _ShiftedLognormal(
            costs.voluntary_min_us, costs.voluntary_median_us, costs.voluntary_mean_us
        )
        self._involuntary = _ShiftedLognormal(
            costs.involuntary_min_us,
            costs.involuntary_median_us,
            costs.involuntary_mean_us,
        )

    @property
    def costs(self) -> ContextSwitchCosts:
        return self._costs

    def sample_ticks(self, kind: SwitchKind) -> int:
        """Sample the cost of one switch of the given kind, in ticks."""
        if self._costs.is_zero:
            return 0
        dist = self._voluntary if kind is SWITCH_VOLUNTARY else self._involuntary
        return max(0, units.us_to_ticks(dist.sample_us(self._rng)))
