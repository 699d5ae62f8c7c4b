"""Golden determinism: identical seeds produce identical runs.

Every stochastic element draws from named, seeded streams, so a run is
a pure function of (machine config, scenario, seed).  These tests hash
whole traces to catch any accidental nondeterminism (dict ordering,
id()-based tie-breaks, hidden globals) that per-field comparisons might
miss.
"""

import hashlib

import pytest

from repro import units
from repro.scenarios import av_pipeline, figure4, figure5, settop, table4_trio

#: The trace's own views; together they are the whole recorded run.
VIEWS = ("segments", "switches", "deadlines", "grant_changes", "blocks", "notes")


def fingerprint(scenario, duration_ms):
    scenario.rd.run_for(units.ms_to_ticks(duration_ms))
    views = [list(getattr(scenario.trace, name)) for name in VIEWS]
    return hashlib.sha256(repr(views).encode()).hexdigest()


BUILDERS = {
    "table4": (lambda seed: table4_trio(seed=seed), 200),
    "figure4": (lambda seed: figure4(seed=seed), 200),
    "figure5": (lambda seed: figure5(seed=seed), 150),
    "settop": (lambda seed: settop(seed=seed), 400),
    "av": (lambda seed: av_pipeline(seed=seed), 300),
}


class TestSameSeedSameTrace:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_repeat_runs_identical(self, name):
        builder, duration = BUILDERS[name]
        a = fingerprint(builder(5), duration)
        b = fingerprint(builder(5), duration)
        assert a == b


class TestSeedSensitivity:
    def test_calibrated_machine_runs_differ_across_seeds(self):
        # With stochastic switch costs, different seeds must actually
        # change the trace (the RNG is wired in, not ignored).
        builder, duration = BUILDERS["settop"]
        a = fingerprint(builder(1), duration)
        b = fingerprint(builder(2), duration)
        assert a != b

    def test_ideal_machine_runs_identical_across_seeds(self):
        # With no stochastic elements, the seed is irrelevant: the
        # schedule is pure arithmetic.
        a = fingerprint(table4_trio(seed=1), 200)
        b = fingerprint(table4_trio(seed=2), 200)
        assert a == b
