"""Scenario library: each canonical scenario builds and behaves."""

import pytest

from repro import units
from repro.metrics import miss_rate
from repro.scenarios import (
    av_pipeline,
    dual_stream,
    figure4,
    figure5,
    settop,
    table4_trio,
)


def ms(x):
    return units.ms_to_ticks(x)


class TestTable4Trio:
    def test_grant_rates(self):
        scenario = table4_trio()
        gs = scenario.rd.current_grant_set
        assert gs[scenario.threads["Modem"].tid].rate == pytest.approx(0.10)
        assert gs[scenario.threads["MPEG"].tid].rate == pytest.approx(1 / 3)

    def test_runs_clean(self):
        scenario = table4_trio().run_for(ms(100))
        assert not scenario.trace.misses()

    def test_names_map(self):
        scenario = table4_trio()
        names = scenario.names()
        assert set(names.values()) == {"Modem", "3D", "MPEG"}


class TestFigure4:
    def test_buggy_variant_spins(self):
        scenario = figure4(fixed=False).run_for(ms(200))
        assert scenario.extras["workload"].stats.spin_ticks > 0

    def test_fixed_variant_blocks(self):
        scenario = figure4(fixed=True).run_for(ms(200))
        assert scenario.extras["workload"].stats.spin_ticks == 0

    def test_five_threads_named(self):
        scenario = figure4()
        assert set(scenario.threads) == {"p7", "dm8", "p9", "dm10", "SporadicServer"}


class TestFigure5:
    def test_staircase_reproduces(self):
        from repro.metrics import allocation_series

        scenario = figure5().run_for(ms(150))
        t2 = scenario.threads["thread2"]
        series = [
            round(units.ticks_to_ms(v))
            for _, v in allocation_series(scenario.trace, t2.tid)
        ]
        assert series[:8] == [9, 9, 4, 4, 3, 3, 2, 2]


class TestSettop:
    def test_modem_wakes(self):
        from repro.core.threads import ThreadState

        scenario = settop(ring_ms=100.0).run_for(ms(400))
        assert scenario.threads["Modem"].state is ThreadState.ACTIVE
        assert not scenario.trace.misses()


class TestAvPipeline:
    def test_runs_within_reserve(self):
        scenario = av_pipeline().run_for(units.sec_to_ticks(1))
        assert miss_rate(scenario.trace) == 0.0
        assert scenario.rd.kernel.reserve.consumed_fraction(scenario.rd.now) <= scenario.rd.kernel.reserve.fraction


class TestDualStream:
    def test_second_stream_stays_locked(self):
        scenario = dual_stream(skew_ppm=2000.0, horizon_sec=6.0)
        scenario.rd.run_until(units.sec_to_ticks(6))
        stream2 = scenario.extras["stream2"]
        assert stream2.stats.total_overflow == 0
        assert not scenario.trace.misses()


class TestFuzzed:
    """The fuzz generator's scenario for a seed, wired by the runner's
    own builders: what ``python -m repro fuzz`` runs for that seed."""

    def test_core_builder_runs_clean(self):
        from repro.fuzz import generate
        from repro.fuzz.runner import _CoreRun

        spec = generate(3)
        run = _CoreRun(spec).script()
        run.rd.run_for(ms(100))
        assert run.rd.sanitizer.ok
        assert spec.seed == 3
        # Threads admitted at t=0 are named; later arrivals are scripted.
        for name in run._tids:
            assert name in {t.name for t in spec.tasks}

    def test_cluster_builder_returns_a_simulation(self):
        from repro.fuzz import generate
        from repro.fuzz.runner import build_cluster

        sim = build_cluster(generate(2, cluster=True))
        sim.run_until(sim.horizon)
        sim.settle()
        assert sim.all_sanitizers_ok

    def test_same_seed_same_mix(self):
        from repro.fuzz import generate

        assert generate(7) == generate(7)
