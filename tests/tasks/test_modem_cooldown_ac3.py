"""Modem, cool-down, and AC3 task models."""

import pytest

from repro import units
from repro.tasks.ac3 import AC3_FULL_COST, AC3_PERIOD, Ac3Decoder
from repro.tasks.cooldown import CooldownTask
from repro.tasks.modem import MODEM_CPU, MODEM_PERIOD, SAMPLES_PER_PERIOD, Modem


class TestModem:
    def test_table4_parameters(self):
        rl = Modem().resource_list()
        assert rl.maximum.period == MODEM_PERIOD == 270_000
        assert rl.maximum.cpu_ticks == MODEM_CPU == 27_000
        assert rl.maximum.rate == pytest.approx(0.10)

    def test_quiescent_by_default(self):
        assert Modem().definition().start_quiescent

    def test_processes_samples_when_running(self, ideal_rd):
        modem = Modem()
        ideal_rd.admit(modem.definition(start_quiescent=False))
        ideal_rd.run_for(units.ms_to_ticks(50))
        assert modem.stats.periods_serviced >= 4
        assert modem.stats.samples_processed >= 4 * SAMPLES_PER_PERIOD
        assert not ideal_rd.trace.misses()


class TestCooldown:
    def test_levels_descend(self):
        rl = CooldownTask().resource_list()
        rates = [e.rate for e in rl]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] == pytest.approx(0.5)

    def test_definition_is_quiescent(self):
        assert CooldownTask().definition().start_quiescent

    def test_noop_loop_consumes_grant(self, ideal_rd):
        task = CooldownTask()
        t = ideal_rd.admit(task.definition())
        ideal_rd.wake(t.tid)
        ideal_rd.run_for(units.ms_to_ticks(50))
        assert task.stats.noop_ticks >= units.ms_to_ticks(15)


class TestAc3:
    def test_period_is_one_sync_frame(self):
        assert AC3_PERIOD == units.ms_to_ticks(32)

    def test_full_decode_is_12_percent(self):
        assert AC3_FULL_COST / AC3_PERIOD == pytest.approx(0.12, abs=0.001)

    def test_downmix_is_half_cost(self):
        rl = Ac3Decoder().resource_list()
        assert rl.minimum.cpu_ticks * 2 == pytest.approx(rl.maximum.cpu_ticks, abs=2)

    def test_decodes_full_quality_unloaded(self, ideal_rd):
        decoder = Ac3Decoder()
        ideal_rd.admit(decoder.definition())
        ideal_rd.run_for(units.sec_to_ticks(1))
        assert decoder.stats.frames_full >= 30  # ~31 frames/s at 32 ms
        assert decoder.stats.frames_downmixed == 0
        assert not ideal_rd.trace.misses()

    def test_downmixes_under_pressure(self, ideal_rd):
        from tests.conftest import admit_simple

        decoder = Ac3Decoder()
        ideal_rd.admit(decoder.definition())
        admit_simple(ideal_rd, "hog", period_ms=10, rate=0.93)
        ideal_rd.run_for(units.sec_to_ticks(1))
        assert decoder.stats.frames_downmixed > 0
        assert not ideal_rd.trace.misses()
