"""MPEG decoder model: Table 2 and I/B/P shedding semantics."""

import pytest

from repro import units
from repro.tasks.mpeg import DEFAULT_GOP, MpegDecoder

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


class TestResourceList:
    def test_matches_table2(self):
        rl = MpegDecoder().resource_list()
        rows = [(e.period, e.cpu_ticks) for e in rl]
        assert rows == [
            (900_000, 300_000),
            (3_600_000, 900_000),
            (2_700_000, 600_000),
            (3_600_000, 600_000),
        ]

    def test_rates_match_table2(self):
        rl = MpegDecoder().resource_list()
        assert [round(e.rate * 100, 1) for e in rl] == [33.3, 25.0, 22.2, 16.7]

    def test_labels_match_paper(self):
        rl = MpegDecoder().resource_list()
        assert [e.label for e in rl] == [
            "FullDecompress",
            "Drop_B_in_4",
            "Drop_B_in_3",
            "Drop_2B_in_4",
        ]


class TestGopValidation:
    def test_rejects_bad_frame_types(self):
        with pytest.raises(ValueError):
            MpegDecoder(gop="IXP")

    def test_rejects_gop_not_starting_with_i(self):
        with pytest.raises(ValueError):
            MpegDecoder(gop="BIP")


class TestFullQuality:
    def test_full_decompress_decodes_every_frame(self, ideal_rd):
        decoder = MpegDecoder()
        ideal_rd.admit(decoder.definition())
        ideal_rd.run_for(units.sec_to_ticks(1))
        # 30 fps for 1 s: every frame decoded, none dropped.
        assert decoder.stats.total_decoded >= 29
        assert sum(decoder.stats.dropped.values()) == 0
        assert not ideal_rd.trace.misses()

    def test_no_i_frames_lost_under_full_quality(self, ideal_rd):
        decoder = MpegDecoder()
        ideal_rd.admit(decoder.definition())
        ideal_rd.run_for(units.sec_to_ticks(1))
        assert decoder.stats.i_frames_lost == 0


class TestLoadShedding:
    def _run_degraded(self, ideal_rd):
        decoder = MpegDecoder()
        ideal_rd.admit(decoder.definition())
        # Crowd the machine so the decoder drops to a lower entry.
        admit_simple(ideal_rd, "hog", period_ms=10, rate=0.7)
        ideal_rd.run_for(units.sec_to_ticks(2))
        return decoder

    def test_degraded_decoder_drops_only_b_frames(self, ideal_rd):
        decoder = self._run_degraded(ideal_rd)
        assert sum(decoder.stats.dropped.values()) > 0
        assert decoder.stats.dropped["I"] == 0
        assert decoder.stats.dropped["P"] == 0

    def test_degraded_decoder_still_makes_deadlines(self, ideal_rd):
        self._run_degraded(ideal_rd)
        assert not ideal_rd.trace.misses()

    def test_frames_keep_arriving_at_30fps_equivalent(self, ideal_rd):
        decoder = self._run_degraded(ideal_rd)
        handled = decoder.stats.total_decoded + sum(decoder.stats.dropped.values())
        # 2 s of 30 fps input = 60 frames handled (decoded or shed).
        assert handled >= 55


class TestGopAccounting:
    def test_default_gop_shape(self):
        assert DEFAULT_GOP == "IBBPBBPBBPBBPBB"
        assert DEFAULT_GOP.count("I") == 1
        assert DEFAULT_GOP.count("B") == 10
