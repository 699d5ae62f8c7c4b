"""Every task model yields the ops it always yielded.

The models prebuild the ops whose tick count does not change inside a
loop and yield the same frozen instance again (``Compute`` is a frozen
dataclass, so one instance can be yielded any number of times).  That is
only an optimization if the *sequence* is untouched: same op types, same
ticks, same order, same stats at the end.  Each case below drives one
model's generator for two periods against a stub context — no kernel —
and compares what it yields with the sequence its pre-hoisting code
yielded, committed here run-length encoded as ``(type, ticks, repeats)``.
"""

import random
from itertools import groupby, islice
from types import SimpleNamespace

import pytest

from repro import units
from repro.tasks.ac3 import Ac3Decoder
from repro.tasks.busyloop import busy_loop, yielding_busy_loop
from repro.tasks.cooldown import CooldownTask
from repro.tasks.graphics2d import Renderer2D
from repro.tasks.graphics3d import Renderer3D
from repro.tasks.modem import Modem
from repro.tasks.mpeg import MpegDecoder
from repro.tasks.producer_consumer import Figure4Workload
from repro.tasks.stream import LiveMpegDecoder, TransportStream


class StubContext:
    """What a task body may touch: its grant, the clock, its RNG."""

    def __init__(self, cpu_ticks: int) -> None:
        self.grant = SimpleNamespace(cpu_ticks=cpu_ticks)
        self.now = 0
        self.rng = random.Random(5)


def drive(function, ctx, take=None):
    """Two periods of ``function``: two fresh calls run to completion
    (callback semantics), or the first ``take`` ops of one endless call
    (return semantics / bodies that never report done)."""
    if take is not None:
        return list(islice(function(ctx), take))
    ops = []
    for period in range(2):
        ctx.now = period * units.ms_to_ticks(40)
        ops.extend(function(ctx))
    return ops


def encode(ops):
    """Run-length encode as (type name, ticks or None, repeats)."""
    keys = [(type(op).__name__, getattr(op, "ticks", None)) for op in ops]
    return [(name, ticks, len(list(group))) for (name, ticks), group in groupby(keys)]


def C(ticks, repeats=1):
    return ("Compute", ticks, repeats)


DONE = ("DonePeriod", None, 1)
BLOCK = ("Block", None, 1)


def _mpeg(entry):
    def build():
        decoder = MpegDecoder()
        return getattr(decoder, entry), StubContext(300_000), None, lambda: (
            decoder.stats.decoded,
            decoder.stats.dropped,
        )

    return build


def _ac3(entry, blocks):
    def build():
        decoder = Ac3Decoder(blocks_per_frame=blocks)
        return getattr(decoder, entry), StubContext(0), None, lambda: (
            decoder.stats.frames_full,
            decoder.stats.frames_downmixed,
        )

    return build


def _modem():
    modem = Modem()
    return modem.service, StubContext(27_000), None, lambda: (
        modem.stats.periods_serviced,
        modem.stats.samples_processed,
    )


def _render2d():
    renderer = Renderer2D()
    return renderer.render, StubContext(0), 60, lambda: (
        renderer.stats.frames_completed,
        renderer.stats.work_done,
    )


def _render3d():
    renderer = Renderer3D(frame_work=units.ms_to_ticks(2))
    return renderer.render_frame, StubContext(0), 20, lambda: (
        renderer.stats.frames_completed,
        renderer.stats.work_done,
    )


def _cooldown(cpu_ticks):
    def build():
        task = CooldownTask()
        return task.noop_loop, StubContext(cpu_ticks), None, lambda: task.stats.noop_ticks

    return build


def _live_decoder():
    stream = TransportStream("s", buffer_capacity=4)
    stream.buffer.extend("IB")  # period 1 decodes I; period 2 decodes B
    decoder = LiveMpegDecoder(stream, synchronize=False)
    return decoder.decode, StubContext(0), None, lambda: (
        decoder.stats.decoded,
        decoder.stats.underflows,
    )


def _live_decoder_underflow():
    stream = TransportStream("s", buffer_capacity=4)
    stream.buffer.append("P")  # period 2 finds the buffer empty
    decoder = LiveMpegDecoder(stream, synchronize=True)
    return decoder.decode, StubContext(0), None, lambda: (
        decoder.stats.decoded,
        decoder.stats.underflows,
    )


def _figure4(entry, fixed, take, posts=0):
    def build():
        workload = Figure4Workload(fixed=fixed)
        if posts:
            workload.channel7.post(posts)  # data waiting for data_mgmt8
        return (
            getattr(workload, entry),
            StubContext(units.ms_to_ticks(3)),
            take,
            lambda: (
                workload.stats.items_produced,
                workload.stats.items_consumed,
                workload.stats.spin_ticks,
                workload.channel7.pending,
                workload.channel9.pending,
            ),
        )

    return build


def _busy_loop():
    return busy_loop, StubContext(0), 12, lambda: None


def _yielding_busy_loop():
    return yielding_busy_loop, StubContext(243_000), None, lambda: None


#: name -> (builder of (function, stub context, ops to take, stats
#: reader), the encoded op sequence and the stats the model gave before
#: any op was hoisted — recorded by running this driver on that code).
CASES = {
    "mpeg.full_decompress": (
        _mpeg("full_decompress"),  # frames I, B
        [C(1454, 330), C(180), C(727, 330), C(90)],
        ({"I": 1, "P": 0, "B": 1}, {"I": 0, "P": 0, "B": 0}),
    ),
    "mpeg.drop_b_in_4": (
        _mpeg("drop_b_in_4"),  # I b B P | b B P B
        [C(1454, 330), C(180), C(727, 330), C(90), C(1000, 330), DONE]
        + [C(727, 330), C(90), C(1000, 330), C(727, 330), C(90), DONE],
        ({"I": 1, "P": 2, "B": 3}, {"I": 0, "P": 0, "B": 2}),
    ),
    "mpeg.drop_b_in_3": (
        _mpeg("drop_b_in_3"),  # I b B | P b B
        [C(1454, 330), C(180), C(727, 330), C(90), DONE]
        + [C(1000, 330), C(727, 330), C(90), DONE],
        ({"I": 1, "P": 1, "B": 2}, {"I": 0, "P": 0, "B": 2}),
    ),
    "mpeg.drop_2b_in_4": (
        _mpeg("drop_2b_in_4"),  # I b b P | b b P B
        [C(1454, 330), C(180), C(1000, 330), DONE]
        + [C(1000, 330), C(727, 330), C(90), DONE],
        ({"I": 1, "P": 2, "B": 1}, {"I": 0, "P": 0, "B": 4}),
    ),
    "ac3.decode_full": (_ac3("decode_full", 6), [C(17280, 12)], (2, 0)),
    "ac3.decode_downmix": (_ac3("decode_downmix", 6), [C(8640, 12)], (0, 2)),
    "ac3.decode_full, 7 blocks": (
        _ac3("decode_full", 7),
        [C(14811, 7), C(3), C(14811, 7), C(3)],
        (2, 0),
    ),
    "modem.service": (_modem, [C(337, 160)], (2, 160)),
    "graphics2d.render": (
        _render2d,
        [C(5400, 18), C(3463), C(5400, 19), C(4751), C(5400, 20), C(2355)],
        (2, 316014),
    ),
    "graphics3d.render_frame": (_render3d, [C(6750, 20)], (2, 128250)),
    "cooldown.noop_loop": (_cooldown(135_000), [C(13500, 20)], 270000),
    "cooldown.noop_loop, ragged grant": (
        _cooldown(40_600),
        [C(13500, 3), C(100), C(13500, 3), C(100)],
        81200,
    ),
    "stream.decode": (
        _live_decoder,
        [C(300000), DONE, C(150000), DONE],
        ({"I": 1, "P": 0, "B": 1}, 0),
    ),
    "stream.decode, underflow": (
        _live_decoder_underflow,
        [C(205223), DONE, ("InsertIdleCycles", 4478, 1), DONE],
        ({"I": 0, "P": 1, "B": 0}, 1),
    ),
    "figure4.producer7": (
        _figure4("producer7", fixed=False, take=5),
        [C(27000, 5)],
        (4, 0, 0, 4, 0),
    ),
    "figure4.producer9": (
        _figure4("producer9", fixed=False, take=None),
        [C(27000, 3), DONE, C(27000, 3), DONE],
        (6, 0, 0, 0, 6),
    ),
    "figure4.data_mgmt8, fixed": (
        _figure4("data_mgmt8", fixed=True, take=6),
        [BLOCK, C(6750), BLOCK, C(6750), BLOCK, C(6750)],
        (0, 2, 0, 0, 0),
    ),
    "figure4.data_mgmt8, spinning": (
        _figure4("data_mgmt8", fixed=False, take=6, posts=2),
        [C(6750, 2), C(540, 4)],
        (0, 2, 1620, 0, 0),
    ),
    "busyloop.busy_loop": (_busy_loop, [C(2700, 12)], None),
    "busyloop.yielding_busy_loop": (
        _yielding_busy_loop,
        [C(243000), DONE, C(243000), DONE],
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_yields_the_ops_it_always_yielded(name):
    build, expected_ops, expected_stats = CASES[name]
    function, ctx, take, stats = build()
    assert encode(drive(function, ctx, take)) == expected_ops
    assert stats() == expected_stats


def test_a_frames_macroblocks_are_one_op():
    """What the hoist buys: no construction per macroblock."""
    ops = list(MpegDecoder().full_decompress(StubContext(300_000)))
    assert len({id(op) for op in ops[:330]}) == 1
