"""Every task model does the work it always did.

A model states a unit of work — the ticks it computes back to back,
with nothing in between — as one ``Compute``; it used to cut a frame
into macroblock ops, a grant into chunks.  The kernel charges a
``Compute`` the same however long it is (``tests/properties/
test_prop_edf_heap.py``, *granularity is inert*), so what has to stay
untouched is the *work*: per period, the ticks computed between
consecutive non-``Compute`` ops, those ops in order, and the stats at
the end.  Each case below drives one model's generator against a stub
context — no kernel — and compares that with the op sequence its
chunked code yielded, committed here per period, run-length encoded as
``(type, ticks, repeats)``.
"""

import random
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


def key(op):
    return type(op).__name__, getattr(op, "ticks", None)


def drive(function, ctx, budget=None):
    """Two periods of ``function`` as ``(type name, ticks)`` keys: two
    fresh calls run to completion (callback semantics), or one endless
    call (return semantics / bodies that never report done) run until
    it has computed ``budget`` ticks, the last op cut there as a timer
    interrupt would cut it."""
    if budget is None:
        periods = []
        for period in range(2):
            ctx.now = period * units.ms_to_ticks(40)
            periods.append([key(op) for op in function(ctx)])
        return periods
    keys, spent = [], 0
    for op in function(ctx):
        name, ticks = key(op)
        if name == "Compute" and spent + ticks >= budget:
            keys.append((name, budget - spent))
            break
        keys.append((name, ticks))
        spent += ticks or 0
    return [keys]


def expand(pins):
    """The keys a run-length pin ``[(type, ticks, repeats), ...]`` stands for."""
    return [(name, ticks) for name, ticks, repeats in pins for _ in range(repeats)]


def work(keys):
    """Fold keys into units of work: the ticks computed between
    consecutive non-Compute ops, and those ops in order."""
    folded = []
    for name, ticks in keys:
        if name == "Compute" and folded and folded[-1][0] == "Compute":
            folded[-1] = (name, folded[-1][1] + ticks)
        else:
            folded.append((name, ticks))
    return folded


def C(ticks, repeats=1):
    return ("Compute", ticks, repeats)


DONE = ("DonePeriod", None, 1)
BLOCK = ("Block", None, 1)


def _mpeg(entry):
    def build():
        decoder = MpegDecoder()
        return getattr(decoder, entry), StubContext(300_000), False, lambda: (
            decoder.stats.decoded,
            decoder.stats.dropped,
        )

    return build


def _ac3(entry):
    def build():
        decoder = Ac3Decoder()
        return getattr(decoder, entry), StubContext(0), False, lambda: (
            decoder.stats.frames_full,
            decoder.stats.frames_downmixed,
        )

    return build


def _modem():
    modem = Modem()
    return modem.service, StubContext(27_000), False, lambda: (
        modem.stats.periods_serviced,
        modem.stats.samples_processed,
    )


def _render2d():
    renderer = Renderer2D()
    return renderer.render, StubContext(0), True, lambda: (
        renderer.stats.frames_completed,
        renderer.stats.work_done,
    )


def _render3d():
    renderer = Renderer3D(frame_work=units.ms_to_ticks(2))
    return renderer.render_frame, StubContext(0), True, lambda: (
        renderer.stats.frames_completed,
        renderer.stats.work_done,
    )


def _cooldown(cpu_ticks):
    def build():
        task = CooldownTask()
        return task.noop_loop, StubContext(cpu_ticks), False, lambda: task.stats.noop_ticks

    return build


def _live_decoder():
    stream = TransportStream("s", buffer_capacity=4)
    stream.buffer.extend("IB")  # period 1 decodes I; period 2 decodes B
    decoder = LiveMpegDecoder(stream, synchronize=False)
    return decoder.decode, StubContext(0), False, lambda: (
        decoder.stats.decoded,
        decoder.stats.underflows,
    )


def _live_decoder_underflow():
    stream = TransportStream("s", buffer_capacity=4)
    stream.buffer.append("P")  # period 2 finds the buffer empty
    decoder = LiveMpegDecoder(stream, synchronize=True)
    return decoder.decode, StubContext(0), False, lambda: (
        decoder.stats.decoded,
        decoder.stats.underflows,
    )


def _figure4(entry, fixed, endless, posts=0):
    def build():
        workload = Figure4Workload(fixed=fixed)
        if posts:
            workload.channel7.post(posts)  # data waiting for data_mgmt8
        return (
            getattr(workload, entry),
            StubContext(units.ms_to_ticks(3)),
            endless,
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
    return busy_loop, StubContext(0), True, lambda: None


def _yielding_busy_loop():
    return yielding_busy_loop, StubContext(243_000), False, lambda: None


#: name -> (builder of (function, stub context, endless?, stats reader),
#: the op sequence the model's chunked code yielded — one run-length
#: list per period, recorded by running a driver like this one on that
#: code; an endless body has one list, and is driven for as many ticks
#: as it pins — and the stats the model gave then.
CASES = {
    "mpeg.full_decompress": (
        _mpeg("full_decompress"),  # frames I, B
        [[C(1454, 330), C(180)], [C(727, 330), C(90)]],
        ({"I": 1, "P": 0, "B": 1}, {"I": 0, "P": 0, "B": 0}),
    ),
    "mpeg.drop_b_in_4": (
        _mpeg("drop_b_in_4"),  # I b B P | b B P B
        [
            [C(1454, 330), C(180), C(727, 330), C(90), C(1000, 330), DONE],
            [C(727, 330), C(90), C(1000, 330), C(727, 330), C(90), DONE],
        ],
        ({"I": 1, "P": 2, "B": 3}, {"I": 0, "P": 0, "B": 2}),
    ),
    "mpeg.drop_b_in_3": (
        _mpeg("drop_b_in_3"),  # I b B | P b B
        [
            [C(1454, 330), C(180), C(727, 330), C(90), DONE],
            [C(1000, 330), C(727, 330), C(90), DONE],
        ],
        ({"I": 1, "P": 1, "B": 2}, {"I": 0, "P": 0, "B": 2}),
    ),
    "mpeg.drop_2b_in_4": (
        _mpeg("drop_2b_in_4"),  # I b b P | b b P B
        [
            [C(1454, 330), C(180), C(1000, 330), DONE],
            [C(1000, 330), C(727, 330), C(90), DONE],
        ],
        ({"I": 1, "P": 2, "B": 1}, {"I": 0, "P": 0, "B": 4}),
    ),
    "ac3.decode_full": (_ac3("decode_full"), [[C(17280, 6)]] * 2, (2, 0)),
    "ac3.decode_downmix": (_ac3("decode_downmix"), [[C(8640, 6)]] * 2, (0, 2)),
    "modem.service": (_modem, [[C(337, 80)]] * 2, (2, 160)),
    "graphics2d.render": (
        _render2d,
        [[C(5400, 18), C(3463), C(5400, 19), C(4751), C(5400, 20), C(2355)]],
        (2, 316014),
    ),
    "graphics3d.render_frame": (_render3d, [[C(6750, 20)]], (2, 128250)),
    "cooldown.noop_loop": (_cooldown(135_000), [[C(13500, 10)]] * 2, 270000),
    "cooldown.noop_loop, ragged grant": (
        _cooldown(40_600),
        [[C(13500, 3), C(100)]] * 2,
        81200,
    ),
    "stream.decode": (
        _live_decoder,
        [[C(300000), DONE], [C(150000), DONE]],
        ({"I": 1, "P": 0, "B": 1}, 0),
    ),
    "stream.decode, underflow": (
        _live_decoder_underflow,
        [[C(205223), DONE], [("InsertIdleCycles", 4478, 1), DONE]],
        ({"I": 0, "P": 1, "B": 0}, 1),
    ),
    "figure4.producer7": (
        _figure4("producer7", fixed=False, endless=True),
        [[C(27000, 5)]],
        (4, 0, 0, 4, 0),
    ),
    "figure4.producer9": (
        _figure4("producer9", fixed=False, endless=False),
        [[C(27000, 3), DONE]] * 2,
        (6, 0, 0, 0, 6),
    ),
    "figure4.data_mgmt8, fixed": (
        _figure4("data_mgmt8", fixed=True, endless=True),
        [[BLOCK, C(6750), BLOCK, C(6750), BLOCK, C(6750)]],
        (0, 2, 0, 0, 0),
    ),
    "figure4.data_mgmt8, spinning": (
        _figure4("data_mgmt8", fixed=False, endless=True, posts=2),
        [[C(6750, 2), C(540, 4)]],
        (0, 2, 1620, 0, 0),
    ),
    "busyloop.busy_loop": (_busy_loop, [[C(2700, 12)]], None),
    "busyloop.yielding_busy_loop": (
        _yielding_busy_loop,
        [[C(243000), DONE]] * 2,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_yields_the_ops_it_always_yielded(name):
    build, pinned, expected_stats = CASES[name]
    function, ctx, endless, stats = build()
    expected = [expand(period) for period in pinned]
    budget = None
    if endless:
        budget = sum(ticks for op, ticks in expected[0] if op == "Compute")
    driven = drive(function, ctx, budget)
    assert [work(period) for period in driven] == [work(period) for period in expected]
    assert stats() == expected_stats


def test_a_frames_macroblocks_are_one_op():
    """A decoded frame is the unit of work: one op, its whole cost."""
    ops = list(MpegDecoder().full_decompress(StubContext(300_000)))
    assert [key(op) for op in ops] == [("Compute", 480_000)]  # an I frame
