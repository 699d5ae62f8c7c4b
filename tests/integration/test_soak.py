"""Capstone soak: everything at once, audited.

Ten simulated seconds of a set-top box living its life: periodic A/V
decoding, a 3D renderer, a quiescent modem that answers a call and
hangs up, sporadic batch jobs through the Sporadic Server, a live
drifting transport stream, interrupt load inside the reserve, runtime
policy flips, and one task that crashes — all with the calibrated
context-switch cost model.  The run must end with zero deadline misses
for eligible periods and a clean trace audit.
"""

import pytest

from repro import SimConfig, SporadicServer, units
from repro.config import MachineConfig
from repro.core.distributor import ResourceDistributor
from repro.core.threads import ThreadState
from repro.machine.interrupts import InterruptSource
from repro.metrics import miss_rate, validate_trace
from repro.tasks.ac3 import Ac3Decoder
from repro.tasks.base import Compute
from repro.tasks.graphics3d import Renderer3D
from repro.tasks.mpeg import MpegDecoder
from repro.tasks.modem import Modem
from repro.tasks.stream import LiveMpegDecoder, TransportStream

HORIZON_SEC = 10.0


def batch_job(total_ms):
    def job(ctx):
        remaining = units.ms_to_ticks(total_ms)
        while remaining > 0:
            step = min(units.us_to_ticks(200), remaining)
            yield Compute(step)
            remaining -= step

    return job


def crasher(ctx):
    yield Compute(units.ms_to_ticks(2))
    raise RuntimeError("corrupted input")


@pytest.fixture(scope="module")
def soak():
    ms = units.ms_to_ticks
    rd = ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=1234))
    horizon = units.sec_to_ticks(HORIZON_SEC)

    server = SporadicServer(rd, greedy=True)
    mpeg = MpegDecoder("dvd-video")
    ac3 = Ac3Decoder("dvd-audio")
    renderer = Renderer3D("render", use_scaler=True)
    modem = Modem("modem")
    stream = TransportStream("stream2", skew_ppm=1500.0, buffer_capacity=6)
    live = LiveMpegDecoder(stream, synchronize=True)

    threads = {
        "video": rd.admit(mpeg.definition()),
        "audio": rd.admit(ac3.definition()),
        "render": rd.admit(renderer.definition()),
        "modem": rd.admit(modem.definition(start_quiescent=True)),
        "live": rd.admit(live.definition()),
    }
    stream.attach(rd.kernel, horizon)

    irq = InterruptSource("nic", rate_hz=500, service_us=15)
    irq.attach(rd.kernel, horizon)

    jobs = [server.spawn(f"job{i}", batch_job(3)) for i in range(3)]

    # Life events.
    rd.at(units.sec_to_ticks(2), lambda: rd.wake(threads["modem"].tid), "ring")
    rd.at(
        units.sec_to_ticks(5),
        lambda: rd.enter_quiescent(threads["modem"].tid),
        "hang up",
    )
    vid = rd.policy_box.policy_id("dvd-video")
    aud = rd.policy_box.policy_id("dvd-audio")
    ren = rd.policy_box.policy_id("render")
    mod = rd.policy_box.policy_id("modem")
    liv = rd.policy_box.policy_id("stream2.decoder")
    rd.at(
        units.sec_to_ticks(4),
        lambda: rd.set_policy_override(
            {vid: 26, aud: 12, ren: 20, mod: 10, liv: 25}
        ),
        "user tweaks policy",
    )
    # A buggy app shows up mid-run and dies; the system shrugs.
    from repro.core.resource_list import ResourceList, ResourceListEntry
    from repro.tasks.base import TaskDefinition

    def admit_crasher():
        try:
            rd.admit(
                TaskDefinition(
                    name="flaky",
                    resource_list=ResourceList(
                        [ResourceListEntry(ms(10), ms(1), crasher, "flaky")]
                    ),
                )
            )
        except Exception:
            pass

    rd.at(units.sec_to_ticks(6), admit_crasher, "flaky app starts")

    rd.run_until(horizon)
    return rd, threads, {"server": server, "stream": stream, "live": live,
                         "mpeg": mpeg, "jobs": jobs, "irq": irq}


class TestSoak:
    def test_zero_miss_rate(self, soak):
        rd, threads, extras = soak
        assert miss_rate(rd.trace) == 0.0

    def test_trace_audit_clean(self, soak):
        rd, threads, extras = soak
        report = validate_trace(rd.trace, end_time=rd.now)
        assert report.ok, report.summary()

    def test_no_i_frames_lost_anywhere(self, soak):
        rd, threads, extras = soak
        assert extras["mpeg"].stats.i_frames_lost == 0
        assert extras["stream"].stats.overflow_dropped["I"] == 0

    def test_modem_serviced_its_call_window(self, soak):
        rd, threads, extras = soak
        modem = threads["modem"]
        busy = rd.trace.busy_ticks(
            modem.tid, units.sec_to_ticks(2), units.sec_to_ticks(5)
        )
        assert busy > units.ms_to_ticks(200)  # ~10 % of a 3 s window
        assert modem.state is ThreadState.QUIESCENT  # hung up again

    def test_sporadic_jobs_all_completed(self, soak):
        rd, threads, extras = soak
        assert all(j.state is ThreadState.EXITED for j in extras["jobs"])

    def test_crasher_contained(self, soak):
        rd, threads, extras = soak
        assert rd.kernel.crashes
        # Everyone else is still standing.
        for name in ("video", "audio", "render", "live"):
            assert threads[name].state is ThreadState.ACTIVE

    def test_overhead_inside_reserve(self, soak):
        rd, threads, extras = soak
        assert rd.kernel.reserve.consumed_fraction(rd.now) <= rd.kernel.reserve.fraction

    def test_policy_override_was_applied(self, soak):
        rd, threads, extras = soak
        changes = [
            g
            for g in rd.trace.grant_changes
            if g.time >= units.sec_to_ticks(4) and g.reason == "grant change"
        ]
        assert changes
