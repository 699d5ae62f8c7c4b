"""Kernel corner cases: ops at boundaries, assignments, postponement."""

import pytest

from repro import MachineConfig, SimConfig, SporadicServer, TaskDefinition, units
from repro.core.distributor import ResourceDistributor
from repro.core.kernel import SliceEnd
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.threads import ThreadState
from repro.errors import SimulationError
from repro.sim.trace import SegmentKind
from repro.tasks.base import (
    AssignGrant,
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    PreemptionConfig,
)
from repro.tasks.channels import Channel
from repro.workloads import single_entry_definition

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


def one_entry(name, fn, period_ms=10, rate=0.4):
    period = ms(period_ms)
    return TaskDefinition(
        name=name,
        resource_list=ResourceList(
            [ResourceListEntry(period, round(period * rate), fn, name)]
        ),
    )


class TestInsertIdleCycles:
    def test_multiple_inserts_accumulate(self, ideal_rd):
        starts = []

        def task(ctx):
            starts.append(ctx.delivery.period_start)
            yield Compute(ms(1))
            yield InsertIdleCycles(ms(1))
            yield InsertIdleCycles(ms(2))
            yield DonePeriod()

        ideal_rd.admit(one_entry("poster", task))
        ideal_rd.run_for(ms(50))
        gaps = {b - a for a, b in zip(starts, starts[1:])}
        # 10 ms period + 3 ms accumulated postponement each period.
        assert gaps == {ms(13)}

    def test_postponed_thread_does_not_run_between_periods(self, ideal_rd):
        def task(ctx):
            yield Compute(ms(2))
            yield InsertIdleCycles(ms(5))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("poster", task))
        ideal_rd.run_for(ms(60))
        for a, b in zip(
            ideal_rd.trace.segments_for(thread.tid),
            ideal_rd.trace.segments_for(thread.tid)[1:],
        ):
            assert b.start - a.end >= ms(10) + ms(5) - ms(2) - 1


class TestAssignGrantEdges:
    def test_assign_to_unknown_task_is_ignored(self, ideal_rd):
        def assigner(ctx):
            yield AssignGrant(9999, ms(1))
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("assigner", assigner))
        ideal_rd.run_for(ms(30))
        assert not ideal_rd.trace.misses()
        assert thread.assignment_target is None

    def test_assign_to_periodic_thread_is_ignored(self, ideal_rd):
        other = admit_simple(ideal_rd, "other", period_ms=10, rate=0.2)

        def assigner(ctx):
            yield AssignGrant(other.tid, ms(1))
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("assigner", assigner))
        ideal_rd.run_for(ms(30))
        assert thread.assignment_target is None

    def test_assignment_survives_period_boundaries(self, ideal_rd):
        """A 30 ms assignment against a 1 ms/10 ms server grant spans
        many periods ('the assignment extends over multiple periods')."""
        progress = []

        def long_job(ctx):
            for _ in range(300):
                yield Compute(units.us_to_ticks(100))
                progress.append(ctx.now)

        server = SporadicServer(
            ideal_rd,
            period=ms(10),
            cpu_ticks=ms(1),
            slice_ticks=ms(30),
            greedy=False,
        )
        job = server.spawn("long", long_job)
        admit_simple(ideal_rd, "load", period_ms=10, rate=0.8, greedy=True)
        ideal_rd.run_for(ms(400))
        assert job.state is ThreadState.EXITED
        spread = progress[-1] - progress[0]
        assert spread > ms(100)  # work spread across many server periods


class TestBlockingCorners:
    def test_block_with_pending_post_does_not_block(self, ideal_rd):
        channel = Channel("pre")
        channel.post()
        ran = []

        def task(ctx):
            yield Block(channel)
            ran.append(ctx.now)
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("taker", task))
        ideal_rd.run_for(ms(15))
        assert ran  # the pre-posted item was consumed without blocking
        # Period 0 produced no Block record; the fresh period-1 call
        # blocks (callback semantics, empty channel).
        period0_blocks = [
            b for b in ideal_rd.trace.blocks if b.blocked and b.time < ms(10)
        ]
        assert period0_blocks == []

    def test_two_threads_blocked_on_one_channel_wake_in_turn(self, ideal_rd):
        channel = Channel("shared")
        woken = []

        def make(name):
            def task(ctx):
                yield Block(channel)
                woken.append(name)
                yield Compute(ms(1))

            return one_entry(name, task, rate=0.2)

        ideal_rd.admit(make("a"))
        ideal_rd.admit(make("b"))
        ideal_rd.at(ms(15), channel.post)
        ideal_rd.at(ms(25), channel.post)
        ideal_rd.run_for(ms(60))
        assert sorted(woken) == ["a", "b"]


class TestEventApi:
    def test_past_event_rejected(self, ideal_rd):
        ideal_rd.run_for(ms(10))
        with pytest.raises(SimulationError):
            ideal_rd.kernel.at(ms(5), lambda: None)

    def test_an_event_a_body_books_in_its_slice_fires_when_due(self, ideal_rd):
        """A booking due before the running slice's stop is a scheduling
        event: the slice, whose stop was set without it, does not run
        past it, so the event fires when due, not at the slice's end."""
        fired = []

        def task(ctx):
            yield Compute(ms(1))
            due = ctx.now + ms(1)
            ideal_rd.at(due, lambda: fired.append((due, ideal_rd.now)))
            yield Compute(ms(5))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("booker", task, period_ms=20, rate=0.5))
        ideal_rd.run_for(ms(20))
        assert fired == [(ms(2), ms(2))]
        assert thread.total_used_ticks == ms(6) and ideal_rd.trace.misses() == []

    def test_an_event_booked_in_a_grace_slice_fires_when_due(self):
        """A grace slice is a slice: a booking due inside it ends it."""
        us = units.us_to_ticks
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))
        fired = []

        def task(ctx):
            # Cut at 10 ms; the last 20 us run in the grace slice.
            yield Compute(ms(10) + us(20) - ctx.now)
            due = ctx.now + us(50)
            rd.at(due, lambda: fired.append((due, rd.now)))
            yield Compute(us(500))
            yield DonePeriod()

        TestWholeOpRuns._polite_run(rd, task)
        rd.run_for(ms(1))
        assert fired == [(ms(10) + us(70), ms(10) + us(70))]

    @pytest.mark.xfail(
        strict=True,
        reason="open: a booking made before a grace slice and due inside "
        "it fires at the slice's end (EXPERIMENTS.md, known deviation 7)",
    )
    def test_an_event_booked_before_a_grace_slice_fires_when_due(self):
        """A grace slice is a slice whenever the booking was made: one
        due inside it ends it.  Booked before the run, the event due at
        10.05 ms fires at 10.15 ms, when the 150 us slice ends."""
        us = units.us_to_ticks
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=5))

        def polite(ctx):
            while True:
                yield Compute(us(50))

        rd.admit(
            TaskDefinition(
                name="polite",
                resource_list=ResourceList(
                    [ResourceListEntry(ms(30), ms(12), polite, "polite")]
                ),
                preemption=PreemptionConfig(check_interval=us(150)),
            )
        )
        rd.admit(single_entry_definition("short", period_ms=10, rate=0.3))
        due = ms(10.05)
        fired = []
        rd.at(due, lambda: fired.append(rd.now))
        rd.run_for(ms(40))
        assert fired == [due]

    def test_run_until_requires_policy(self):
        from repro import MachineConfig, SimConfig
        from repro.core.kernel import Kernel

        kernel = Kernel(MachineConfig.ideal(), SimConfig(seed=0))
        with pytest.raises(SimulationError):
            kernel.run_until(1000)

    def test_double_policy_bind_rejected(self, ideal_rd):
        with pytest.raises(SimulationError):
            ideal_rd.kernel.bind_policy(object())


class TestZeroWorkPeriods:
    def test_instant_done_task_is_fine(self, ideal_rd):
        """A task that declares done immediately consumes nothing but
        still closes periods without being counted as missing."""

        def lazy(ctx):
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("lazy", lazy))
        ideal_rd.run_for(ms(50))
        outcomes = ideal_rd.trace.deadlines_for(thread.tid)
        assert len(outcomes) == 5
        assert not any(o.missed for o in outcomes)


def spy_on_slices(rd):
    """Record (outcome, clock) of every ``_execute`` call."""
    kernel, real, slices = rd.kernel, rd.kernel._execute, []

    def execute(thread, stop):
        outcome = real(thread, stop)
        slices.append((outcome, kernel.now))
        return outcome

    kernel._execute = execute
    return slices


#: First op of the bodies below.  A first activation leaves a reschedule
#: pending, which ends the slice after the first op fetched, whatever it
#: is; this one takes that, so the ops under test start a fresh slice.
SETTLE = InsertIdleCycles(0)


class TestWholeOpRuns:
    """Whole ops, exactly filling ops and cut ops are all charged on
    the one compute path; what a run looks like from outside does not
    depend on where its op boundaries fall."""

    def test_op_that_exactly_fills_the_slice_is_consumed_not_run(self, ideal_rd):
        def task(ctx):
            yield SETTLE
            yield Compute(ms(1))
            yield Compute(ms(1))  # ends on the tick of the event below
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("filler", task))
        ideal_rd.at(ms(2), lambda: None)
        slices = spy_on_slices(ideal_rd)
        ideal_rd.run_for(ms(5))
        # The third op, fetched at the stop, ended the indulgence there
        # and waited in pending_compute for the next slice.
        assert slices[1] == (SliceEnd.FORCED, ms(2))
        assert thread.used == ms(3) and thread.completed_at == ms(3)

    def test_op_that_exactly_exhausts_the_grant_is_consumed_not_run(self, ideal_rd):
        requests = []

        def task(ctx):
            yield SETTLE
            yield Compute(ms(3))
            yield Compute(ms(1))  # the grant is 4 ms
            yield Compute(ms(1))

        thread = ideal_rd.admit(one_entry("spender", task))
        hook = ideal_rd.scheduler.on_overtime_request
        ideal_rd.scheduler.on_overtime_request = lambda t: (
            requests.append((t.name, ideal_rd.now)),
            hook(t),
        )
        ideal_rd.run_for(ms(4))
        assert thread.completed_at == ms(4)
        assert thread.remaining == 0 and thread.used == ms(4)
        assert requests == [("spender", ms(4))]
        ideal_rd.run_for(ms(2))  # the fifth millisecond is overtime
        assert thread.overtime_used == ms(1)
        assert [
            (s.start, s.end, s.kind) for s in ideal_rd.trace.segments_for(thread.tid)
        ] == [(0, ms(4), SegmentKind.GRANTED), (ms(4), ms(5), SegmentKind.OVERTIME)]

    @staticmethod
    def _polite_run(rd, task):
        """``task`` under controlled preemption, cut at 10 ms by a
        shorter-period task's boundary and run on in a grace slice."""
        us = units.us_to_ticks
        admit_simple(rd, "short", period_ms=10, rate=0.2)
        thread = rd.admit(
            TaskDefinition(
                name="polite",
                resource_list=ResourceList(
                    [ResourceListEntry(ms(30), us(8050), task, "polite")]
                ),
                preemption=PreemptionConfig(check_interval=us(150)),
            )
        )
        rd.run_until(ms(10) + us(150))
        return thread

    def test_grant_exhausted_inside_a_grace_slice_is_consumed_not_run(self):
        """A grace slice (section 5.6) may outlast the grant: the run is
        granted up to the grant's last tick and overtime after it,
        whether or not an op boundary falls on that tick."""
        us = units.us_to_ticks

        def task(ctx):
            yield SETTLE
            yield Compute(us(7900))  # 2.0 -> 9.9 ms
            yield Compute(us(120))  # cut at 10 ms by the short task's boundary
            yield Compute(us(30))  # ends on the grant's last tick, 10.05 ms
            yield Compute(us(50))
            yield DonePeriod()

        def one_op(ctx):
            yield SETTLE
            yield Compute(us(8100))  # the same work; the grant is 8050 us
            yield DonePeriod()

        for body in (task, one_op):
            rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))
            thread = self._polite_run(rd, body)
            assert thread.completed_at == ms(10) + us(50)
            assert thread.used == us(8050) and thread.overtime_used == us(50)
            assert [
                (s.start, s.end, s.kind) for s in rd.trace.segments_for(thread.tid)
            ] == [
                (ms(2), ms(10) + us(50), SegmentKind.GRANTED),
                (ms(10) + us(50), ms(10) + us(100), SegmentKind.OVERTIME),
            ]

    def test_eight_ops_at_stop_after_a_run_one_tick_short_of_it(self, ideal_rd):
        fetched_at_stop = []

        def task(ctx):
            yield SETTLE
            yield Compute(ms(1))
            yield Compute(ms(1) - 1)  # the run ends one tick short
            yield Compute(1)  # ... and this op lands on the stop
            for i in range(10):
                fetched_at_stop.append(i)
                yield InsertIdleCycles(0)
            yield DonePeriod()

        ideal_rd.admit(one_entry("fidget", task))
        ideal_rd.at(ms(2), lambda: None)
        slices = spy_on_slices(ideal_rd)
        ideal_rd.run_until(ms(2))
        assert slices[1:] == [(SliceEnd.FORCED, ms(2))]
        assert fetched_at_stop == list(range(8))

    def test_post_interrupts_the_run_at_the_op_boundary(self, ideal_rd):
        channel = Channel("data")

        def waiter(ctx):
            yield Block(channel)
            yield Compute(ms(1))
            yield DonePeriod()

        def producer(ctx):
            yield Compute(ms(1))
            yield Compute(ms(1))
            channel.post()
            yield Compute(ms(1))
            yield DonePeriod()

        ideal_rd.admit(one_entry("waiter", waiter, period_ms=10, rate=0.2))
        ideal_rd.admit(one_entry("producer", producer, period_ms=20, rate=0.2))
        slices = spy_on_slices(ideal_rd)
        ideal_rd.run_for(ms(5))
        assert slices[:2] == [
            (SliceEnd.BLOCKED, 0),
            (SliceEnd.INTERRUPTED, ms(2)),
        ]
        wake = [b for b in ideal_rd.trace.blocks if not b.blocked]
        assert [b.time for b in wake] == [ms(2)]
        # The waiter preempts right there; the producer finishes after it.
        assert [
            (s.thread_id, s.start, s.end) for s in ideal_rd.trace.segments[:3]
        ] == [(2, 0, ms(2)), (1, ms(2), ms(3)), (2, ms(3), ms(4))]

    def test_generator_returning_mid_run_has_the_run_recorded(self, ideal_rd):
        def task(ctx):
            yield SETTLE
            yield Compute(ms(1))
            yield Compute(ms(1))

        thread = ideal_rd.admit(one_entry("quitter", task))
        ideal_rd.run_for(ms(5))
        assert thread.completed_at == ms(2)
        run = ideal_rd.trace.segments_for(thread.tid)[0]
        assert (run.start, run.end, run.kind) == (0, ms(2), SegmentKind.GRANTED)

    def test_crash_mid_run_has_the_run_recorded_first(self, ideal_rd):
        def task(ctx):
            yield SETTLE
            yield Compute(ms(1))
            yield Compute(ms(1))
            raise RuntimeError("fell over")

        thread = ideal_rd.admit(one_entry("crasher", task))
        ideal_rd.run_for(ms(5))
        assert [(t, tid) for t, tid, _ in ideal_rd.kernel.crashes] == [
            (ms(2), thread.tid)
        ]
        assert [(s.start, s.end) for s in ideal_rd.trace.segments_for(thread.tid)] == [
            (0, ms(2))
        ]

    def test_a_compute_subclass_is_an_unknown_op(self, ideal_rd):
        """The kernel dispatches ``Compute`` by its exact class, so a
        subclass is refused like any foreign op: a contained crash."""
        class Tagged(Compute):
            pass

        def task(ctx):
            yield SETTLE
            yield Tagged(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("tagged", task))
        ideal_rd.run_for(ms(5))
        [(when, tid, error)] = ideal_rd.kernel.crashes
        assert (when, tid) == (0, thread.tid) and "unknown op" in error
        assert ideal_rd.trace.segments_for(thread.tid) == []


class TestQuietKernel:
    """A kernel with no live periodic thread and Idle on the CPU idles to
    each horizon without a decision: the call resumes the Idle slice the
    last call's horizon cut, neither picked nor audited (DESIGN.md §4
    "The hold rule"), one profiled iteration."""

    @staticmethod
    def _run(quiet):
        from repro.obs.prof import PhaseProfiler

        rd = ResourceDistributor(
            machine=MachineConfig.ideal(),
            sim=SimConfig(seed=7),
            sanitize=True,
            sanitize_strict=True,
        )
        prof = PhaseProfiler(clock=lambda: 0)
        rd.attach_prof(prof)
        threads = [admit_simple(rd, f"t{i}", period_ms=10, rate=0.2) for i in range(2)]
        rd.run_until(ms(12))
        for thread in threads:
            rd.exit_thread(thread.tid)
        rd.run_until(ms(25))  # both grants retire at the 20 ms boundary
        assert all(t.state is ThreadState.EXITED for t in threads)
        if not quiet:
            # Something queued — an event far past every horizon below —
            # changes nothing a held Idle slice reads.
            rd.at(ms(10_000), lambda: None)
        before = rd.sanitizer.decisions_checked
        rd.run_until(ms(40))
        rd.run_until(ms(40))  # already there: no decision, no segment
        rd.run_until(ms(70))
        return rd, rd.sanitizer.decisions_checked - before, prof.count_table()

    def test_quiet_step_is_the_one_iteration_the_loop_makes(self):
        quiet, quiet_decisions, quiet_counts = self._run(quiet=True)
        loop, loop_decisions, loop_counts = self._run(quiet=False)
        assert quiet.now == loop.now == ms(70)
        assert quiet.trace.segments == loop.trace.segments
        assert quiet.trace.segments[-1].end == ms(70)
        assert quiet.trace.switches == loop.trace.switches
        assert quiet_decisions == loop_decisions == 0
        assert quiet_counts == loop_counts

    def test_quiet_step_is_taken(self):
        rd, _, _ = self._run(quiet=True)
        rd.scheduler.pick = None  # the dispatch loop would call it
        rd.run_until(ms(90))
        assert rd.now == ms(90)

    def test_an_admission_ends_the_quiet(self):
        rd, _, _ = self._run(quiet=True)
        thread = admit_simple(rd, "late", period_ms=10, rate=0.3)
        rd.run_until(ms(100))
        assert [(s.start, s.end) for s in rd.trace.segments_for(thread.tid)] == [
            (ms(70), ms(73)),
            (ms(80), ms(83)),
            (ms(90), ms(93)),
        ]


class TestSlicedRuns:
    """``run_until`` leaves the open trace segment as the trace's last
    row, and the next slice of the same run extends it: a reader
    between slices sees what the reference kernel records."""

    def test_segments_read_between_slices_match_the_flushing_kernel(self):
        from repro.fuzz.reference import FromScratchKernel
        from repro.scenarios import av_pipeline

        def readings(reference):
            scenario = av_pipeline(seed=7)
            if reference:
                scenario.rd.kernel.__class__ = FromScratchKernel
            seen = []
            for _ in range(48):
                scenario.rd.run_for(ms(2.5))
                seen.append(list(scenario.rd.trace.segments))
            return seen, scenario.rd.trace.switches

        shipped, reference = readings(False), readings(True)
        assert shipped == reference
        assert len(shipped[0][-1]) > 20  # a schedule, not an idle machine

    def test_perfetto_export_contains_the_final_open_run(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "obs"
        assert main(["run", "--scenario", "figure5", "--seed", "3",
                     "--duration-ms", "200", "--obs-out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "trace.perfetto.json").read_text())
        runs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Figure 5's machine is never idle: the run still open when the
        # last run_until returns ends on the horizon.
        assert max(e["ts"] + e["dur"] for e in runs) == pytest.approx(200_000.0)
