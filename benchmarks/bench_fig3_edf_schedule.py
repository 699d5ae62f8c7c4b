"""Figure 3: the EDF schedule for the Table 4 grant set.

Runs the modem/3D/MPEG trio for half a second and regenerates the
schedule as an ASCII Gantt chart.  Shape checks: every grant delivered
every period, MPEG preempted (its 30 ms period wraps the other tasks'
10 ms periods), modem (smallest requirement) never preempted.
"""

from repro import units
from repro.scenarios import table4_trio
from repro.sim.trace import SegmentKind


def _run():
    scenario = table4_trio(seed=4).run_for(units.sec_to_ticks(0.5))
    return scenario.rd, scenario.threads


def _split_periods(rd, thread):
    by_period = {}
    for seg in rd.trace.segments_for(thread.tid):
        if seg.kind is SegmentKind.GRANTED:
            by_period.setdefault(seg.period_index, 0)
            by_period[seg.period_index] += 1
    return sum(1 for c in by_period.values() if c > 1)


def test_fig3_edf_schedule(benchmark, report):
    rd, threads = benchmark.pedantic(_run, rounds=3, iterations=1)
    assert not rd.trace.misses()
    assert _split_periods(rd, threads["MPEG"]) > 0
    assert _split_periods(rd, threads["Modem"]) == 0
    from repro.viz import render_gantt

    gantt = render_gantt(
        rd.trace,
        {t.tid: name for name, t in threads.items()},
        0,
        units.ms_to_ticks(60),
        width=96,
    )
    report("fig3_edf_schedule", gantt)
