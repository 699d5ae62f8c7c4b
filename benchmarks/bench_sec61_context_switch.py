"""Section 6.1: context-switch costs.

Paper-reported, on the 200 MHz MAP1000:

* voluntary switch:   min 11.5, median 18.3, mean 20.7 us
* involuntary switch: min 16.9, median 28.2, mean 35.0 us
* MPEG + AC3 scenario: ~300 switches/s, ~0.7 % of the CPU

The cost model is calibrated to the paper's statistics by construction;
this bench runs the A/V scenario end-to-end and regenerates the summary
table from the *trace* (sampled costs as actually incurred), then
verifies the derived overhead claim.
"""

import pytest

from repro import units
from repro.metrics import summarize_switches
from repro.metrics.analysis import overhead_fraction, switches_per_second
from repro.scenarios import av_pipeline
from repro.sim.trace import SwitchKind
from repro.viz import format_table

PAPER = {
    SwitchKind.VOLUNTARY: (11.5, 18.3, 20.7),
    SwitchKind.INVOLUNTARY: (16.9, 28.2, 35.0),
}


def test_sec61_context_switch_costs(benchmark, report):
    elapsed = units.sec_to_ticks(2)
    rd = benchmark.pedantic(
        lambda: av_pipeline(seed=61).run_for(elapsed).rd, rounds=1, iterations=1
    )

    rows = []
    for kind in (SwitchKind.VOLUNTARY, SwitchKind.INVOLUNTARY):
        stats = summarize_switches(rd.trace, kind)
        paper_min, paper_med, paper_mean = PAPER[kind]
        assert stats.count > 20
        assert stats.min_us >= paper_min - 0.5
        assert stats.median_us == pytest.approx(paper_med, rel=0.25)
        assert stats.mean_us == pytest.approx(paper_mean, rel=0.25)
        rows.append(
            [
                kind.value,
                stats.count,
                f"{stats.min_us:.1f} ({paper_min})",
                f"{stats.median_us:.1f} ({paper_med})",
                f"{stats.mean_us:.1f} ({paper_mean})",
            ]
        )

    rate = switches_per_second(rd.trace, 0, elapsed)
    frac = overhead_fraction(rd.trace, 0, elapsed)
    assert 100 <= rate <= 1200  # paper estimates ~300/s for this class
    assert frac < 0.04  # well inside the interrupt reserve; paper ~0.7 %

    table = format_table(
        ["kind", "count", "min us (paper)", "median us (paper)", "mean us (paper)"],
        rows,
        title="Section 6.1 — context-switch costs, measured (paper)",
    )
    table += (
        f"\n\nswitches/second: {rate:.0f}   (paper estimate ~300)"
        f"\nswitch overhead: {frac:.2%} of the CPU   (paper ~0.7 %)"
        f"\ndeadline misses: {len(rd.trace.misses())}"
    )
    report("sec61_context_switch", table)
