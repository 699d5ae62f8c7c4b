"""Observability overhead: instrumented-but-unsinked must be near-free.

The tentpole claim for ``repro.obs`` is that instrumentation is off by
default and costs next to nothing until a sink subscribes: every hook
site is one attribute read plus a falsy branch when ``obs is None``,
and — because hot sites guard with ``if self.obs:`` and a bus with no
subscribers is falsy — *zero* event constructions when a bus is
attached with nobody listening.  This bench measures that claim on the
Figure 5 load-shedding scenario (five busy loops — context-switch
heavy, so the hottest hook dominates) and fails if the
enabled-but-no-sink configuration costs more than 5 % over the
uninstrumented baseline.

Baseline and candidate runs are interleaved so clock drift and thermal
effects hit both alike; the gate compares medians.  The scenario itself
is the shared ``repro.bench.workloads.run_figure5`` builder — the same
workload the ``repro bench --suite obs`` runner times.
"""

import statistics
import time

from repro.bench.workloads import run_figure5
from repro.viz import format_table

HORIZON_MS = 400
REPEATS = 7
BUDGET = 0.05  # enabled-but-no-sink may cost at most 5 % over baseline

VARIANTS = {
    "disabled (obs=None)": "disabled",
    "no-sink (ObsBus, 0 subscribers)": "no-sink",
    "full session (columnar arenas)": "session",
}


def run_once(variant: str) -> float:
    start = time.perf_counter()
    run_figure5(obs=variant, ms=HORIZON_MS, seed=11)
    return time.perf_counter() - start


def interleaved_medians() -> dict[str, float]:
    for variant in VARIANTS.values():
        run_once(variant)  # warm-up: imports, allocator, caches
    samples: dict[str, list[float]] = {name: [] for name in VARIANTS}
    for _ in range(REPEATS):
        for name, variant in VARIANTS.items():
            samples[name].append(run_once(variant))
    return {name: statistics.median(times) for name, times in samples.items()}


def test_obs_disabled_overhead_within_budget(report):
    medians = interleaved_medians()
    baseline = medians["disabled (obs=None)"]
    rows = [
        [name, f"{median * 1e3:.1f}", f"{median / baseline - 1:+.1%}"]
        for name, median in medians.items()
    ]
    table = format_table(
        ["configuration", f"median of {REPEATS} runs (ms)", "vs disabled"],
        rows,
        title=f"repro.obs overhead — figure5, {HORIZON_MS} ms simulated",
    )
    report("obs_overhead", table)

    no_sink = medians["no-sink (ObsBus, 0 subscribers)"]
    overhead = no_sink / baseline - 1
    assert overhead <= BUDGET, (
        f"enabled-but-no-sink costs {overhead:+.1%} over the uninstrumented "
        f"baseline (budget {BUDGET:.0%}): the hook sites are no longer cheap"
    )
