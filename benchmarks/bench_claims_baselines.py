"""Sections 3.4/3.5: the comparative claims, quantified.

One overload — three tasks each wanting 50 % of a 10 ms period, each
able to shed in 10 % steps — run under the Resource Distributor and the
four baseline schedulers.  Regenerates the qualitative comparison as a
measured table: admissions, miss rates, useful utilization, and the
per-system failure mode.
"""

from repro import units
from repro.scenarios import faceoff
from repro.viz import format_table


def test_claims_baseline_comparison(benchmark, report):
    results = benchmark.pedantic(
        faceoff, args=(33, units.ms_to_ticks(400)), rounds=1, iterations=1
    )

    admitted, misses, useful = results["ResourceDistributor"]
    assert admitted == 3 and misses == 0.0 and useful > 0.85

    assert results["NaiveEdfSystem"][1] > 0.3  # cascading misses
    assert results["SmartSystem"][1] > 0.5  # fair share starves frames
    assert results["ReservesSystem"][0] < 3  # admission denied
    assert results["RialtoSystem"][1] == 0.0  # no misses, but...
    assert results["RialtoSystem"][2] < 0.7  # ...a denied task idles
    assert results["RateMonotonicSystem"][0] == 1  # LL bound denies 2 of 3

    notes = {
        "ResourceDistributor": "policy-directed discrete shedding",
        "NaiveEdfSystem": "domino misses in overload",
        "SmartSystem": "fair share misses every frame",
        "ReservesSystem": "over-reservation denies admission",
        "RialtoSystem": "victim picked by request timing",
        "RateMonotonicSystem": "utilization bound under-admits",
    }
    rows = [
        [name, a, f"{m:.0%}", f"{u:.0%}", notes[name]]
        for name, (a, m, u) in results.items()
    ]
    report(
        "claims_baseline_comparison",
        format_table(
            ["scheduler", "admitted", "miss rate", "useful CPU", "behaviour"],
            rows,
            title="Offered load: 3 tasks x 50% @ 10 ms (150% of the machine), 400 ms",
        ),
    )
