#!/usr/bin/env python3
"""Head-to-head: the Resource Distributor vs the section 3.4 baselines.

One overload (three tasks, each wanting 50 % of the CPU at 10 ms, each
able to shed in 10 % steps) run under five schedulers.  The table shows
each system's characteristic behaviour: the RD degrades per policy with
zero misses; naive EDF cascades; SMART fair-shares everyone into
missing; Reserves refuses admission; Rialto denies whoever asked last.

Run:  python examples/scheduler_faceoff.py
"""

from repro import units
from repro.scenarios import faceoff
from repro.viz import format_table

#: The rows this example shows, with the label and the one-line
#: diagnosis it prints for each.
SHOWN = {
    "ResourceDistributor": ("ETI Resource Distributor", "policy box picks who sheds"),
    "NaiveEdfSystem": ("NaiveEdf", "domino misses in overload"),
    "SmartSystem": ("Smart", "fair share starves every frame"),
    "ReservesSystem": ("Reserves", "over-reservation denies admission"),
    "RialtoSystem": ("Rialto", "victim picked by arrival order"),
}


def main() -> None:
    results = faceoff(seed=1, duration=units.ms_to_ticks(500))
    rows = []
    for name, (label, note) in SHOWN.items():
        admitted, misses, useful = results[name]
        rows.append([label, admitted, f"{misses:.0%}", f"{useful:.0%}", note])

    print("Offered load: 3 tasks x 50 % @ 10 ms (150 % of the machine)\n")
    print(
        format_table(
            ["Scheduler", "Admitted", "Miss rate", "Useful CPU", "Failure mode"],
            rows,
        )
    )
    print(
        "\nOnly the Resource Distributor combines full admission, zero"
        "\nmisses, and near-full useful utilization — by shedding load in"
        "\nthe discrete steps the applications themselves declared."
    )


if __name__ == "__main__":
    main()
