#!/usr/bin/env python3
"""The paper's section 5.3 scenario: DVD study session + teleconference.

A user studies multimedia data from a DVD while waiting for a
teleconferencing call.  Until the phone rings, the full machine belongs
to the DVD; afterwards the modem, teleconferencing renderer, and DVD
share, with the DVD shedding load.  The quiescent-task model makes this
work in any start order and without terminating anything.

Run:  python examples/settop_box.py
"""

from repro import units
from repro.metrics import qos_timeline
from repro.scenarios import settop
from repro.viz import render_gantt

RING_MS = 300


def main() -> None:
    scenario = settop(ring_ms=RING_MS)  # the modem is admitted quiescent: waiting...
    rd = scenario.rd
    mpeg = scenario.extras["mpeg"]
    video = scenario.threads["DVD-video"]
    phone = scenario.threads["Modem"]

    print("Before the call (modem admitted but quiescent):")
    print(rd.current_grant_set.describe())

    rd.run_for(units.sec_to_ticks(1))

    print(f"\nPhone rang at t = {RING_MS} ms; modem state: {phone.state.value}")
    print("\nAfter the call (everyone shares; DVD shed load):")
    print(rd.current_grant_set.describe())

    print(f"\nDeadline misses across the whole run: {len(rd.trace.misses())}")
    print(f"I frames lost by the DVD: {mpeg.stats.i_frames_lost} (must be 0)")
    print(f"B frames shed by the DVD: {mpeg.stats.dropped['B']}")

    print("\nDVD-video QOS timeline (time, resource-list entry, rate):")
    for time, entry, rate in qos_timeline(rd.trace, video.tid):
        print(f"  t={units.ticks_to_ms(time):7.1f} ms  entry #{entry}  {rate:5.1%}")

    window = units.ms_to_ticks(100)
    ring = units.ms_to_ticks(RING_MS)
    print("\nSchedule around the phone call:")
    print(render_gantt(rd.trace, scenario.names(), ring - window // 2, ring + window, width=90))


if __name__ == "__main__":
    main()
