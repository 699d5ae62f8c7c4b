"""Observability overhead: what recording one event costs, in calibration steps.

A run is observed by an :class:`~repro.obs.session.ObsSession` or not
at all: every hook site is one attribute read plus a falsy branch when
``obs is None`` (``tests/test_hot_paths.py``'s
``TestUnobservedRunsPayNothing`` checks that such a run calls nothing
under ``repro/obs``), and an attached bus records every event.  This
bench gates the configuration that ships — recording through
``ObsSession().scoped("node00")``, the node scope cluster nodes and
``repro serve`` record through: (scoped − disabled) ÷ the events the
session records over the same sites, through the shared
:mod:`benchmarks.overhead` helper — interleaved, gc-paused per-variant
minima, in calibration-loop steps, a second window before a failure.
Reported beside it and not gated: the same cost through the bus's own
``emit_*`` (a single-machine run's ``ObsSession().bus``), and the derive
half of observing — what the metrics catch-up (one ``session.registry``
read) costs per folded row, (session + read − session) ÷ the same
count (``rack_observed`` in ``benchmarks/e2e`` owns the end-to-end
cost of observing).

The sites are driven directly (``builders.drive_hook_sites``) rather
than through a scenario.  A whole-run difference cannot resolve a
per-site cost: Figure 5 visits 432 sites in an 18 ms run, so even a
few calibration steps a site are a fraction of a percent of the run
while the per-variant minima wander by 1 % (docs/benchmarking.md has
the measurements).
"""

from benchmarks.builders import drive_hook_sites
from benchmarks.overhead import (
    gate_reading,
    interleaved_samples,
    render_samples,
    unit_cost,
)
from repro.obs.session import ObsSession

SITES = 100_000
REPEATS = 9
#: Calibration-loop steps recording one event through a node scope may
#: cost.  Measured 4.80-5.14 steps over eight processes (0.54 us an
#: event on a 2-vCPU x86_64 box under CPython 3.11, whose calibration
#: step takes 0.11 us); the budget is the largest reading plus a fifth,
#: so it is no tighter than the noise shown, while a recording path
#: that calls one more helper per row (7.1-7.2 steps) fails.
BUDGET_STEPS = 6.2

DISABLED = "disabled (obs=None)"
SESSION = "full session (columnar arenas)"
SCOPED = "full session, node-scoped (scoped(node))"
DERIVE = "full session + registry read (catch-up)"


def record_and_derive() -> None:
    """Record the sites into a session, then fold every row into its
    metrics with one registry read."""
    session = ObsSession()
    drive_hook_sites(session.bus, SITES)
    session.registry

VARIANTS = {
    DISABLED: lambda: drive_hook_sites(None, SITES),
    SESSION: lambda: drive_hook_sites(ObsSession().bus, SITES),
    SCOPED: lambda: drive_hook_sites(ObsSession().scoped("node00"), SITES),
    DERIVE: record_and_derive,
}


def recorded_events() -> int:
    """Events a session records over the sites: one each, every run."""
    session = ObsSession()
    drive_hook_sites(session.bus, SITES)
    return session.bus.total_emitted


def test_obs_recording_overhead_within_budget(report):
    events = recorded_events()
    samples, scoped_s, scoped_steps = gate_reading(
        lambda: interleaved_samples(VARIANTS, REPEATS),
        SCOPED,
        DISABLED,
        events,
        BUDGET_STEPS,
    )
    record_s, record_steps = unit_cost(samples, SESSION, DISABLED, events)
    derive_s, derive_steps = unit_cost(samples, DERIVE, SESSION, events)
    table = render_samples(f"repro.obs overhead — {SITES} hook sites", samples)
    table += (
        f"\n{events} events recorded by the session: recording through a node "
        f"scope costs {scoped_s * 1e6:.2f} us per event = {scoped_steps:.2f} "
        f"calibration steps (budget {BUDGET_STEPS}); through the bus it costs "
        f"{record_s * 1e6:.2f} us = {record_steps:.1f} steps, and the catch-up "
        f"folds the rows into the metrics at {derive_s * 1e6:.2f} us per row = "
        f"{derive_steps:.1f} steps, neither gated"
    )
    report("obs_overhead", table)

    assert scoped_steps <= BUDGET_STEPS, (
        f"recording an event through a node scope costs {scoped_steps:.2f} "
        f"calibration steps ({scoped_s * 1e6:.3f} us over {events} events; "
        f"budget {BUDGET_STEPS}): the recording path got heavy"
    )
