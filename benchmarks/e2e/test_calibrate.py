"""Unit tests of the reference-second timing rule (scripted clocks only)."""

from __future__ import annotations

import pytest

import calibrate
from calibrate import CAL_REF_S, RefTimer, Segment, calibration_loop
from report import composite, end_to_end


class FakeClock:
    """A clock that only moves when the scripted work says so."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float):
        def spend() -> None:
            self.now += seconds

        return spend


def _run(factor: float, calibrations: list[float], walls: list[float]) -> RefTimer:
    """Time ``walls`` between ``calibrations`` on a machine ``factor`` slower."""
    clock = FakeClock()
    samples = iter(calibrations)
    timer = RefTimer(
        timer=clock, loop=lambda: clock.work(next(samples) * factor)()
    )
    timer.calibrate()
    for wall_s in walls:
        timer.timed(clock.work(wall_s * factor))
        timer.calibrate()
    return timer


def _samples(*values: float) -> list[float]:
    # Each calibration sample is the best of RUNS_PER_SAMPLE loop runs.
    return [v for v in values for _ in range(calibrate.RUNS_PER_SAMPLE)]


def test_loop_and_reference_are_frozen():
    # The yardstick must not move: same recurrence, same length, same reference.
    assert calibrate.CALIBRATION_ITERATIONS == 200_000
    assert CAL_REF_S == 0.025
    acc = 1
    for _ in range(1000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    assert calibration_loop(1000) == acc
    assert calibration_loop(0) == 1


def test_segment_is_scaled_by_the_mean_of_its_bracketing_samples():
    timer = _run(1.0, _samples(0.020, 0.030, 0.050), [2.0, 3.0])
    first, second = timer.segments
    assert (first.k0, first.k1) == pytest.approx((0.020, 0.030))
    assert (second.k0, second.k1) == pytest.approx((0.030, 0.050))
    assert first.ref_s == pytest.approx(2.0 * CAL_REF_S / 0.025)
    assert second.ref_s == pytest.approx(3.0 * CAL_REF_S / 0.040)
    assert timer.total_ref_s() == pytest.approx(first.ref_s + second.ref_s)


def test_calibration_time_is_outside_every_timed_interval():
    # Calibration takes 10 s a sample here; not one second of it may leak
    # into a segment's wall time.
    timer = _run(1.0, _samples(10.0, 10.0, 10.0), [0.5, 0.25])
    assert [s.wall_s for s in timer.segments] == pytest.approx([0.5, 0.25])
    assert timer.total_wall_s() == pytest.approx(0.75)


def test_a_sample_is_the_best_of_its_loop_runs():
    clock = FakeClock()
    costs = iter([0.031, 0.024, 0.090][: calibrate.RUNS_PER_SAMPLE])
    k = calibrate.calibration_sample(clock, lambda: clock.work(next(costs))())
    assert k == pytest.approx(min([0.031, 0.024, 0.090][: calibrate.RUNS_PER_SAMPLE]))


def test_timed_before_calibrate_is_refused_and_open_segments_have_no_scale():
    with pytest.raises(RuntimeError):
        RefTimer(timer=FakeClock(), loop=lambda: None).timed(lambda: None)
    with pytest.raises(RuntimeError):
        Segment(1.0, 0.02).scale


def _as_rep(timer: RefTimer, ops_per_window: list[list[float]]) -> dict:
    return {
        "windows": [
            {"wall_s": s.wall_s, "k0": s.k0, "k1": s.k1, "units": 250.0, "ops": ops}
            for s, ops in zip(timer.segments, ops_per_window)
        ],
        "peak_rss_mb": 20.0,
        "delivered_qos": 1.0,
    }


@pytest.mark.parametrize("factor", [0.5, 3.0, 17.0])
def test_a_uniformly_slower_machine_reads_the_same_ref_metrics(factor):
    # Scale every wall time and every calibration sample by one factor:
    # every reference-time metric must stay put.
    calibrations = _samples(0.021, 0.026, 0.024, 0.029)
    walls = [0.30, 0.41, 0.28]
    ops = [[0.001, 0.004, 0.002], [0.003, 0.009], [0.002, 0.002, 0.005]]
    base = _as_rep(_run(1.0, calibrations, walls), ops)
    slow = _as_rep(
        _run(factor, calibrations, walls),
        [[op * factor for op in window] for window in ops],
    )
    base_values, _ = end_to_end([base], [0.2])
    slow_values, _ = end_to_end([slow], [0.2])
    for name in ("host_ms_per_unit", "op_p50_ms", "op_p99_ms"):
        assert slow_values[name] == pytest.approx(base_values[name]), name
    assert composite([slow])["rep_wall_s"] == pytest.approx(
        [wall * factor for wall in composite([base])["rep_wall_s"]]
    )


def test_composite_takes_the_median_of_each_window_and_each_op():
    calibrations = _samples(0.025, 0.025, 0.025)
    reps = [
        _as_rep(_run(1.0, calibrations, walls), ops)
        for walls, ops in (
            ([1.0, 9.0], [[0.1, 0.5], [0.9]]),  # second window hit a slow phase
            ([7.0, 2.0], [[0.7, 0.3], [0.2]]),  # first window did
            ([1.2, 2.2], [[0.2, 0.4], [0.3]]),
        )
    ]
    comp = composite(reps)
    assert comp["ref_s"] == pytest.approx(1.2 + 2.2)
    assert comp["ops_ms"] == pytest.approx([200.0, 300.0, 400.0])
    assert comp["rep_ref_s"] == pytest.approx([10.0, 9.0, 3.4])
