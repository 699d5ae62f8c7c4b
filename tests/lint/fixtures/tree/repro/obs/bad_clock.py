"""Fixture: a wall-clock timestamp inside the telemetry layer
(determinism) — event times must be simulated ticks."""

import time


def stamp_event():
    return {"time": time.time()}
