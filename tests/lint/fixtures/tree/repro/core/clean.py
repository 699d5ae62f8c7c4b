"""Fixture: everything a core module is allowed to do (all negatives)."""

import random

from repro import errors
from repro.core import grants
from repro.metrics.latency import latency_stats  # core may import metrics

_STREAM = random.Random(42)  # seeded: fine


def grant_delay(period):
    try:
        return _STREAM.randint(0, period)
    except ValueError:  # narrow catch: fine
        raise errors.ReproError("bad period") from None


def summarize(trace, tid, period, cpu):
    return latency_stats(trace, tid, period, cpu), grants
