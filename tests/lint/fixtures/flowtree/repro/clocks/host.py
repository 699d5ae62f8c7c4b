"""Fixture: the host clock, outside the determinism scope."""

import time


def read():
    return time.monotonic()
