"""Fixture: the host clock, read one module below its caller."""

import time


def read():
    return time.monotonic()
