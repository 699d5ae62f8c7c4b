"""Fixture: scoped rules and the host-state guard ignore modules outside
``repro`` (the guard's harness) and outside repro.core / repro.sim."""

import time


def now():
    try:
        return time.time()
    except:  # noqa: E722
        return 0.0
