"""Fixture: helpers that read host state for their callers.

A caller that reaches ``stamp``/``jitter``/``chain`` is caught with the
call chain (``caller -> helper -> sink``) that made the read.
"""

import random
import time


def stamp():
    return time.monotonic()


def jitter():
    return random.random()


def chain():
    return stamp() + 1


def pure(x):
    return x + 1
