"""Fixture: wall-clock reads inside the simulation core (determinism)."""

import time
from datetime import datetime


def stamp():
    return time.time()


def stamp2():
    return datetime.now()
