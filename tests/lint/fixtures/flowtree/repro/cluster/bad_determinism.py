"""Fixture: determinism sinks inside ``repro.cluster`` (determinism).

Every line marked ``# flagged`` is a finding: a direct call at module
level, in a class body, and at the end of a call chain that never
leaves the package.
"""

import random
import time

BOOTED_AT = time.time()  # flagged


class Jitter:
    SEED = random.random()  # flagged

    def settle(self, now):
        return now + self.skew()

    def skew(self):
        return random.randint(0, 3)  # flagged


def epoch(now):
    return now + _elapsed()


def _elapsed():
    return time.monotonic()  # flagged
