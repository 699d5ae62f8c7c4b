"""Fixture: a global-RNG draw inside ``repro.obs`` (determinism)."""

import random


def sample_rate():
    return random.uniform(0.5, 1.0)  # flagged
