"""Fixture: the sanctioned RNG funnel is exempt from determinism's RNG row."""

import random


def stream(purpose):
    return random.Random()  # flagged anywhere else; exempt here
