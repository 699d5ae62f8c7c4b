"""Fixture: RNG constructions that draw their seed from OS entropy
(determinism); ``random.Random(7)`` is seeded and passes."""

import random


def fresh():
    return random.Random(None)  # flagged


def by_keyword():
    return random.Random(x=None)  # flagged


def entropy():
    return random.SystemRandom()  # flagged


def seeded():
    return random.Random(7)
