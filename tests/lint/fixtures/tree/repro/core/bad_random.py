"""Fixture: unseeded randomness inside the simulation core (determinism)."""

import random
from random import choice


def jitter():
    return random.random()


def fresh():
    return random.Random()


def pickone(xs):
    return choice(xs)
