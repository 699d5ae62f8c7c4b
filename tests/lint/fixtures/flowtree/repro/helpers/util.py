"""Fixture: helpers OUTSIDE the determinism scope.

The ``determinism`` rule's scope table does not cover
``repro.helpers``, so a sink here is no finding by itself.  A covered
caller that reaches ``stamp``/``jitter``/``chain`` is flagged at its
call site, with the path witness (``caller -> helper -> sink``) in
the diagnostic.
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
