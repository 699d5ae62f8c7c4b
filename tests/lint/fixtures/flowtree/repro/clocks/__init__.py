"""Fixture: a package ``__init__`` that reaches a wall-clock read through
a relative import.

``repro.clocks`` is outside the determinism scope, so the read is no
finding here; a covered caller of ``drift`` is one
(``core/bad_package_reach.py``).
"""

from .host import read


def drift():
    return read()
