"""Fixture: a package ``__init__`` that reaches a wall-clock read through
a relative import; a caller of ``drift`` is caught with both in its
chain (``core/bad_package_reach.py``).
"""

from .host import read


def drift():
    return read()
