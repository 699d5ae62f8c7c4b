"""Fixture: swallowed errors in the core (except-hygiene)."""


def swallow(fn):
    try:
        fn()
    except:  # noqa: E722
        pass


def silent(fn):
    try:
        fn()
    except Exception:
        pass
