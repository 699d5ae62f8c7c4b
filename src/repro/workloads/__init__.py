"""Task bodies and single-entry task definitions."""

from repro.workloads.generators import (
    grant_follower,
    greedy_worker,
    single_entry_definition,
)

__all__ = [
    "grant_follower",
    "greedy_worker",
    "single_entry_definition",
]
