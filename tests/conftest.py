"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.threads import ThreadState
from repro.workloads import single_entry_definition


@pytest.fixture
def ideal_rd() -> ResourceDistributor:
    """A Resource Distributor on a frictionless machine (no switch
    costs, no interrupt reserve) — for algorithm-invariant tests."""
    return ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))


@pytest.fixture
def real_rd() -> ResourceDistributor:
    """A Resource Distributor with the paper's calibrated machine."""
    return ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=7))


def admit_simple(rd: ResourceDistributor, name: str, period_ms: float, rate: float, greedy: bool = False):
    """Admit a one-level task and return its thread."""
    return rd.admit(single_entry_definition(name, period_ms, rate, greedy=greedy))


def live_sporadic(server) -> int:
    """Sporadic tasks in ``server``'s queue that have not exited."""
    return sum(1 for t in server._queue if t.state is not ThreadState.EXITED)
