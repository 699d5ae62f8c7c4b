"""Fixture: everything the serving layer is allowed to do (all
negatives).  It imports freely *downward* (cluster, obs, core) and it
reads the wall clock — the one layer where that is architecture-legal,
because the determinism rule scopes its checks to the simulated
packages rather than exempting call sites."""

import time

from repro.cluster.broker import ClusterBroker
from repro.core import grants
from repro.obs.session import ObsSession


def measure():
    started = time.monotonic()  # wall clock: legal at the boundary
    return time.perf_counter() - started


def wire(engine):
    return ClusterBroker, ObsSession, grants
