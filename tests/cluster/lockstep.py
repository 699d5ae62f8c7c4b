"""The lockstep cluster loop, kept as the reference for the shipped one.

Until the touch-driven loop replaced it, ``ClusterSimulation`` advanced
every node kernel to every global interesting time before doing what
was due there.  :class:`LockstepSimulation` is that loop, verbatim; the
cluster property (``test_touch_driven.py``) holds the shipped loop to
it.  :func:`lockstep` swaps it into a built simulation (same object
layout, two overridden methods), so every builder — ``cluster_rack``,
``fuzz.runner.build_cluster``, ``ServeEngine`` — yields a reference
run without a second constructor.
"""

from repro.cluster.simulation import EPOCH_TICKS, ClusterSimulation


class LockstepSimulation(ClusterSimulation):
    """Every node at every global stop."""

    def run_until(self, horizon: int) -> None:
        while self._now < horizon:
            target = self._next_time(horizon)
            for name in sorted(self.nodes):
                self.nodes[name].rd.run_until(target)
            self._now = target
            self._fire_events()
            self._route_messages()
            if self.pipeline is not None:
                self.pipeline.route(self._now)
            self.broker.check_timeouts(self._now)
            while self._next_epoch <= self._now:
                self._epoch()
                self._next_epoch += EPOCH_TICKS

    def _settle(self, max_rounds: int) -> bool:
        for _ in range(max_rounds):
            if self.broker.idle and len(self.bus) == 0:
                return True
            candidates = []
            bus_next = self.bus.next_time()
            if bus_next is not None:
                candidates.append(bus_next)
            deadline = self.broker.next_deadline()
            if deadline is not None:
                candidates.append(deadline)
            if not candidates:
                break
            self.run_until(max(self._now + 1, min(candidates)))
        return self.broker.idle and len(self.bus) == 0


def lockstep(sim: ClusterSimulation) -> ClusterSimulation:
    """``sim``, built and not yet run, on the lockstep loop."""
    sim.__class__ = LockstepSimulation
    return sim
