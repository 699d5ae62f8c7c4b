"""Property: the Resource Manager's request map is what its ops did.

``ResourceManager._grant_requests`` is the RM's one record of the
admitted population — ``_requests``, ``admitted_ids``, ``usage`` and
``capacity_snapshot`` all read it — and
only the ops changing a request write it (admit, exit, quiesce, wake,
``change_resource_list``).  After every op of a drawn stream — a
``deferred_recompute`` batch and a crash-handler exit included — the
map must equal a model the stream keeps of its own ops, in tid order.

The same ops keep running sums of the active requests' maximum rate
and bandwidth (``ResourceManager._max_rate`` / ``_max_bandwidth``) with
a bound on their rounding drift.  After every op the sums must lie
within that bound of the exact sum, and the overload verdict grant
control reaches from them must be the one its Θ(N) recount reaches.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, TaskDefinition
from repro.workloads import grant_follower

OPS = (
    "admit", "exit", "quiesce", "wake", "relist", "sleeper", "batch", "crash", "none"
)
#: The ops a ``batch`` draws from.
BATCHED = OPS[:6]


class VerdictProbe(GrantController):
    """Grant control cut at the overload verdict: ``compute`` answers
    None for "overloaded" and a result otherwise, and counts the Θ(N)
    recounts it made."""

    recounts = 0

    def _fast_path(self, active):
        self.recounts += 1
        return super()._fast_path(active)

    def _policy_path(self, active):
        return None


def _crasher(ctx):
    yield Compute(units.ms_to_ticks(1))
    raise RuntimeError("corrupt bitstream")


class Stream:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rd = ResourceDistributor(
            machine=MachineConfig.ideal(),
            sim=SimConfig(seed=seed),
            sanitize=True,
            sanitize_strict=True,
        )
        self.manager = self.rd.resource_manager
        self.names = itertools.count()
        #: tid -> [policy id, resource list, quiescent], as the ops left it.
        self.model: dict[int, list] = {}
        #: Verdicts checked on a non-empty population, and how many of
        #: them needed the recount.
        self.verdicts = 0
        self.recounts = 0

    def definition(
        self, name=None, body=grant_follower, start_quiescent=False
    ) -> TaskDefinition:
        rng = self.rng
        period = units.ms_to_ticks(rng.choice((5, 10, 20)))
        top = rng.choice((0.1, 0.2, 0.3))
        bandwidth = rng.choice((0.0, 0.0, 0.15, 0.35))
        return TaskDefinition(
            name=name or f"s{next(self.names)}",
            resource_list=ResourceList(
                [
                    ResourceListEntry(
                        period,
                        max(1, round(period * rate)),
                        body,
                        bandwidth=bandwidth * share,
                    )
                    for rate, share in ((top, 1.0), (top / 3, 0.5), (0.01, 0.0))
                ]
            ),
            start_quiescent=start_quiescent,
        )

    def check(self) -> None:
        for _, tid, _ in self.rd.kernel.crashes:
            self.model.pop(tid, None)  # the crash handler exits it
        expected = [GrantRequest(tid, *self.model[tid]) for tid in sorted(self.model)]
        assert self.manager._requests() == expected
        assert self.manager.admitted_ids() == tuple(sorted(self.model))
        self.check_sums(expected)

    def check_sums(self, requests) -> None:
        manager = self.manager
        active = [r for r in requests if not r.quiescent]
        drift = Fraction(manager._max_drift)
        for running, column in (
            (manager._max_rate, "rates"),
            (manager._max_bandwidth, "bandwidths"),
        ):
            exact = sum(
                (Fraction(getattr(r.resource_list, column)[0]) for r in active),
                Fraction(0),
            )
            assert abs(Fraction(running) - exact) <= drift
        capacity = manager.grant_control.capacity
        bandwidth = manager.grant_control.bandwidth_capacity
        box = self.rd.policy_box
        maxima = (manager._max_rate, manager._max_bandwidth, manager._max_drift)
        probe = VerdictProbe(capacity, box, bandwidth)
        overloaded = probe.compute(requests, maxima) is None
        recount = VerdictProbe(capacity, box, bandwidth)
        assert overloaded == (recount.compute(requests, None) is None)
        self.recounts += probe.recounts
        self.verdicts += bool(active)

    def admit(self, definition: TaskDefinition) -> None:
        thread = self.rd.admit(definition)
        self.model[thread.tid] = [
            thread.policy_id,
            definition.resource_list,
            definition.start_quiescent,
        ]

    def op(self, kind: str) -> None:
        rd, manager, rng, model = self.rd, self.manager, self.rng, self.model
        live = sorted(model)
        quiescent = [tid for tid in live if model[tid][2]]
        runnable = [tid for tid in live if not model[tid][2]]
        try:
            if kind == "admit":
                self.admit(self.definition())
            elif kind == "sleeper":
                self.admit(self.definition(start_quiescent=True))
            elif kind == "crash":
                self.admit(self.definition(body=_crasher))
            elif kind == "exit" and live:
                tid = rng.choice(live)
                rd.exit_thread(tid)
                del model[tid]
            elif kind == "quiesce" and runnable:
                tid = rng.choice(runnable)
                rd.enter_quiescent(tid)
                model[tid][2] = True
            elif kind == "wake" and quiescent:
                tid = rng.choice(quiescent)
                rd.wake(tid)
                model[tid][2] = False
            elif kind == "relist" and live:
                tid = rng.choice(live)
                definition = self.definition(rd.thread(tid).name)
                manager.change_resource_list(tid, definition)
                model[tid][1] = definition.resource_list
        except AdmissionError:
            pass  # a denied minimum changes nothing

    def run(self, kinds) -> None:
        for kind in kinds:
            self.rd.run_for(units.ms_to_ticks(1))
            self.check()  # a crash-handler exit lands inside run_for
            if kind == "batch":
                with self.manager.deferred_recompute():
                    for inner in self.rng.sample(BATCHED, 3):
                        self.op(inner)
                        self.check()
            else:
                self.op(kind)
            self.check()


class TestRequestMap:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        kinds=st.lists(st.sampled_from(OPS), max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_equals_the_records_after_every_op(self, seed, kinds):
        stream = Stream(seed)
        stream.run(kinds)
        assert stream.rd.sanitizer.ok

    def test_the_sums_settle_most_verdicts_of_an_overloaded_stream(self):
        """The witness that the sums are used, not only kept: a stream
        that grows into overload decides most verdicts with no recount,
        and still recounts near capacity."""
        stream = Stream(3)
        stream.run(["admit"] * 12 + ["sleeper", "wake", "quiesce", "relist", "exit"] * 8)
        assert stream.rd.sanitizer.ok
        assert 0 < stream.recounts < stream.verdicts // 2, (
            stream.recounts, stream.verdicts
        )

    def test_a_stream_reaches_the_batch_and_the_crash_handler(self):
        stream = Stream(7)
        stream.run(["admit", "admit", "crash", "batch", "quiesce", "relist"] * 4 + ["none"] * 10)
        crashed = {tid for _, tid, _ in stream.rd.kernel.crashes}
        assert crashed and not crashed & set(stream.manager.admitted_ids())
        assert stream.rd.sanitizer.ok
