"""Property: the Resource Manager's request map is what its ops did.

``ResourceManager._grant_requests`` is the RM's one record of the
admitted population — ``_requests``, ``admitted_ids``, ``usage`` and
``capacity_snapshot`` all read it — and
only the ops changing a request write it (admit, exit, quiesce, wake,
``change_resource_list``).  After every op of a drawn stream — a
``deferred_recompute`` batch and a crash-handler exit included — the
map must equal a model the stream keeps of its own ops, in tid order.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantRequest
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, TaskDefinition
from repro.workloads import grant_follower

OPS = ("admit", "exit", "quiesce", "wake", "relist", "batch", "crash", "none")


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

    def definition(self, name=None, body=grant_follower) -> TaskDefinition:
        rng = self.rng
        period = units.ms_to_ticks(rng.choice((5, 10, 20)))
        top = rng.choice((0.1, 0.2, 0.3))
        return TaskDefinition(
            name=name or f"s{next(self.names)}",
            resource_list=ResourceList(
                [
                    ResourceListEntry(period, max(1, round(period * rate)), body)
                    for rate in (top, top / 3, 0.01)
                ]
            ),
        )

    def check(self) -> None:
        for _, tid, _ in self.rd.kernel.crashes:
            self.model.pop(tid, None)  # the crash handler exits it
        expected = [GrantRequest(tid, *self.model[tid]) for tid in sorted(self.model)]
        assert self.manager._requests() == expected
        assert self.manager.admitted_ids() == tuple(sorted(self.model))

    def admit(self, definition: TaskDefinition) -> None:
        thread = self.rd.admit(definition)
        self.model[thread.tid] = [thread.policy_id, definition.resource_list, False]

    def op(self, kind: str) -> None:
        rd, manager, rng, model = self.rd, self.manager, self.rng, self.model
        live = sorted(model)
        quiescent = [tid for tid in live if model[tid][2]]
        runnable = [tid for tid in live if not model[tid][2]]
        try:
            if kind == "admit":
                self.admit(self.definition())
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
                    for inner in self.rng.sample(OPS[:5], 3):
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

    def test_a_stream_reaches_the_batch_and_the_crash_handler(self):
        stream = Stream(7)
        stream.run(["admit", "admit", "crash", "batch", "quiesce", "relist"] * 4 + ["none"] * 10)
        crashed = {tid for _, tid, _ in stream.rd.kernel.crashes}
        assert crashed and not crashed & set(stream.manager.admitted_ids())
        assert stream.rd.sanitizer.ok
