"""One distributor node of a cluster: a wrapped ResourceDistributor.

A :class:`ClusterNode` owns a full single-machine Resource Distributor
(admission control, grant control, EDF scheduler, optional runtime
sanitizer) plus the small amount of state the cluster layer adds:

* a name -> thread-id map, because the broker addresses tasks by name
  (thread ids are per-node and not stable across migration);
* the original :class:`~repro.tasks.base.TaskDefinition` of every
  placed task, so migration can re-run admission elsewhere;
* request-id deduplication, so a broker retry after a lost reply never
  admits (or removes) the same task twice.

Nodes never talk to each other; every RPC arrives from the broker over
the :class:`repro.sim.messages.MessageBus`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.resource_manager import CapacitySnapshot
from repro.errors import AdmissionError
from repro.obs.events import RpcEvent
from repro.tasks.base import TaskDefinition


@dataclass(frozen=True)
class NodeLoadReport:
    """One node's periodic load-feedback message to the broker.

    Everything the broker's placement view and AIMD controller consume:
    the capacity snapshot (committed minima, headroom, QOS degradation)
    plus trace-level miss counts since the previous report.
    """

    node: str
    time: int
    snapshot: CapacitySnapshot
    misses_delta: int

    @property
    def overloaded(self) -> bool:
        """The grant set is pinning at least one task below its maximum."""
        return self.snapshot.degraded > 0


class ClusterNode:
    """A named Resource Distributor participating in a cluster."""

    def __init__(
        self,
        name: str,
        machine: MachineConfig | None = None,
        sim: SimConfig | None = None,
        sanitize: bool = True,
        sanitize_strict: bool = True,
        obs=None,
    ) -> None:
        self.name = name
        #: Optional telemetry bus (usually an ``ObsSession.scoped(name)``
        #: view, so this node's events carry its name).
        self.obs = obs
        self.rd = ResourceDistributor(
            machine=machine,
            sim=sim,
            sanitize=sanitize,
            sanitize_strict=sanitize_strict,
            obs=obs,
        )
        #: task name -> thread id on this node.
        self.tasks: dict[str, int] = {}
        #: task name -> definition, kept for migration re-admission.
        self.definitions: dict[str, TaskDefinition] = {}
        #: request id -> cached reply payload (RPC idempotency).
        self._replies: dict[str, dict] = {}
        #: ``rd.trace.deadlines`` records already counted by a load report.
        self._deadlines_reported = 0

    # -- RPC handling -------------------------------------------------------

    def handle(self, kind: str, payload: dict, now: int) -> tuple[str, dict]:
        """Process one broker RPC; returns ``(reply_kind, reply_payload)``.

        Replies are cached by request id: a retried request (the broker
        timed out because the request or the reply was dropped) returns
        the original outcome without repeating the side effect.
        """
        request_id = payload["request_id"]
        cached = self._replies.get(request_id)
        if cached is not None:
            if self.obs:
                # A broker retry hit the idempotency cache: the reply is
                # re-served without repeating the side effect.
                self.obs.emit(
                    RpcEvent(
                        time=now,
                        action="dedup",
                        src=self.name,
                        dst="broker",
                        kind=kind,
                        request_id=request_id,
                    )
                )
            return cached["kind"], cached["payload"]
        if kind == "admit":
            reply = self._admit(payload)
        elif kind == "remove":
            reply = self._remove(payload)
        else:
            raise AdmissionError(f"node {self.name}: unknown RPC kind {kind!r}")
        self._replies[request_id] = {"kind": f"{kind}-reply", "payload": reply}
        return f"{kind}-reply", reply

    def _admit(self, payload: dict) -> dict:
        task: str = payload["task"]
        definition: TaskDefinition = payload["definition"]
        if task in self.tasks:
            # A second placement attempt for a task already here (e.g. a
            # duplicate submit) is a success, not a double admission.
            return {"request_id": payload["request_id"], "task": task, "ok": True}
        try:
            thread = self.rd.admit(definition)
        except AdmissionError as exc:
            return {
                "request_id": payload["request_id"],
                "task": task,
                "ok": False,
                "error": str(exc),
            }
        self.tasks[task] = thread.tid
        self.definitions[task] = definition
        return {"request_id": payload["request_id"], "task": task, "ok": True}

    def _remove(self, payload: dict) -> dict:
        task: str = payload["task"]
        tid = self.tasks.pop(task, None)
        self.definitions.pop(task, None)
        if tid is not None and tid in self.rd.resource_manager.admitted_ids():
            # exit_thread honours the per-period guarantee: the current
            # grant stays live through the period boundary.
            self.rd.exit_thread(tid)
        return {"request_id": payload["request_id"], "task": task, "ok": True}

    # -- load feedback ------------------------------------------------------

    def load_report(self, now: int) -> NodeLoadReport:
        """The periodic headroom/QOS report the broker's AIMD loop eats."""
        trace = self.rd.trace
        misses = trace.missed_count(self._deadlines_reported)
        self._deadlines_reported = len(trace.deadlines)
        return NodeLoadReport(
            node=self.name,
            time=now,
            snapshot=self.rd.capacity_snapshot(),
            misses_delta=misses,
        )

    # -- introspection ------------------------------------------------------

