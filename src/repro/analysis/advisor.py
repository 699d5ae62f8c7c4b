"""What-if admission analysis against a live Resource Distributor.

Before asking for admittance, a user (or an installer UI) wants to know
*what would happen*: would the task be admitted, and at what QOS level
would everyone end up?  :func:`admission_preview` answers without
touching the running system — it replays the Resource Manager's own
admission test and grant computation against a copy of the current
population, correlated by a scratch copy of the Policy Box (the
newcomer is registered there, and its lookups and inventions are
counted and observed nowhere).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.tasks.base import TaskDefinition


@dataclass(frozen=True)
class QosChange:
    """Predicted QOS movement for one already-admitted thread."""

    thread_id: int
    name: str
    current_index: int | None
    predicted_index: int
    current_rate: float
    predicted_rate: float

    @property
    def degraded(self) -> bool:
        return self.current_rate > self.predicted_rate + 1e-12


@dataclass(frozen=True)
class AdmissionPreview:
    """The outcome :func:`admission_preview` predicts."""

    admissible: bool
    reason: str = ""
    #: Predicted entry index for the new task (0 = its maximum).
    newcomer_index: int | None = None
    newcomer_rate: float = 0.0
    #: Predicted movements for the existing population.
    changes: list[QosChange] = field(default_factory=list)


def admission_preview(
    rd: ResourceDistributor, definition: TaskDefinition
) -> AdmissionPreview:
    """Predict the effect of admitting ``definition`` — without doing it."""
    rm = rd.resource_manager
    minimum = definition.resource_list.minimum
    if minimum.exclusive:
        return AdmissionPreview(
            admissible=False,
            reason="minimum entry must not require exclusive units",
        )
    if not rm.admission.can_admit(minimum.rate, minimum.bandwidth):
        return AdmissionPreview(
            admissible=False,
            reason=(
                f"minimum ({minimum.rate:.1%} CPU, {minimum.bandwidth:.1%} "
                f"bandwidth) does not fit beside the committed "
                f"{rm.admission.committed:.1%} CPU / "
                f"{rm.admission.committed_bandwidth:.1%} bandwidth"
            ),
        )

    # The current grant requests plus the hypothetical newcomer.
    requests = rm._requests()  # advisory tooling: intimate by design
    admitted = [rd.thread(request.thread_id) for request in requests]
    probe_tid = max(rm.admitted_ids(), default=0) + 1_000_000
    box = _scratch_box(rd.policy_box)
    probe_pid = box.register_task(definition.name)
    requests.append(
        GrantRequest(
            thread_id=probe_tid,
            policy_id=probe_pid,
            resource_list=definition.resource_list,
            quiescent=definition.start_quiescent,
        )
    )

    controller = GrantController(
        rm.grant_control.capacity, box, rm.grant_control.bandwidth_capacity
    )
    result = controller.compute(requests)
    newcomer = result.grant_set.get(probe_tid)

    changes = []
    for thread in admitted:
        predicted = result.grant_set.get(thread.tid)
        if predicted is None:
            continue  # quiescent: no grant either way
        current = thread.grant
        changes.append(
            QosChange(
                thread_id=thread.tid,
                name=thread.name,
                current_index=current.entry_index if current else None,
                predicted_index=predicted.entry_index,
                current_rate=current.rate if current else 0.0,
                predicted_rate=predicted.rate,
            )
        )
    return AdmissionPreview(
        admissible=True,
        newcomer_index=newcomer.entry_index if newcomer else None,
        newcomer_rate=newcomer.rate if newcomer else 0.0,
        changes=changes,
    )


def _scratch_box(box: PolicyBox) -> PolicyBox:
    """A copy of ``box`` to register and resolve in: its task tables
    copied (registering mutates them; the ranking tables are only
    read), with no bus and no profiler."""
    scratch = copy.copy(box)
    scratch._tasks = dict(box._tasks)
    scratch._by_name = dict(box._by_name)
    scratch.obs = scratch.prof = None
    return scratch
