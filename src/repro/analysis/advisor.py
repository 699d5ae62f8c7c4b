"""What-if admission analysis against a live Resource Distributor.

Before asking for admittance, a user (or an installer UI) wants to know
*what would happen*: would the task be admitted, and at what QOS level
would everyone end up?  :func:`admission_preview` answers without
touching the running system — it replays the Resource Manager's own
admission test and grant computation against a copy of the current
population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
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

    @property
    def anyone_degraded(self) -> bool:
        return any(c.degraded for c in self.changes)


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
    names: dict[int, str] = {}
    current_grants = {}
    for tid in rm.admitted_ids():
        thread = rd.thread(tid)
        names[tid] = thread.name
        if thread.grant is not None:
            current_grants[tid] = thread.grant
    probe_tid = max(rm.admitted_ids(), default=0) + 1_000_000
    probe_pid = rd.policy_box.register_task(definition.name)
    requests.append(
        GrantRequest(
            thread_id=probe_tid,
            policy_id=probe_pid,
            resource_list=definition.resource_list,
            quiescent=definition.start_quiescent,
        )
    )

    controller = GrantController(
        rm.grant_control.capacity,
        rd.policy_box,
        rm.grant_control.bandwidth_capacity,
    )
    result = controller.compute(requests)
    newcomer = result.grant_set.get(probe_tid)

    changes = []
    for tid, name in names.items():
        predicted = result.grant_set.get(tid)
        if predicted is None:
            continue  # quiescent: no grant either way
        current = current_grants.get(tid)
        changes.append(
            QosChange(
                thread_id=tid,
                name=name,
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
