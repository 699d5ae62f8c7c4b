"""The task protocol: how application code talks to the kernel.

A resource-list entry's *function* is a generator function::

    def full_decompress(ctx: TaskContext):
        yield Compute(ticks_per_frame)
        # returning == done with this period's work

A unit of work is one ``Compute``, however long: the kernel interrupts
it at any tick and resumes it later, so a body splits its work into
several ops only where it *does* something in between (reads ``ctx``,
posts a channel, blocks, counts progress).  The kernel drives the
generator, consuming ``Compute`` ticks against the
thread's grant, preempting at timer interrupts, and restarting or
resuming the generator at period boundaries according to the thread's
delivery semantics (section 5.5):

* ``CALLBACK``: the stack is cleared and the function is called afresh
  at the start of every period (MPEG, modem, audio).
* ``RETURN``: the generator is resumed where it left off (2D/3D
  graphics, which carry state between periods).

All tasks use return semantics when preempted mid-grant; callback
semantics only ever apply at the beginning of a new period.  A task
using return semantics whose grant *changes* may register a
``filter_callback`` to choose, per change, between cleaning up for a
fresh call or continuing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

from repro import units
from repro.errors import TaskError
from repro.tasks.channels import Channel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.grants import Grant, GrantDelivery
    from repro.core.resource_list import ResourceList


class Op:
    """Base class for operations a task generator can yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Op):
    """Consume ``ticks`` of CPU time (may span preemptions)."""

    ticks: int

    def __post_init__(self) -> None:
        if self.ticks <= 0:
            raise TaskError(f"Compute needs a positive tick count, got {self.ticks}")


@dataclass(frozen=True)
class DonePeriod(Op):
    """Declare this period's work finished and yield the processor.

    With ``overtime=True`` the thread also asks to be placed on the
    OvertimeRequested queue: it would use more CPU if unallocated time
    becomes available (the greedy Sporadic Server always does this).
    Asked again by a thread already running on that queue, the request
    is a poll, not a yield: it changes no queue, so under the RD
    scheduler the thread keeps the processor until the next scheduling
    event (a timer stop, a period boundary, an external event, a wake)
    and the kernel does not re-pick.
    """

    overtime: bool = False


@dataclass(frozen=True)
class Block(Op):
    """Block until the channel has a post available.

    Blocking voids the thread's scheduling guarantee for the periods it
    spans; the guarantee resumes in the first full unblocked period.
    If the channel already has a pending post, the op consumes it and
    the task continues without blocking.
    """

    channel: Channel


@dataclass(frozen=True)
class AssignGrant(Op):
    """Assign this thread's grant to a sporadic task (Sporadic Server).

    For the next ``ticks`` of this thread's granted CPU time, the
    scheduler runs ``task_id`` instead, with resource bookkeeping still
    charged to this thread.  The assignment extends over multiple
    periods if needed and ends early if the sporadic task blocks or
    finishes.
    """

    task_id: int
    ticks: int = units.ms_to_ticks(10)

    def __post_init__(self) -> None:
        if self.ticks <= 0:
            raise TaskError(f"AssignGrant needs positive ticks, got {self.ticks}")


@dataclass(frozen=True)
class InsertIdleCycles(Op):
    """Postpone the start of this thread's next period by ``ticks``.

    The clock-synchronization interface of section 5.4.  Postponing a
    period cannot jeopardize other tasks' guarantees; pulling a period
    *in* would, so negative values are rejected.
    """

    ticks: int

    def __post_init__(self) -> None:
        if self.ticks < 0:
            raise TaskError(
                "InsertIdleCycles cannot pull the period start in "
                f"(got {self.ticks}); it can only postpone"
            )


class Semantics(enum.Enum):
    """Grant-delivery semantics for period starts (section 5.5)."""

    CALLBACK = "callback"
    RETURN = "return"


# The members, bound once at import for the kernel's period-open path
# (see ``repro.core.threads``; DESIGN.md §4).
SEMANTICS_CALLBACK = Semantics.CALLBACK
SEMANTICS_RETURN = Semantics.RETURN


@dataclass(frozen=True)
class PreemptionConfig:
    """Controlled-preemption registration (section 5.6).

    The task promises to poll its notification location at least every
    ``check_interval`` ticks of execution.  When the scheduler needs to
    preempt it, it sets the notification and allows a grace period; if
    the task's next check falls inside the grace period it yields
    voluntarily (cheap switch), otherwise it is involuntarily preempted
    and receives an exception callback when next run.
    """

    check_interval: int

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise TaskError(
                f"check interval must be positive ticks, got {self.check_interval}"
            )


#: Signature of a task generator function.
TaskFunction = Callable[["TaskContext"], Generator[Op, None, None]]

#: Filter callback: given the old and new grants, choose delivery
#: semantics for this one period start (section 5.5).
FilterCallback = Callable[["Grant", "Grant"], Semantics]


@dataclass
class TaskDefinition:
    """Everything an application supplies when requesting admittance."""

    name: str
    resource_list: "ResourceList"
    semantics: Semantics = Semantics.CALLBACK
    #: Consulted when a RETURN-semantics task's grant changes.
    filter_callback: FilterCallback | None = None
    #: Register for controlled preemptions, or None for normal preemption.
    preemption: PreemptionConfig | None = None
    #: Called (not scheduled) when a controlled preemption missed its
    #: grace period, "enabling it to clean up".
    exception_callback: Callable[[int], None] | None = None
    #: Admit in the quiescent state (e.g. the telephone-answering modem).
    start_quiescent: bool = False


class TaskContext:
    """The per-thread view of the kernel handed to task generators.

    Exposes only what application code legitimately sees: the current
    delivery (grant, previous-call completion, resources used), the
    simulation clock, and external clock readings for skew estimation.
    """

    def __init__(self, kernel, thread) -> None:
        self._kernel = kernel
        self._thread = thread
        #: Set by the kernel when each period opens.
        self.delivery: "GrantDelivery | None" = None
        #: True when the previous controlled preemption overran its grace
        #: period; the exception callback has already fired.
        self.missed_grace: bool = False

    @property
    def thread_id(self) -> int:
        return self._thread.tid

    @property
    def name(self) -> str:
        return self._thread.name

    @property
    def now(self) -> int:
        """Current simulation time in 27 MHz ticks."""
        return self._kernel.now

    @property
    def grant(self) -> "Grant | None":
        """The grant in force this period (None for sporadic tasks)."""
        return self.delivery.grant if self.delivery else None

    @property
    def rng(self):
        """This task's deterministic random stream (workload jitter)."""
        return self._kernel.rngs.stream(f"task:{self._thread.name}")

    def preemption_pending(self) -> bool:
        """Poll the controlled-preemption notification location."""
        return self._thread.grace_pending
