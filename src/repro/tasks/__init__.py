"""Application task models.

Tasks are written as generator functions that yield *ops* to the kernel
(``Compute``, ``DonePeriod``, ``Block``, ...).  This package defines the
protocol (``base``), inter-thread signalling (``channels``), and models
of every application the paper discusses: MPEG decode (Table 2), AC3
audio, 2D/3D graphics (Table 3), the telephone-answering modem and
cool-down quiescent tasks (section 5.3), the BusyLoop threads of
Table 6 / Figure 5, and the producer/consumer set of Figure 4.
"""

from repro.tasks.base import (
    AssignGrant,
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    Op,
    Poll,
    PreemptionConfig,
    Semantics,
    TaskContext,
    TaskDefinition,
)
from repro.tasks.channels import Channel

__all__ = [
    "AssignGrant",
    "Block",
    "Channel",
    "Compute",
    "DonePeriod",
    "InsertIdleCycles",
    "Op",
    "Poll",
    "PreemptionConfig",
    "Semantics",
    "TaskContext",
    "TaskDefinition",
]
