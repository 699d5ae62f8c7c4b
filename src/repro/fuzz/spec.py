"""ScenarioSpec: the fuzzer's portable scenario description.

A spec is a *data-only* recipe for a runnable scenario: every task (its
QOS levels, behavior, arrival, departure, quiescent spans), the machine
model, the horizon, and — for cluster specs — the bus and placement
parameters.  All times are integer 27 MHz ticks.  Because a spec
contains no code, it serializes losslessly to JSON, which is what makes
the whole pipeline work: the generator emits specs, the shrinker edits
them, reproducers and the regression corpus are specs on disk, and the
runner turns any of them back into a live system.

The on-disk **trace format** (``*.trace.json``) wraps one spec with the
outcome it is expected to produce and the bug injection (if any) that
produced it, under a ``schema_version`` — like ``events.jsonl``, a
future version is rejected loudly rather than misread silently.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from repro import units
from repro.errors import SimulationError

#: Bump when the spec/trace wire format changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: The ``kind`` tag stamped on every trace file.
TRACE_KIND = "repro.fuzz.trace"

#: Task behaviors the runner knows how to instantiate.
BEHAVIORS = ("follower", "greedy", "jittery", "drifting")

#: Machine models the runner knows how to build (see scenarios._machine).
MACHINES = ("ideal", "quiet", "calibrated")


class SpecError(SimulationError):
    """A ScenarioSpec (or a trace file wrapping one) is malformed."""


# -- the codec --------------------------------------------------------------
#
# Every class below is a frozen dataclass of JSON-ready fields, and one
# codec driven by those fields reads and writes them all.  Encoding
# writes every field, tuples as lists.  Decoding coerces each present
# field as its annotation says (``int(v)``, a tuple item by item, ``X |
# None``, ...) and leaves a missing one to the dataclass default; a
# missing required field or a rejected value is a :class:`SpecError`
# naming the field.  ``ScenarioSpec`` and ``TraceFile`` stamp and check
# their header in their own ``to_dict`` / ``from_dict``, which the codec
# calls for a field of that type.


def _encode(value):
    if is_dataclass(value):
        stamped = getattr(value, "to_dict", None)
        return stamped() if stamped else _encode_fields(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _encode_fields(obj) -> dict:
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _decode(hint, value, where: str, path: str):
    """``value`` read as a ``hint``; ``path`` names it inside ``where``."""
    if isinstance(hint, UnionType):  # ``X | None``
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not NoneType]
    if is_dataclass(hint):
        stamped = getattr(hint, "from_dict", None)
        if stamped:
            return stamped(value, where=f"{where}: {path}")
        return _decode_fields(hint, value, where, path)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{where}: {path} must be a list, got {value!r}")
        hints = get_args(hint)
        if hints[-1] is Ellipsis:
            hints = hints[:1] * len(value)
        elif len(hints) != len(value):
            raise SpecError(
                f"{where}: {path} must have {len(hints)} items, got {value!r}"
            )
        return tuple(
            _decode(item_hint, item, where, f"{path}[{i}]")
            for i, (item_hint, item) in enumerate(zip(hints, value))
        )
    try:
        return hint(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(
            f"{where}: {path} must be {hint.__name__}, got {value!r}"
        ) from None


def _decode_fields(cls, data, where: str, path: str = ""):
    """A ``cls`` read field by field from the object ``data``."""
    if not isinstance(data, dict):
        what = f"{where}: {path}" if path else where
        raise SpecError(f"{what} must be an object, got {data!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        name = f"{path}.{f.name}" if path else f.name
        if f.name in data:
            values[f.name] = _decode(hints[f.name], data[f.name], where, name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SpecError(f"{where}: {name} is missing")
    return cls(**values)


# -- the spec ---------------------------------------------------------------


@dataclass(frozen=True)
class LevelSpec:
    """One QOS level: a period and a CPU requirement, both in ticks."""

    period_ticks: int
    cpu_ticks: int

    @property
    def rate(self) -> float:
        return self.cpu_ticks / self.period_ticks


@dataclass(frozen=True)
class SporadicSpec:
    """A sporadic work source: jittered arrivals into the Sporadic Server.

    ``jitter_ticks`` is an integer bound: each inter-arrival gap is
    ``interarrival_ticks`` plus a uniform integer draw from
    ``[-jitter_ticks, +jitter_ticks]`` (the generator rounds every
    jitter to whole ticks — fractional ticks do not exist).
    """

    interarrival_ticks: int
    jitter_ticks: int
    burst_ticks: int


@dataclass(frozen=True)
class TaskSpec:
    """One task in the scenario.

    A periodic task is admitted at ``arrival_ticks`` (denial under
    over-scheduling pressure is an expected outcome, not a failure),
    optionally departs at ``departure_ticks``, and may cycle through
    quiescent spans — ``(sleep_ticks, wake_ticks)`` pairs in absolute
    time.  A task with a :class:`SporadicSpec` is instead a sporadic
    *source*: it has no admission of its own and feeds bursts of work
    to the scenario's Sporadic Server at jittered arrival times.
    """

    name: str
    behavior: str
    levels: tuple[LevelSpec, ...]
    arrival_ticks: int
    departure_ticks: int | None = None
    quiescent_spans: tuple[tuple[int, int], ...] = ()
    start_quiescent: bool = False
    #: For ``drifting`` behavior: idle cycles inserted per period (§5.4
    #: clock synchronization — the task phase-locks to a skewed clock).
    drift_ticks_per_period: int = 0
    sporadic: SporadicSpec | None = None

    @property
    def min_rate(self) -> float:
        """The admission-relevant rate (the lowest level's)."""
        return self.levels[-1].rate if self.levels else 0.0


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster placement parameters: nodes behind a broker on a lossy bus."""

    nodes: int
    policy: str = "aimd"
    latency_ticks: int = units.us_to_ticks(100)
    jitter_ticks: int = 0
    drop_rate: float = 0.0
    migrate: bool = True


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable, JSON-serializable scenario description."""

    seed: int
    horizon_ticks: int
    machine: str
    tasks: tuple[TaskSpec, ...]
    #: Admit a Sporadic Server (required when any task is a sporadic source).
    server: bool = False
    cluster: ClusterSpec | None = None
    #: Free-form provenance (generator profile, campaign index); carried
    #: through serialization but never consulted by the runner.
    notes: dict = field(default_factory=dict)

    def validate(self) -> "ScenarioSpec":
        """Structural checks; returns self so calls chain."""
        if self.horizon_ticks <= 0:
            raise SpecError(f"horizon must be positive, got {self.horizon_ticks}")
        if self.machine not in MACHINES:
            raise SpecError(
                f"unknown machine {self.machine!r}; pick one of {MACHINES}"
            )
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate task names in spec: {sorted(names)}")
        for task in self.tasks:
            if task.behavior not in BEHAVIORS:
                raise SpecError(
                    f"task {task.name!r}: unknown behavior {task.behavior!r}; "
                    f"pick one of {BEHAVIORS}"
                )
            if task.sporadic is None and not task.levels:
                raise SpecError(f"task {task.name!r} has no QOS levels")
            if task.arrival_ticks < 0:
                raise SpecError(
                    f"task {task.name!r}: arrival {task.arrival_ticks} is negative"
                )
            if (
                task.departure_ticks is not None
                and task.departure_ticks <= task.arrival_ticks
            ):
                raise SpecError(
                    f"task {task.name!r}: departure {task.departure_ticks} "
                    f"is not after arrival {task.arrival_ticks}"
                )
            for sleep_ticks, wake_ticks in task.quiescent_spans:
                if not task.arrival_ticks <= sleep_ticks < wake_ticks:
                    raise SpecError(
                        f"task {task.name!r}: quiescent span "
                        f"({sleep_ticks}, {wake_ticks}) is not ordered after "
                        f"arrival {task.arrival_ticks}"
                    )
            if task.sporadic is not None:
                if not self.server:
                    raise SpecError(
                        f"task {task.name!r} is a sporadic source but the "
                        f"spec admits no Sporadic Server"
                    )
                if task.sporadic.interarrival_ticks <= 0:
                    raise SpecError(
                        f"task {task.name!r}: inter-arrival must be positive"
                    )
                if task.sporadic.jitter_ticks < 0:
                    raise SpecError(f"task {task.name!r}: jitter must be >= 0")
        if self.cluster is not None:
            if not 1 <= self.cluster.nodes <= 99:
                raise SpecError(
                    f"cluster nodes must be in [1, 99], got {self.cluster.nodes}"
                )
            if not 0.0 <= self.cluster.drop_rate < 1.0:
                raise SpecError(
                    f"cluster drop_rate must be in [0, 1), got "
                    f"{self.cluster.drop_rate}"
                )
        return self

    def to_dict(self) -> dict:
        return {"schema_version": TRACE_SCHEMA_VERSION, **_encode_fields(self)}

    @classmethod
    def from_dict(cls, data: dict, *, where: str = "spec") -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise SpecError(f"{where} must be an object, got {data!r}")
        version = data.get("schema_version", TRACE_SCHEMA_VERSION)
        if version != TRACE_SCHEMA_VERSION:
            raise SpecError(
                f"{where} schema_version {version!r} is not supported (this "
                f"reader understands {TRACE_SCHEMA_VERSION}); the spec was "
                f"written by a newer repro"
            )
        return _decode_fields(cls, data, where)

    @property
    def min_rate_sum(self) -> float:
        """Sum of every periodic task's minimum rate — the quantity
        admission control tests against the schedulable capacity."""
        return sum(t.min_rate for t in self.tasks if t.sporadic is None)


# -- the trace file ---------------------------------------------------------


@dataclass(frozen=True)
class TraceFile:
    """One ``*.trace.json``: a spec plus its expected outcome.

    ``expect`` is ``"ok"`` for corpus regressions that must stay clean,
    or a failure kind (``"invariant:edf-order"``, ``"crash:..."``) for
    shrunk reproducers.  ``inject`` names the synthetic bug (if any)
    that must be re-applied for the failure to reproduce.
    """

    spec: ScenarioSpec
    expect: str = "ok"
    inject: str | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "kind": TRACE_KIND,
            **_encode_fields(self),
        }

    @classmethod
    def from_dict(cls, data: dict, *, where: str = "trace") -> "TraceFile":
        version = data.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise SpecError(
                f"{where}: trace schema_version {version!r} is not supported "
                f"(this reader understands {TRACE_SCHEMA_VERSION}); the file "
                f"was written by a newer repro — replay it with a matching "
                f"version"
            )
        kind = data.get("kind")
        if kind != TRACE_KIND:
            raise SpecError(
                f"{where}: kind {kind!r} is not a fuzz trace "
                f"(expected {TRACE_KIND!r})"
            )
        return _decode_fields(cls, data, where)


def write_trace(path: str | Path, trace: TraceFile) -> Path:
    """Write a trace file (pretty-printed: reproducers get read by humans)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    rendered = json.dumps(trace.to_dict(), sort_keys=True, indent=2) + "\n"
    target.write_text(rendered, encoding="utf-8")
    return target


def load_trace(path: str | Path) -> TraceFile:
    """Load and schema-check one ``*.trace.json``."""
    target = Path(path)
    if not target.is_file():
        raise SpecError(f"no trace file at {target}")
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise SpecError(f"{target}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError(f"{target}: expected a JSON object")
    return TraceFile.from_dict(data, where=str(target))
