"""The Policy Box: a repository of global QOS tradeoff information.

When the system is overloaded — not every thread can have its maximum
resource-list entry — the Resource Manager consults the Policy Box
(never the applications, never the Scheduler) for a *policy*: a relative
ranking over the currently admitted, non-quiescent threads (Table 5).
Rankings are "relative rates", expressed here as percent of the whole
processor.

The box ships with defaults supplied by the system designers (e.g.
degrade video before audio) which users can override (e.g. in a loud
environment, reverse that).  When no policy matches the running task
set, the box invents one: each of N threads receives 1/N of the
resources, and an arbitrary thread is given control of exclusive
resources (section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PolicyError
from repro.obs.events import PolicyResolutionEvent


@dataclass(frozen=True)
class Policy:
    """A resolved policy for a specific set of threads.

    ``shares`` maps policy id -> fraction of the processor (0..1).  The
    thread named by ``exclusive_preference`` has first claim on exclusive
    functional units during grant selection.
    """

    shares: dict[int, float]
    exclusive_preference: int | None = None
    invented: bool = False


@dataclass
class _TaskRecord:
    policy_id: int
    name: str


class PolicyBox:
    """Correlates task names with policy ids and stores ranking tables.

    A ranking table is keyed by the *set* of policy ids it covers; the
    Resource Manager looks up the exact set of admitted, non-quiescent
    threads.  Rankings are percentages of the whole processor and must
    fit within the schedulable capacity ("only policies that fit are
    allowed by the Policy Box").
    """

    def __init__(self, capacity: float = 0.96) -> None:
        if not 0.0 < capacity <= 1.0:
            raise PolicyError(f"capacity must be in (0, 1], got {capacity}")
        self._capacity = capacity
        self._tasks: dict[int, _TaskRecord] = {}
        self._by_name: dict[str, int] = {}
        self._next_id = 1
        #: frozenset[policy_id] -> (rankings, is_user_override)
        self._defaults: dict[frozenset[int], dict[int, float]] = {}
        self._overrides: dict[frozenset[int], dict[int, float]] = {}
        self._lookups = 0
        self._inventions = 0
        #: Optional telemetry bus, plus the clock it stamps events with
        #: (the box itself has no notion of simulated time; the
        #: distributor wires ``clock`` to the kernel's).
        self.obs = None
        self.clock = lambda: 0
        #: Optional phase profiler; wired by the distributor like obs.
        self.prof = None

    # -- task identity ---------------------------------------------------

    def register_task(self, name: str) -> int:
        """Register a task name, returning its policy id.

        Registering the same name twice returns the same id, so a task
        that exits and restarts keeps its policy identity.
        """
        if name in self._by_name:
            return self._by_name[name]
        policy_id = self._next_id
        self._next_id += 1
        self._tasks[policy_id] = _TaskRecord(policy_id=policy_id, name=name)
        self._by_name[name] = policy_id
        return policy_id

    def task_name(self, policy_id: int) -> str:
        try:
            return self._tasks[policy_id].name
        except KeyError:
            raise PolicyError(f"unknown policy id {policy_id}") from None

    def policy_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise PolicyError(f"no task named {name!r} registered") from None

    # -- ranking tables ----------------------------------------------------

    def set_default(self, rankings: dict[int, float]) -> None:
        """Install a designer-supplied ranking for a set of tasks.

        ``rankings`` maps policy id -> percent of the processor
        (Table 5 uses values such as {1: 10, 2: 85}).
        """
        key = self._validate(rankings)
        self._defaults[key] = dict(rankings)

    def set_override(self, rankings: dict[int, float]) -> None:
        """Install a user override, taking precedence over the default."""
        key = self._validate(rankings)
        self._overrides[key] = dict(rankings)

    def clear_override(self, policy_ids: frozenset[int] | set[int]) -> None:
        self._overrides.pop(frozenset(policy_ids), None)

    def known_policies(self) -> list[frozenset[int]]:
        """Every task set for which a ranking exists (default or override)."""
        return sorted(
            set(self._defaults) | set(self._overrides),
            key=lambda ids: (len(ids), sorted(ids)),
        )

    # -- resolution --------------------------------------------------------

    def resolve(self, policy_ids: frozenset[int] | set[int]) -> Policy:
        """Return the policy for the given set of threads.

        Looks for a user override first, then a default.  If neither
        matches, invents the 1/N policy, giving exclusive resources to an
        arbitrary (deterministically the lowest-id) thread.
        """
        prof = self.prof
        if prof:
            prof.begin("policy.resolve")
            try:
                return self._resolve(policy_ids)
            finally:
                prof.end("policy.resolve")
        return self._resolve(policy_ids)

    def _resolve(self, policy_ids: frozenset[int] | set[int]) -> Policy:
        key = frozenset(policy_ids)
        if not key:
            raise PolicyError("cannot resolve a policy for an empty task set")
        tasks = self._tasks
        if not key <= tasks.keys():
            unknown = sorted(pid for pid in key if pid not in tasks)
            raise PolicyError(f"unregistered policy ids {unknown}")
        self._lookups += 1
        rankings = self._overrides.get(key) or self._defaults.get(key)
        if rankings is not None:
            shares = {pid: pct / 100.0 for pid, pct in rankings.items()}
            preference = max(shares, key=lambda pid: (shares[pid], -pid))
            self._emit_resolution(key, invented=False)
            return Policy(shares=shares, exclusive_preference=preference)
        self._emit_resolution(key, invented=True)
        return self._invent(key)

    def _emit_resolution(self, key: frozenset[int], invented: bool) -> None:
        if self.obs:
            self.obs.emit(
                PolicyResolutionEvent(
                    time=self.clock(),
                    task_count=len(key),
                    invented=invented,
                    lookups=self._lookups,
                )
            )

    def _invent(self, key: frozenset[int]) -> Policy:
        self._inventions += 1
        share = self._capacity / len(key)
        shares = dict.fromkeys(key, share)
        return Policy(
            shares=shares,
            exclusive_preference=min(key),
            invented=True,
        )

    def _validate(self, rankings: dict[int, float]) -> frozenset[int]:
        if not rankings:
            raise PolicyError("a policy must rank at least one task")
        for pid, pct in rankings.items():
            if pid not in self._tasks:
                raise PolicyError(f"policy references unregistered id {pid}")
            if pct <= 0:
                raise PolicyError(
                    f"ranking for {self.task_name(pid)!r} must be positive, got {pct}"
                )
        total = sum(rankings.values())
        if total > self._capacity * 100.0 + 1e-9:
            raise PolicyError(
                f"rankings sum to {total:.1f}% which exceeds the schedulable "
                f"capacity {self._capacity * 100:.1f}%; only policies that fit "
                f"are allowed by the Policy Box"
            )
        return frozenset(rankings)

    # -- introspection -------------------------------------------------------

    @property
    def lookup_count(self) -> int:
        return self._lookups

    @property
    def invention_count(self) -> int:
        return self._inventions

    def describe(self) -> str:
        """Render the ranking tables in the paper's Table 5 format."""
        ids = sorted(self._tasks)
        names = [self._tasks[i].name for i in ids]
        header = "Policy ID | " + " | ".join(f"{n:>10}" for n in names)
        lines = [header, "-" * len(header)]
        for key in self.known_policies():
            rankings = self._overrides.get(key) or self._defaults[key]
            label = ",".join(str(i) for i in sorted(key))
            cells = [
                f"{rankings[i]:>10.0f}" if i in rankings else " " * 10 for i in ids
            ]
            lines.append(f"{label:>9} | " + " | ".join(cells))
        return "\n".join(lines)
