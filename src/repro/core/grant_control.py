"""Grant-set computation: turning resource lists + policy into grants.

Section 6.3 describes the algorithm:

* **Fast path** (system not overloaded): check whether every thread can
  have its *maximum* resource-list entry; if so, done.  As in the
  paper, the Resource Manager keeps running sums of the active
  requests' maximum rate and bandwidth (``ResourceManager._max_rate``,
  ``_max_bandwidth``) and hands them to :meth:`GrantController.compute`
  with a bound on their rounding drift.  When they exceed a capacity by
  more than that bound the machine is overloaded, and the check costs
  O(1).  Otherwise the sums are recounted from the requests in Θ(N), so
  the verdict is always the recount's; a caller without running sums
  (``analysis.advisor``) passes none and always recounts.
* **Overloaded**: the Resource Manager asks the Policy Box for a policy
  over the admitted, non-quiescent threads, then *correlates* the policy
  with the actual resource lists in up to three O(N) passes:

  1. For each thread, note the entries just above and below the
     policy-specified QOS; if the sum of the "above" entries fits, done.
  2. Otherwise walk through once more, turning higher entries into lower
     entries until the set fits.  The paper leaves the demotion order
     unspecified; we demote the thread whose selection overshoots its
     policy target the most first (ties against the lowest-ranked), so
     small-but-precious tasks are not sacrificed ahead of large ones.
  3. If substantial resources remain unused, make a third pass looking
     for threads that can use them — capped at each thread's
     policy-sanctioned (pass 1) level, since further slack is the
     Scheduler's OvertimeRequested queue's job, not the policy's.

Exclusive functional units (FFU video scaler, Data Streamer) are
arbitrated during selection: no unit is ever granted to two threads, and
the policy's preferred thread has first claim.  Data Streamer bandwidth
(the paper's §7 future work) is a second budget tracked through every
pass.  Because resource lists and policies are authored independently,
a policy can nominate targets below a thread's minimum entry; demotion
then keeps walking toward the minima — which the admission invariant
guarantees to fit — with an explicit everyone-minimum fallback as the
unconditional backstop to the paper's single-pass convergence claim.

The passes read per-list tables, not entries: a :class:`ResourceList`
is immutable, so its ``rates``, ``bandwidths``, ``negated_rates``,
smallest rate step and whether it names any exclusive unit are computed
once at construction, and the correlation runs over rows indexed by
position in the request list.  For a list that names no exclusive unit,
pass 1 finds the entries just above and just below the target with one
bisection of ``negated_rates``, pass 2 demotes to the saved "below"
entry and pass 3 promotes in an inline loop, so such a thread costs the
passes no Python call.  A list that names a unit goes through the
candidate search instead, which answers with the list's shared index
tuple while no unit is owned yet and filters only otherwise.  The grant
set itself stays a
pure function of the requests and the policy — nothing is carried from
one computation to the next except the previous result's ``Grant``
objects: every result, whichever path produced it, is built in one
place that reuses a thread's ``Grant`` when its entry and index did
not move and reports the rest as ``changed``, so the Scheduler hears
only what changed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.grants import Grant, GrantSet
from repro.core.policy_box import Policy, PolicyBox
from repro.core.resource_list import ResourceList
from repro.errors import GrantError
from repro.sim.phase import phase

_EPS = 1e-9
#: Twice the unit roundoff of a float: an add or subtract rounds by
#: less than this times the result it returns.
ROUNDING = 2.0**-52


@dataclass(frozen=True)
class GrantRequest:
    """One admitted thread's standing request, as grant control sees it."""

    thread_id: int
    policy_id: int
    resource_list: ResourceList
    quiescent: bool = False

    @property
    def min_rate(self) -> float:
        return self.resource_list.minimum.rate

    @property
    def max_rate(self) -> float:
        return self.resource_list.maximum.rate

    @property
    def min_bandwidth(self) -> float:
        return self.resource_list.minimum.bandwidth


@dataclass(frozen=True)
class GrantSetResult:
    """A computed grant set plus how it was reached (for the §6.3 bench)."""

    grant_set: GrantSet
    #: None on the fast path; the policy used otherwise.
    policy: Policy | None
    #: 0 = fast path, 1..3 = which correlation pass produced the final set.
    passes: int
    #: True when even full demotion failed and everyone got their minimum.
    minimum_fallback: bool = False
    #: Exclusive-unit ownership implied by the set: unit -> thread id.
    exclusive_assignment: dict[str, int] = field(default_factory=dict)
    #: Threads whose (entry, entry index) differs from the controller's
    #: previous result — always set by :class:`GrantController`.  None
    #: only on a hand-built result: the Scheduler then revisits every
    #: thread in either set.
    changed: frozenset[int] | None = None


def _claim_order(
    tids: list[int], pids: list[int], targets: list[float], preferred: int | None
) -> list[int]:
    """Positions in selection order: the policy's exclusive-preference
    thread first, then by descending target share, then by thread id
    for determinism — the order of ``(pid != preferred, -target, tid)``.
    Three stable sorts over plain key lists, least significant key
    first, give it without building a key tuple per thread."""
    order = sorted(range(len(tids)), key=tids.__getitem__)
    order.sort(key=[-target for target in targets].__getitem__)
    order.sort(key=[pid != preferred for pid in pids].__getitem__)
    return order


class GrantController:
    """Computes grant sets for the Resource Manager."""

    def __init__(
        self,
        capacity: float,
        policy_box: PolicyBox,
        bandwidth_capacity: float = 1.0,
    ) -> None:
        if not 0.0 < capacity <= 1.0:
            raise GrantError(f"capacity must be in (0, 1], got {capacity}")
        if not 0.0 < bandwidth_capacity <= 1.0:
            raise GrantError(
                f"bandwidth capacity must be in (0, 1], got {bandwidth_capacity}"
            )
        self._capacity = capacity
        self._bandwidth = bandwidth_capacity
        self._policy_box = policy_box
        #: The previous result's grants, whichever path produced them.
        #: A thread whose entry and index did not move keeps its
        #: ``Grant`` object (frozen, so sharing is safe) and stays out
        #: of ``changed``; threads that left the population drop out
        #: because each result replaces the dict.
        self._grant_cache: dict[int, Grant] = {}
        #: Optional phase profiler; wired by the distributor like obs.
        self.prof = None

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def bandwidth_capacity(self) -> float:
        return self._bandwidth

    @phase("grant.compute")
    def compute(
        self,
        requests: list[GrantRequest],
        maxima: tuple[float, float, float] | None = None,
    ) -> GrantSetResult:
        """Compute the grant set for the current task population.

        ``requests`` covers every admitted thread; quiescent threads are
        skipped for grants (their resources flow to the others) but were
        already counted by admission control.  ``maxima`` is the caller's
        running sums of the active requests' maximum rate and bandwidth
        plus a bound on how far updates have rounded them: when they
        prove the machine overloaded the fast path's recount is skipped.
        """
        active = [r for r in requests if not r.quiescent]
        if not active:
            return self._result(active, [], None, 0, False, {})
        if len({r.thread_id for r in active}) != len(active):
            seen: set[int] = set()
            for request in active:
                if request.thread_id in seen:
                    raise GrantError(
                        f"duplicate grant request for thread {request.thread_id}"
                    )
                seen.add(request.thread_id)

        if maxima is not None:
            rate, bandwidth, drift = maxima
            # The exact sums are within ``drift`` of the running ones.
            # The recount's n additions each round by less than
            # ``ROUNDING`` times the total, one more term covers the
            # subtraction below, and the factor of two in ``ROUNDING``
            # absorbs the rounding of this bound's own arithmetic.
            slop = drift + (len(active) + 1) * (rate + bandwidth + drift) * ROUNDING
            if (
                rate - slop > self._capacity + _EPS
                or bandwidth - slop > self._bandwidth + _EPS
            ):
                return self._policy_path(active)
        owners = self._fast_path(active)
        if owners is not None:
            return self._result(active, [0] * len(active), None, 0, False, owners)
        return self._policy_path(active)

    def _result(
        self,
        active: list[GrantRequest],
        selection: list[int],
        policy: Policy | None,
        passes: int,
        fallback: bool,
        owners: dict[str, int],
    ) -> GrantSetResult:
        """The one place a result is built: ``selection[p]`` is the entry
        index chosen for ``active[p]``.  A thread keeps its previous
        ``Grant`` object unless its entry or index moved."""
        previous = self._grant_cache
        grants: dict[int, Grant] = {}
        changed: set[int] = set()
        for request, index in zip(active, selection):
            tid = request.thread_id
            entry = request.resource_list.entries[index]
            grant = previous.get(tid)
            # Index as well as identity: two lists may share an entry
            # object at different positions.
            if grant is None or grant.entry is not entry or grant.entry_index != index:
                grant = Grant(thread_id=tid, entry=entry, entry_index=index)
                changed.add(tid)
            grants[tid] = grant
        grant_set = GrantSet(grants, self._capacity, self._bandwidth)
        # Only a set that validated replaces the cache (GrantSet copied
        # the dict): ``changed`` is always relative to the last result
        # handed on to the Scheduler.
        self._grant_cache = grants
        return GrantSetResult(
            grant_set=grant_set,
            policy=policy,
            passes=passes,
            minimum_fallback=fallback,
            exclusive_assignment=owners,
            changed=frozenset(changed),
        )

    # -- fast path -----------------------------------------------------------

    def _fast_path(self, active: list[GrantRequest]) -> dict[str, int] | None:
        """Unit ownership when everyone can have their maximum entry, or
        None when that does not fit in both resources without
        exclusive-unit conflicts.  The sums read the lists' stored
        tables (index 0 is the maximum entry), not property chains."""
        if sum([r.resource_list.rates[0] for r in active]) > self._capacity + _EPS:
            return None
        if (
            sum([r.resource_list.bandwidths[0] for r in active])
            > self._bandwidth + _EPS
        ):
            return None
        owners: dict[str, int] = {}
        for request in active:
            if not request.resource_list.names_exclusive:
                continue
            for unit in request.resource_list.maximum.exclusive:
                if unit in owners:
                    return None  # conflict: resolve through the policy path
                owners[unit] = request.thread_id
        return owners

    # -- policy correlation ----------------------------------------------------

    def _policy_path(self, active: list[GrantRequest]) -> GrantSetResult:
        policy = self._policy_box.resolve({r.policy_id for r in active})
        # Everything below is indexed by position in ``active``; the
        # lists' own tables supply rates and bandwidths by entry index.
        # A thread whose list names no exclusive unit costs the passes
        # no Python call: orders are sorts over plain keys and each
        # selection is a table read (``tests/test_hot_paths.py`` counts).
        count = len(active)
        lists = [r.resource_list for r in active]
        pids = [r.policy_id for r in active]
        shares = policy.shares
        targets = [shares.get(pid, 0.0) for pid in pids]
        cpu_limit = self._capacity + _EPS
        bw_limit = self._bandwidth + _EPS

        # This order settles exclusive-unit claims.
        ordered = _claim_order(
            [r.thread_id for r in active], pids, targets, policy.exclusive_preference
        )
        owners: dict[str, int] = {}
        selection = [0] * count
        #: Pass 1's "below" entry for each unit-free thread.
        below = [0] * count

        # Pass 1: entries just above the policy-specified QOS.  A
        # running ``total`` keeps every subsequent pass O(N), as the
        # paper requires.
        total = 0.0
        bw_total = 0.0
        for p in ordered:
            entries = lists[p]
            if entries.names_exclusive:
                index = self._select_above(
                    entries.rates, self._candidates(active[p], owners), targets[p]
                )
                self._claim(active[p], index, owners)
            else:
                # The entries with rate >= target - eps are the first
                # ``split`` (``_EPS - target`` is exactly the negated
                # floor): "above" is the last of them (the best entry
                # when there are none), "below" the next one (the
                # minimum entry when there is none).
                negated = entries.negated_rates
                split = bisect_right(negated, _EPS - targets[p])
                index = split - 1 if split else 0
                below[p] = split if split < len(negated) else split - 1
            selection[p] = index
            total += entries.rates[index]
            bw_total += entries.bandwidths[index]
        passes = 1
        #: Each thread's policy-sanctioned level; pass 3 never exceeds it.
        ceiling = list(selection)

        if total > cpu_limit or bw_total > bw_limit:
            # Pass 2: turn higher entries into lower entries.  Demote
            # first the threads whose "above" entry overshoots their
            # policy target the most — they hold the least-entitled
            # resources — breaking ties against the lowest-ranked.  The
            # key ``target - rate`` is exactly ``-(rate - target)``, and
            # a stable sort of the claim order reversed puts the
            # lowest-ranked first among equal keys.  Bandwidth overload
            # uses the same order: demotion lowers both dimensions level
            # by level.
            passes = 2
            demote_keys = [
                target - entries.rates[index]
                for target, entries, index in zip(targets, lists, selection)
            ]
            demote_order = sorted(reversed(ordered), key=demote_keys.__getitem__)
            for p in demote_order:
                if total <= cpu_limit and bw_total <= bw_limit:
                    break
                entries = lists[p]
                old_index = selection[p]
                if entries.names_exclusive:
                    index = self._select_below(
                        entries.rates,
                        self._candidates(active[p], owners),
                        targets[p],
                        old_index,
                    )
                else:
                    index = below[p]
                if index != old_index:
                    rates = entries.rates
                    bws = entries.bandwidths
                    total += rates[index] - rates[old_index]
                    bw_total += bws[index] - bws[old_index]
                    if entries.names_exclusive:
                        self._release(active[p], old_index, owners)
                        self._claim(active[p], index, owners)
                    selection[p] = index
            if total > cpu_limit or bw_total > bw_limit:
                # One demotion level may not free enough bandwidth
                # (entries are ordered by CPU rate, not bandwidth); keep
                # demoting toward the minima until both budgets fit.
                for p in demote_order:
                    entries = lists[p]
                    rates = entries.rates
                    bws = entries.bandwidths
                    last = len(rates) - 1
                    while selection[p] < last and (
                        total > cpu_limit or bw_total > bw_limit
                    ):
                        old_index = selection[p]
                        if entries.names_exclusive:
                            index = next(
                                (
                                    i
                                    for i in self._candidates(active[p], owners)
                                    if i > old_index
                                ),
                                None,
                            )
                            if index is None:
                                break
                        else:
                            index = old_index + 1
                        total += rates[index] - rates[old_index]
                        bw_total += bws[index] - bws[old_index]
                        if entries.names_exclusive:
                            self._release(active[p], old_index, owners)
                            self._claim(active[p], index, owners)
                        selection[p] = index
                    if total <= cpu_limit and bw_total <= bw_limit:
                        break

        fallback = False
        if total > cpu_limit or bw_total > bw_limit:
            # The policy nominated targets below some minimum entries.
            # Fall back to the minimum set, which admission guarantees.
            fallback = True
            owners.clear()
            total = 0.0
            bw_total = 0.0
            for p in ordered:
                entries = lists[p]
                index = len(entries.rates) - 1
                if entries.names_exclusive:
                    self._claim(active[p], index, owners)
                selection[p] = index
                total += entries.rates[index]
                bw_total += entries.bandwidths[index]

        slack = self._capacity - total
        bw_slack = self._bandwidth - bw_total
        if (
            passes == 2
            and not fallback
            and slack >= min([entries.smallest_step for entries in lists]) - _EPS
        ):
            # Pass 3: hand otherwise-unallocated resources back to
            # demoted threads, best-ranked first — but never beyond the
            # policy-sanctioned (pass 1) level: further slack belongs to
            # the Scheduler's OvertimeRequested queue at run time, not
            # to grants the policy declined to make.
            passes = 3
            for p in ordered:
                if slack <= _EPS:
                    break
                old_index = selection[p]
                top = ceiling[p]
                if old_index == top:
                    continue  # nothing between the ceiling and here
                entries = lists[p]
                rates = entries.rates
                if rates[old_index - 1] - rates[old_index] > slack + _EPS:
                    # Rates descend with the index, so if one step up
                    # does not fit, no higher entry does.
                    continue
                bws = entries.bandwidths
                if entries.names_exclusive:
                    index = self._promote(
                        rates,
                        bws,
                        self._candidates(active[p], owners),
                        old_index,
                        top,
                        slack,
                        bw_slack,
                    )
                else:
                    # The best entry from the ceiling down that fits in
                    # both slacks.
                    index = old_index
                    rate = rates[old_index]
                    bw = bws[old_index]
                    for i in range(top, old_index):
                        if (
                            rates[i] - rate <= slack + _EPS
                            and bws[i] - bw <= bw_slack + _EPS
                        ):
                            index = i
                            break
                if index != old_index:
                    slack -= rates[index] - rates[old_index]
                    bw_slack -= bws[index] - bws[old_index]
                    if entries.names_exclusive:
                        self._release(active[p], old_index, owners)
                        self._claim(active[p], index, owners)
                    selection[p] = index

        return self._result(active, selection, policy, passes, fallback, dict(owners))

    # -- selection helpers: lists that name exclusive units --------------------
    #
    # Candidates ascend by index, and rates strictly descend with it, so
    # "the entries at or above a rate" are a prefix of the candidates
    # and "those below it" a suffix: each selection is one short loop.

    def _candidates(
        self, request: GrantRequest, owners: dict[str, int]
    ) -> Sequence[int]:
        """Entry indices whose exclusive needs are free (or already
        ours), ascending.  Nothing can conflict while no unit is owned
        yet; the answer is then the list's own shared index tuple, which
        callers must not mutate."""
        entries = request.resource_list
        if not owners:
            return entries.indices
        tid = request.thread_id
        available = [
            i
            for i, entry in enumerate(entries)
            if all(owners.get(unit, tid) == tid for unit in entry.exclusive)
        ]
        if not available:
            raise GrantError(
                f"thread {tid} has no conflict-free entry; minimum "
                f"entries must not require exclusive units"
            )
        return available

    @staticmethod
    def _select_above(
        rates: tuple[float, ...], candidates: Sequence[int], target: float
    ) -> int:
        """The entry just above the policy target (lowest rate >= target),
        or the best entry below it when the target exceeds every level."""
        floor = target - _EPS
        chosen = candidates[0]  # target above all levels: take the best we have
        for i in candidates:
            if rates[i] < floor:
                break
            chosen = i  # lowest QOS so far that still meets the target
        return chosen

    @staticmethod
    def _select_below(
        rates: tuple[float, ...],
        candidates: Sequence[int],
        target: float,
        current: int,
    ) -> int:
        """Demotion target: the entry just below the policy target, or the
        minimum entry when nothing sits below the target.  ``current`` is
        the thread's own selection, so it is always a candidate."""
        floor = target - _EPS
        for i in candidates:
            if i >= current and rates[i] < floor:
                return i  # highest QOS under the target
        return candidates[-1]  # floor: the minimum entry

    @staticmethod
    def _promote(
        rates: tuple[float, ...],
        bandwidths: tuple[float, ...],
        candidates: Sequence[int],
        current: int,
        floor: int,
        slack: float,
        bw_slack: float,
    ) -> int:
        """The best entry reachable within the CPU and bandwidth slack,
        no higher (lower index) than ``floor``."""
        current_rate = rates[current]
        current_bw = bandwidths[current]
        for i in candidates:
            if i < floor:
                continue
            if i >= current:
                break
            if (
                rates[i] - current_rate <= slack + _EPS
                and bandwidths[i] - current_bw <= bw_slack + _EPS
            ):
                return i
        return current

    def _claim(self, request: GrantRequest, index: int, owners: dict[str, int]) -> None:
        for unit in request.resource_list[index].exclusive:
            holder = owners.get(unit)
            if holder is not None and holder != request.thread_id:
                raise GrantError(
                    f"unit {unit!r} already claimed by thread {holder} while "
                    f"granting thread {request.thread_id}"
                )
            owners[unit] = request.thread_id

    def _release(self, request: GrantRequest, index: int, owners: dict[str, int]) -> None:
        for unit in request.resource_list[index].exclusive:
            if owners.get(unit) == request.thread_id:
                del owners[unit]
