"""The from-scratch reference stack the differential fuzzer judges by.

Each class here answers a question the shipped core answers
incrementally the way the core used to answer it, from scratch:

* :class:`FromScratchScheduler` — the EDF queue heads, the unallocated
  timer and the earliest preempting boundary by scanning every periodic
  thread, never reading the scheduler's lazy heaps;
* :class:`FromScratchKernel` — channel wakes by walking every blocked
  thread in block order, and a fresh pick at every poll and every cut
  where the kernel holds the slice;
* :class:`ReferenceCorrelator` — grant control without the per-list
  tables or the grant cache: every helper re-derives its candidates
  from the entries, and every result is built from scratch;
* :class:`LockstepSimulation` — the cluster loop that advances every
  node kernel to every global interesting time, where the shipped
  loop runs a node only when something touches it.

:func:`reference_stack` swaps the first three into a fresh distributor
and :func:`lockstep` the last into a built cluster; the two stacks must
then produce the identical run.  ``repro fuzz --differential`` runs
every spec on both (:func:`repro.fuzz.runner.run_spec`), and the
property tests in ``tests/properties`` and ``tests/cluster`` drive the
same classes with hypothesis streams and generated specs.
"""

from __future__ import annotations

from repro import units
from repro.cluster.simulation import EPOCH_TICKS, ClusterSimulation
from repro.core.grant_control import GrantRequest, GrantSetResult
from repro.core.grants import Grant, GrantSet
from repro.core.kernel import Kernel
from repro.core.scheduler import RDScheduler
from repro.core.threads import STATE_BLOCKED
from repro.errors import GrantError
from repro.sim.phase import phase

_EPS = 1e-9


def _edf_key(thread):
    """The oracle's own EDF key, shared with nothing it judges."""
    return (thread.deadline, thread.tid)


class FromScratchScheduler(RDScheduler):
    """RDScheduler with every heap read replaced by the scan it retired.

    The heaps are still pushed to (the hooks are the same object's), but
    nothing here reads them.
    """

    def _scan_ready(self, now):
        eligible = [
            t
            for t in self.kernel.periodic_threads()
            if t.eligible_time_remaining(now)
        ]
        return min(eligible, key=_edf_key) if eligible else None

    def pick(self, now):
        head = self._scan_ready(now)
        if head is None and self._pending_activation:
            self._activate(now)
            head = self._scan_ready(now)
        if head is not None:
            return head
        best = None
        for thread in self.kernel.periodic_threads():
            if thread.eligible_overtime(now) and (
                best is None or _edf_key(thread) < _edf_key(best)
            ):
                best = thread
        return best if best is not None else self.kernel.idle

    def _unallocated_timer(self, thread, now):
        stop = units.INFINITE
        if not thread.is_idle and thread.in_period:
            stop = thread.deadline
        for other in self.kernel.periodic_threads():
            boundary = self._fresh_allocation_time(other, now)
            if boundary is not None and boundary < stop:
                stop = boundary
        return stop

    def _earliest_preempting_boundary(self, thread, now, limit):
        best = None
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            boundary = self._fresh_allocation_time(other, now)
            if boundary is None or boundary <= now or boundary >= limit:
                continue
            if self._next_deadline_after(other, now) >= thread.deadline:
                continue
            if best is None or boundary < best:
                best = boundary
        return best


class FromScratchKernel(Kernel):
    """Kernel that delivers posts the way it used to — walk every
    blocked thread in the order they blocked and try its channel — and
    re-picks where the kernel holds a slice: at every poll and at every
    cut.  The scans read no queue the hooks feed, so a re-pick checks
    that nothing a hold skipped could have moved; only this class
    selects it."""

    def run_until(self, horizon):
        if self._held is not None and not self._held[0].grace_pending:
            self._held = None  # every cut is a decision; a grace slice is none
        super().run_until(horizon)

    def _poll(self, thread, now, stop, poll):
        return False  # every poll ends the slice

    def _deliver_posts(self):
        self._posted.clear()
        blocked = [t for t in self.threads.values() if t.state is STATE_BLOCKED]
        for thread in sorted(blocked, key=lambda t: t.block_seq):
            channel = thread.blocked_channel
            if channel.try_take():
                self._wake(thread, channel)


class ReferenceCorrelator:
    """Grant control with the policy correlation it shipped with before
    the per-list tables: every helper call re-derives its candidates
    from the entries.  No grant cache; a result is built from scratch
    and leaves ``changed`` unset, so the Scheduler revisits every
    thread in either set."""

    def __init__(self, capacity, policy_box, bandwidth_capacity=1.0):
        self._capacity = capacity
        self._bandwidth = bandwidth_capacity
        self._policy_box = policy_box

    def compute(self, requests, maxima=None):
        """``maxima`` (the Resource Manager's running sums) is ignored:
        the verdict is always a recount."""
        active = [r for r in requests if not r.quiescent]
        owners = self._maxima_fit(active)
        if owners is None:
            return self._policy_path(active)
        grants = {
            r.thread_id: Grant(r.thread_id, r.resource_list.maximum, 0)
            for r in active
        }
        return GrantSetResult(
            grant_set=GrantSet(grants, self._capacity, self._bandwidth),
            policy=None,
            passes=0,
            exclusive_assignment=owners,
        )

    def _maxima_fit(self, active):
        """Unit ownership if everyone can have their maximum, else None."""
        if sum(r.max_rate for r in active) > self._capacity + _EPS:
            return None
        if (
            sum(r.resource_list.maximum.bandwidth for r in active)
            > self._bandwidth + _EPS
        ):
            return None
        owners = {}
        for request in active:
            for unit in request.resource_list.maximum.exclusive:
                if unit in owners:
                    return None
                owners[unit] = request.thread_id
        return owners

    # -- policy correlation ----------------------------------------------------

    def _policy_path(self, active: list[GrantRequest]) -> GrantSetResult:
        policy = self._policy_box.resolve({r.policy_id for r in active})
        targets = {r.thread_id: policy.shares.get(r.policy_id, 0.0) for r in active}

        # Selection order: the policy's exclusive-preference thread first,
        # then by descending target share, then by thread id for
        # determinism.  This order settles exclusive-unit claims.
        def claim_order(request: GrantRequest) -> tuple:
            preferred = request.policy_id == policy.exclusive_preference
            return (not preferred, -targets[request.thread_id], request.thread_id)

        ordered = sorted(active, key=claim_order)
        owners: dict[str, int] = {}
        selection: dict[int, int] = {}

        # Pass 1: entries just above the policy-specified QOS.  A
        # running ``total`` keeps every subsequent pass O(N), as the
        # paper requires.
        total = 0.0
        bw_total = 0.0
        for request in ordered:
            index = self._select_above(request, targets[request.thread_id], owners)
            self._claim(request, index, owners)
            selection[request.thread_id] = index
            total += request.resource_list[index].rate
            bw_total += request.resource_list[index].bandwidth
        passes = 1
        #: Each thread's policy-sanctioned level; pass 3 never exceeds it.
        ceiling = dict(selection)

        def over_budget() -> bool:
            return total > self._capacity + _EPS or bw_total > self._bandwidth + _EPS

        if over_budget():
            # Pass 2: turn higher entries into lower entries.  Demote
            # first the threads whose "above" entry overshoots their
            # policy target the most — they hold the least-entitled
            # resources — breaking ties against the lowest-ranked.
            # Bandwidth overload uses the same order: demotion lowers
            # both dimensions level by level.
            passes = 2
            rank = {r.thread_id: i for i, r in enumerate(ordered)}

            def overshoot(request: GrantRequest) -> float:
                entry = request.resource_list[selection[request.thread_id]]
                return entry.rate - targets[request.thread_id]

            demote_order = sorted(
                ordered, key=lambda r: (-overshoot(r), -rank[r.thread_id])
            )
            for request in demote_order:
                if not over_budget():
                    break
                index = self._select_below(
                    request, targets[request.thread_id], owners, selection[request.thread_id]
                )
                if index != selection[request.thread_id]:
                    entries = request.resource_list
                    old_index = selection[request.thread_id]
                    total += entries[index].rate - entries[old_index].rate
                    bw_total += entries[index].bandwidth - entries[old_index].bandwidth
                    self._release(request, old_index, owners)
                    self._claim(request, index, owners)
                    selection[request.thread_id] = index
            if over_budget():
                # One demotion level may not free enough bandwidth
                # (entries are ordered by CPU rate, not bandwidth); keep
                # demoting toward the minima until both budgets fit.
                for request in demote_order:
                    entries = request.resource_list
                    while over_budget() and selection[request.thread_id] < len(entries) - 1:
                        old_index = selection[request.thread_id]
                        candidates = [
                            i
                            for i in self._candidates(request, owners)
                            if i > old_index
                        ]
                        if not candidates:
                            break
                        index = min(candidates)
                        total += entries[index].rate - entries[old_index].rate
                        bw_total += entries[index].bandwidth - entries[old_index].bandwidth
                        self._release(request, old_index, owners)
                        self._claim(request, index, owners)
                        selection[request.thread_id] = index
                    if not over_budget():
                        break

        fallback = False
        if over_budget():
            # The policy nominated targets below some minimum entries.
            # Fall back to the minimum set, which admission guarantees.
            fallback = True
            owners.clear()
            total = 0.0
            bw_total = 0.0
            for request in ordered:
                index = len(request.resource_list) - 1
                self._claim(request, index, owners)
                selection[request.thread_id] = index
                total += request.resource_list[index].rate
                bw_total += request.resource_list[index].bandwidth

        slack = self._capacity - total
        bw_slack = self._bandwidth - bw_total
        smallest_step = min(
            (
                request.resource_list[i - 1].rate - request.resource_list[i].rate
                for request in active
                for i in range(1, len(request.resource_list))
            ),
            default=float("inf"),
        )
        if passes == 2 and not fallback and slack >= smallest_step - _EPS:
            # Pass 3: hand otherwise-unallocated resources back to
            # demoted threads, best-ranked first — but never beyond the
            # policy-sanctioned (pass 1) level: further slack belongs to
            # the Scheduler's OvertimeRequested queue at run time, not
            # to grants the policy declined to make.
            passes = 3
            for request in ordered:
                if slack <= _EPS:
                    break
                index = self._promote(
                    request,
                    selection[request.thread_id],
                    slack,
                    owners,
                    floor=ceiling[request.thread_id],
                    bw_slack=bw_slack,
                )
                if index != selection[request.thread_id]:
                    entries = request.resource_list
                    old_index = selection[request.thread_id]
                    slack -= entries[index].rate - entries[old_index].rate
                    bw_slack -= entries[index].bandwidth - entries[old_index].bandwidth
                    self._release(request, old_index, owners)
                    self._claim(request, index, owners)
                    selection[request.thread_id] = index

        grants = {
            r.thread_id: Grant(
                thread_id=r.thread_id,
                entry=r.resource_list[selection[r.thread_id]],
                entry_index=selection[r.thread_id],
            )
            for r in active
        }
        return GrantSetResult(
            grant_set=GrantSet(grants, self._capacity, self._bandwidth),
            policy=policy,
            passes=passes,
            minimum_fallback=fallback,
            exclusive_assignment=dict(owners),
        )

    # -- selection helpers -----------------------------------------------------

    def _candidates(self, request: GrantRequest, owners: dict[str, int]) -> list[int]:
        """Entry indices whose exclusive needs are free (or already ours)."""
        available = []
        for i, entry in enumerate(request.resource_list):
            conflicted = any(
                owners.get(unit, request.thread_id) != request.thread_id
                for unit in entry.exclusive
            )
            if not conflicted:
                available.append(i)
        if not available:
            raise GrantError(
                f"thread {request.thread_id} has no conflict-free entry; minimum "
                f"entries must not require exclusive units"
            )
        return available

    def _select_above(
        self, request: GrantRequest, target: float, owners: dict[str, int]
    ) -> int:
        """The entry just above the policy target (lowest rate >= target),
        or the best entry below it when the target exceeds every level."""
        entries = request.resource_list
        candidates = self._candidates(request, owners)
        above = [i for i in candidates if entries[i].rate >= target - _EPS]
        if above:
            return max(above)  # lowest QOS that still meets the target
        return min(candidates)  # target above all levels: take the best we have

    def _select_below(
        self, request: GrantRequest, target: float, owners: dict[str, int], current: int
    ) -> int:
        """Demotion target: the entry just below the policy target, or the
        minimum entry when nothing sits below the target."""
        entries = request.resource_list
        candidates = [i for i in self._candidates(request, owners) if i >= current]
        below = [i for i in candidates if entries[i].rate < target - _EPS]
        if below:
            return min(below)  # highest QOS under the target
        return max(candidates)  # floor: the minimum entry

    def _promote(
        self,
        request: GrantRequest,
        current: int,
        slack: float,
        owners: dict[str, int],
        floor: int = 0,
        bw_slack: float = 1.0,
    ) -> int:
        """The best entry reachable within the CPU and bandwidth slack,
        no higher (lower index) than ``floor``."""
        entries = request.resource_list
        current_rate = entries[current].rate
        current_bw = entries[current].bandwidth
        for i in self._candidates(request, owners):
            if i < floor:
                continue
            if i >= current:
                break
            if (
                entries[i].rate - current_rate <= slack + _EPS
                and entries[i].bandwidth - current_bw <= bw_slack + _EPS
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



def reference_stack(rd) -> None:
    """Swap the reference classes into ``rd``, a distributor nothing has
    been admitted to yet.  Same object layout, overridden reads: the two
    stacks differ only in how the queue heads, the two timers, the
    threads a post wakes and the grant set are found — and in how often
    the queue heads are asked for: the reference re-picks after every
    poll and at every cut, where the shipped kernel holds the slice.  A
    cut is no decision on the shipped stack alone: judge a cut run by
    the reference's one-call run."""
    rd.scheduler.__class__ = FromScratchScheduler
    rd.kernel.__class__ = FromScratchKernel
    manager = rd.resource_manager
    shipped = manager.grant_control
    manager.grant_control = ReferenceCorrelator(
        shipped.capacity, rd.policy_box, shipped.bandwidth_capacity
    )


class LockstepSimulation(ClusterSimulation):
    """Every node at every global stop: the loop ``ClusterSimulation``
    ran until the touch-driven one replaced it, verbatim."""

    def run_until(self, horizon: int) -> None:
        while self._now < horizon:
            target = self._next_time(horizon)
            for name in sorted(self.nodes):
                self.nodes[name].rd.run_until(target)
            self._now = target
            self._fire_events()
            self._route_messages()
            if self.pipeline is not None:
                self.pipeline.route(self._now)
            self.broker.check_timeouts(self._now)
            while self._next_epoch <= self._now:
                self._epoch()
                self._next_epoch += EPOCH_TICKS

    @phase("cluster.settle")
    def settle(self, max_rounds: int = 10_000) -> bool:
        for _ in range(max_rounds):
            if self.broker.idle and len(self.bus) == 0:
                return True
            candidates = []
            bus_next = self.bus.next_time()
            if bus_next is not None:
                candidates.append(bus_next)
            deadline = self.broker.next_deadline()
            if deadline is not None:
                candidates.append(deadline)
            if not candidates:
                break
            self.run_until(max(self._now + 1, min(candidates)))
        return self.broker.idle and len(self.bus) == 0


def lockstep(sim: ClusterSimulation) -> ClusterSimulation:
    """``sim``, built and not yet run, on the lockstep loop (same object
    layout, two overridden methods), so every builder — ``cluster_rack``,
    ``fuzz.runner.build_cluster``, ``ServeEngine`` — yields a reference
    run without a second constructor."""
    sim.__class__ = LockstepSimulation
    return sim
