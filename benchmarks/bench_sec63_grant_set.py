"""Section 6.3: the cost of determining a grant set.

Paper: "The cost of determining a grant set is a function of (1)
whether the system is in overload, and (2) the number of threads
admitted to the system."  Underload short-circuits (everyone gets the
maximum); overload consults the Policy Box and correlates in O(N)
passes.

Reproduced shape: the underload path is substantially cheaper than the
overload path at equal N, and the overload path scales linearly —
doubling N roughly doubles time, never quadratically.  The running sums
the paper's O(1) check reads live in the Resource Manager
(``ResourceManager._max_rate`` / ``_max_bandwidth``), which hands them
to ``GrantController.compute``.  The compute-level lines here call the
controller with none, so both verdicts recount in Theta(N); the
``rm_op`` line goes through the Resource Manager, where an overload
verdict costs O(1) and the correlation passes stay Theta(N)
(EXPERIMENTS.md §6.3).

The ``rm_op`` regime measures the same line one level up, where an
application pays it: a whole ``exit_thread`` + ``admit`` pair on a
distributor held in permanent overload — admission test, grant set,
Scheduler notification — against the number of admitted tasks.
"""

import pytest

from benchmarks.builders import (
    build_grant_requests,
    build_overloaded_distributor,
    sheddable_list,
    swap_oldest_task,
)
from repro.tasks.base import TaskDefinition

POPULATIONS = [4, 16, 64, 256]
RM_POPULATIONS = [16, 64, 256]
RM_PAIRS = 50
RM_WARMUP = 2

_TIMES: dict[tuple[str, int], float] = {}
_RM_TIMES: dict[int, float] = {}


@pytest.mark.parametrize("regime", ["underload", "overload"])
@pytest.mark.parametrize("population", POPULATIONS)
def test_sec63_grant_set_cost(benchmark, report, regime, population):
    controller, requests = build_grant_requests(
        population, overload=(regime == "overload")
    )
    result = benchmark(lambda: controller.compute(requests))
    if regime == "underload":
        assert result.passes == 0
    else:
        assert result.passes >= 1
    _TIMES[(regime, population)] = benchmark.stats.stats.mean

    if len(_TIMES) == 2 * len(POPULATIONS):
        lines = ["Section 6.3 — grant-set computation cost", ""]
        for reg in ("underload", "overload"):
            for n in POPULATIONS:
                lines.append(f"  {reg:>9} N={n:>4d}: {_TIMES[(reg, n)] * 1e6:9.2f} us")
        lines.append("")
        # Overload costs more than underload at equal N.
        for n in POPULATIONS:
            assert _TIMES[("overload", n)] > _TIMES[("underload", n)]
        # Linear, not quadratic: 64x threads < ~200x time.
        growth = _TIMES[("overload", POPULATIONS[-1])] / _TIMES[("overload", POPULATIONS[0])]
        ratio = POPULATIONS[-1] / POPULATIONS[0]
        assert growth < ratio * 3.5
        lines.append(
            f"overload growth N x{ratio:.0f} -> time x{growth:.1f} (linear, O(N))"
        )
        lines.append("paper: O(1) underload fast path; O(N) policy correlation")
        report("sec63_grant_set_cost", "\n".join(lines))


@pytest.mark.parametrize("population", RM_POPULATIONS)
def test_sec63_rm_op_cost(benchmark, report, population):
    rd, tids = build_overloaded_distributor(population)
    # Built outside the timed pairs: an application authors its list once.
    fresh = iter(
        [
            TaskDefinition(name=f"swap{i}", resource_list=sheddable_list(population))
            for i in range(RM_PAIRS + RM_WARMUP)
        ]
    )
    assert rd.resource_manager.last_result.passes >= 1

    def swap():
        swap_oldest_task(rd, tids, next(fresh))

    benchmark.pedantic(
        swap, rounds=RM_PAIRS, iterations=1, warmup_rounds=RM_WARMUP
    )
    result = rd.resource_manager.last_result
    assert result.passes >= 1 and len(result.grant_set) == population
    _RM_TIMES[population] = benchmark.stats.stats.median

    if len(_RM_TIMES) == len(RM_POPULATIONS):
        lines = [
            "Section 6.3 — one exit_thread + admit pair in permanent overload",
            "",
        ]
        for n in RM_POPULATIONS:
            lines.append(
                f"  rm_op N={n:>4d}: {_RM_TIMES[n] * 1e6:9.2f} us "
                f"(median of {RM_PAIRS} pairs)"
            )
        lines.append("")
        # Linear in admitted tasks, as the compute-level overload line.
        growth = _RM_TIMES[RM_POPULATIONS[-1]] / _RM_TIMES[RM_POPULATIONS[0]]
        ratio = RM_POPULATIONS[-1] / RM_POPULATIONS[0]
        assert growth < ratio * 3.5
        lines.append(
            f"rm_op growth N x{ratio:.0f} -> time x{growth:.1f} (linear, O(N))"
        )
        lines.append("paper: admission O(1); grant set up to three O(N) passes")
        report("sec63_rm_op_cost", "\n".join(lines))
