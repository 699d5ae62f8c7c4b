"""Table 5: the example Policy Box.

Loads the paper's seven policies over four tasks, regenerates the
table, and benchmarks policy resolution — the lookup the Resource
Manager performs on every overload decision.
"""

import pytest

from repro.scenarios import TABLE5_POLICIES, table5_policy_box

PAPER_TABLE5 = {frozenset(rankings): rankings for rankings in TABLE5_POLICIES}


def test_table5_policy_box(benchmark, report):
    box = table5_policy_box()

    def resolve_all():
        return [box.resolve(key) for key in PAPER_TABLE5]

    policies = benchmark(resolve_all)
    for key, policy in zip(PAPER_TABLE5, policies):
        assert not policy.invented
        for pid, pct in PAPER_TABLE5[key].items():
            assert policy.shares[pid] == pytest.approx(pct / 100)
    report("table5_policy_box", box.describe())


def test_table5_fallback_invention(benchmark, report):
    """A set with no matching policy gets the invented 1/N split."""
    box = table5_policy_box()
    box.register_task("Task 5")
    key = {box.policy_id("Task 1"), box.policy_id("Task 5")}
    policy = benchmark(lambda: box.resolve(key))
    assert policy.invented
    assert sum(policy.shares.values()) == pytest.approx(0.96)
    report(
        "table5_invented_policy",
        f"unmatched set {sorted(key)} -> invented shares "
        f"{ {pid: round(s, 3) for pid, s in policy.shares.items()} } "
        f"(exclusive resources to task {policy.exclusive_preference})",
    )
