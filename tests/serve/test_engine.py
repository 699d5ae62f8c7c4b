"""ServeEngine: admission, withdrawal, group commit, replay equality."""

import pytest

from repro.errors import SimulationError
from repro.serve.engine import ServeEngine


def engine(**kwargs):
    kwargs.setdefault("nodes", 2)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("policy", "first-fit")
    return ServeEngine(**kwargs)


def spec(name, rate=0.1, period_ms=10.0):
    return {"name": name, "rate": rate, "period_ms": period_ms}


class TestSubmit:
    def test_admitted_task_reports_node(self):
        eng = engine()
        result = eng.submit(spec("a"))
        assert result["status"] == "admitted"
        assert result["node"] == "node00"
        assert result["resolved_at"] == eng.sim.now

    def test_oversized_task_is_denied_with_reason(self):
        eng = engine()
        result = eng.submit(spec("whale", rate=0.99))
        assert result["status"] == "denied"
        assert result["error"]

    def test_bad_specs_are_rejected_without_touching_the_broker(self):
        eng = engine()
        for bad in (
            {},  # no name, no rate
            {"name": "x"},  # no rate
            {"name": "", "rate": 0.1},  # empty name
            {"name": "x", "rate": -1.0},  # nonpositive rate
            {"name": "x", "rate": 0.1, "period_ms": 0},  # nonpositive period
            {"name": "x", "rate": "much"},  # non-numeric
        ):
            assert eng.submit(bad)["status"] == "rejected"
        assert eng.stats()["submitted"] == 0
        assert eng.oplog == []

    def test_duplicate_name_rejected_while_placed(self):
        eng = engine()
        assert eng.submit(spec("a"))["status"] == "admitted"
        dup = eng.submit(spec("a"))
        assert dup["status"] == "rejected"
        assert "already placed" in dup["error"]

    def test_name_reusable_after_removal(self):
        eng = engine()
        eng.submit(spec("a"))
        assert eng.remove("a")["removed"]
        assert eng.submit(spec("a"))["status"] == "admitted"


class TestRemove:
    def test_remove_round_trip(self):
        eng = engine()
        eng.submit(spec("a"))
        result = eng.remove("a")
        assert result == {"task": "a", "status": "removed", "removed": True}
        assert eng.task("a")["status"] == "removed"
        assert eng.sim.broker.node_of("a") is None

    def test_remove_unknown_task(self):
        eng = engine()
        result = eng.remove("ghost")
        assert result == {"task": "ghost", "status": "absent", "removed": False}

    def test_remove_is_idempotent(self):
        eng = engine()
        eng.submit(spec("a"))
        assert eng.remove("a")["removed"]
        again = eng.remove("a")
        assert again["removed"] is False
        assert again["status"] == "removed"

    def test_remove_denied_task_does_not_withdraw(self):
        eng = engine()
        eng.submit(spec("whale", rate=0.99))
        result = eng.remove("whale")
        assert result["removed"] is False
        assert result["status"] == "denied"


class TestBatch:
    def test_batch_settles_together(self):
        eng = engine()
        result = eng.submit_batch([spec("a"), spec("b", rate=0.99), {"bogus": 1}])
        statuses = [t["status"] for t in result["tasks"]]
        assert statuses == ["admitted", "denied", "rejected"]
        assert len(eng.oplog) == 1
        assert eng.oplog[0]["op"] == "batch"


class TestCommit:
    def test_single_op_commit_behaves_like_apply(self):
        eng = engine()
        [result] = eng.commit([{"op": "submit", "spec": spec("a")}])
        assert result["status"] == "admitted"
        assert eng.oplog[0]["op"] == "submit"  # no commit wrapper for one op

    def test_group_commit_returns_per_op_results_in_order(self):
        eng = engine()
        eng.submit(spec("old"))
        results = eng.commit(
            [
                {"op": "submit", "spec": spec("a")},
                {"op": "remove", "task": "old"},
                {"op": "submit", "spec": spec("whale", rate=0.99)},
                {"op": "remove", "task": "ghost"},
                {"op": "submit", "spec": {"name": "", "rate": 0.1}},
                {"op": "batch", "specs": [spec("b"), spec("c")]},
            ]
        )
        assert results[0]["status"] == "admitted"
        assert results[1] == {"task": "old", "status": "removed", "removed": True}
        assert results[2]["status"] == "denied"
        assert results[3] == {"task": "ghost", "status": "absent", "removed": False}
        assert results[4]["status"] == "rejected"
        assert [t["status"] for t in results[5]["tasks"]] == ["admitted", "admitted"]

    def test_group_commit_is_one_oplog_entry(self):
        eng = engine()
        eng.commit(
            [
                {"op": "submit", "spec": spec("a")},
                {"op": "submit", "spec": spec("b")},
            ]
        )
        assert len(eng.oplog) == 1
        assert eng.oplog[0]["op"] == "commit"
        assert [op["op"] for op in eng.oplog[0]["ops"]] == ["submit", "submit"]

    def test_rejected_ops_do_not_enter_the_commit_record(self):
        eng = engine()
        eng.commit(
            [
                {"op": "submit", "spec": {"name": "", "rate": 0.1}},
                {"op": "remove", "task": "ghost"},
                {"op": "submit", "spec": spec("a")},
            ]
        )
        # Only the one op that actually fired an RPC is replayable; a
        # lone survivor is recorded bare, not wrapped in a commit.
        assert len(eng.oplog) == 1
        assert eng.oplog[0] == {"op": "submit", "spec": spec("a")}

    def test_duplicate_submit_within_one_commit_rejected(self):
        eng = engine()
        results = eng.commit(
            [
                {"op": "submit", "spec": spec("a")},
                {"op": "submit", "spec": spec("a", rate=0.2)},
            ]
        )
        assert results[0]["status"] == "admitted"
        assert results[1]["status"] == "rejected"

    def test_unknown_op_kind_rejected(self):
        eng = engine()
        [a, b] = eng.commit(
            [{"op": "warp"}, {"op": "submit", "spec": spec("a")}]
        )
        assert a["status"] == "rejected"
        assert b["status"] == "admitted"
        with pytest.raises(SimulationError):
            eng.apply({"op": "warp"})


class TestDrain:
    def test_drain_withdraws_everything(self):
        eng = engine()
        for i in range(3):
            eng.submit(spec(f"t{i}"))
        result = eng.drain()
        assert result["status"] == "drained"
        assert result["withdrawn"] == 3
        assert eng.sim.broker.placements == {}
        assert all(eng.task(f"t{i}")["status"] == "removed" for i in range(3))
        assert eng.draining


class TestViews:
    def test_nodes_view_counts_placements(self):
        eng = engine()
        eng.submit(spec("a"))
        view = eng.nodes()
        assert [n["name"] for n in view] == ["node00", "node01"]
        assert view[0]["tasks"] == 1
        assert view[1]["tasks"] == 0
        assert all(
            set(n) == {"name", "capacity", "headroom", "weight", "tasks"}
            for n in view
        )

    def test_nodes_view_memoized_per_generation(self):
        eng = engine()
        eng.submit(spec("a"))
        first = eng.nodes()
        assert eng.nodes() is first  # no mutation: cached object
        eng.submit(spec("b"))
        assert eng.nodes() is not first

    def test_nodes_view_fresh_after_drain(self):
        eng = engine()
        eng.submit(spec("a"))
        before = eng.nodes()
        assert [n["tasks"] for n in before] == [1, 0]
        assert before[0]["headroom"] < before[1]["headroom"]
        eng.drain()
        assert eng.sim.broker.placements == {}
        after = eng.nodes()
        assert [n["tasks"] for n in after] == [0, 0]
        assert [n["headroom"] for n in after] == [n["capacity"] for n in after]

    def test_stats_counts(self):
        eng = engine()
        eng.submit(spec("a"))
        eng.submit(spec("whale", rate=0.99))
        eng.remove("a")
        stats = eng.stats()
        assert stats["submitted"] == 2
        assert stats["admitted"] == 1
        assert stats["denied"] == 1
        assert stats["withdrawals"] == 1
        assert stats["placements"] == 0
        assert stats["operations"] == len(eng.oplog) == 3

    def test_slo_disabled_by_default(self):
        assert engine().slo_status() == {
            "enabled": False,
            "objectives": [],
            "alerts": [],
        }


class TestReplay:
    def test_state_digest_changes_with_state(self):
        eng = engine()
        before = eng.state_digest()
        eng.submit(spec("a"))
        after = eng.state_digest()
        assert before != after
        assert eng.state_digest() == after  # digest is a pure read

    def test_replay_reproduces_digest(self):
        live = engine()
        live.submit(spec("a"))
        live.commit(
            [
                {"op": "submit", "spec": spec("b")},
                {"op": "remove", "task": "a"},
                {"op": "submit", "spec": spec("whale", rate=0.99)},
            ]
        )
        live.submit_batch([spec("c"), spec("d", rate=0.99)])
        live.remove("b")
        twin = engine()
        twin.replay(live.oplog)
        assert twin.state_digest() == live.state_digest()
        assert twin.oplog == live.oplog
