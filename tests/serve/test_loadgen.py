"""Loadgen: seeded planning, digests, and a small end-to-end run."""

import asyncio

from repro.serve.app import ServeApp
from repro.serve.engine import ServeEngine
from repro.serve.loadgen import (
    WHALE_EVERY,
    WHALE_RATE,
    percentile,
    plan_client,
    run_loadgen,
    schedule_digest,
)


class TestPlanning:
    def test_same_seed_same_plan(self):
        a = plan_client(3, seed=11, duration_s=2.0, rps=4.0)
        b = plan_client(3, seed=11, duration_s=2.0, rps=4.0)
        assert a == b

    def test_different_seed_different_schedule(self):
        a = plan_client(3, seed=11, duration_s=2.0, rps=4.0)
        b = plan_client(3, seed=12, duration_s=2.0, rps=4.0)
        assert schedule_digest([a]) != schedule_digest([b])

    def test_whale_clients_expect_denial(self):
        whale = plan_client(WHALE_EVERY, seed=1, duration_s=1.0, rps=4.0)
        normal = plan_client(WHALE_EVERY + 1, seed=1, duration_s=1.0, rps=4.0)
        assert whale[0].expect == "denied"
        assert str(WHALE_RATE) in whale[0].body.decode()
        assert normal[0].expect == "admitted"

    def test_cycle_shape(self):
        plan = plan_client(1, seed=1, duration_s=1.0, rps=4.0)
        assert [p.method for p in plan] == ["POST", "GET", "DELETE", "GET"]
        assert plan[1].path == plan[2].path  # get and remove hit the same task
        assert plan[3].path == "/v1/nodes"

    def test_schedule_digest_covers_bodies(self):
        plan = plan_client(0, seed=1, duration_s=1.0, rps=4.0)
        tweaked = [
            type(p)(at_s=p.at_s, method=p.method, path=p.path, body=p.body + b"x")
            if p.body
            else p
            for p in plan
        ]
        assert schedule_digest([plan]) != schedule_digest([tweaked])


class TestPercentile:
    """The loadgen summary takes its percentiles from the one nearest-rank
    definition ``repro obs report`` uses (tested in tests/obs/test_analysis)."""

    def test_empty(self):
        # What a run that completed nothing reports, "max" included.
        assert percentile([], 50) == -1

    def test_picks_order_statistics(self):
        from repro.obs.analysis import percentile as obs_percentile

        assert percentile is obs_percentile


class TestEndToEnd:
    def test_small_run_against_live_app(self):
        async def main():
            engine = ServeEngine(nodes=2, seed=0, policy="aimd")
            app = ServeApp(engine, port=0)
            await app.start()
            try:
                return await run_loadgen(
                    host="127.0.0.1",
                    port=app.server.port,
                    clients=4,
                    duration_s=1.0,
                    seed=5,
                    rps_per_client=8.0,
                )
            finally:
                await app.stop()

        report = asyncio.run(main())
        # The seed-determined plan plus what was measured, nothing else.
        assert set(report) == {"deterministic", "measured"}
        det = report["deterministic"]
        measured = report["measured"]
        assert measured["completed"] == det["planned_requests"] == 4 * 8
        assert measured["failures"] == 0
        assert measured["statuses"].get("5xx", 0) == 0
        # Client 0 is a whale: its submits are denied, its removes 404.
        assert det["outcomes"]["post:denied"] == 2
        assert det["outcomes"]["post:admitted"] == 6
        assert measured["statuses"]["4xx"] == 2  # the whale's two DELETEs

    def test_outcome_digest_reproducible_across_runs(self):
        async def once():
            engine = ServeEngine(nodes=2, seed=0, policy="aimd")
            app = ServeApp(engine, port=0)
            await app.start()
            try:
                return await run_loadgen(
                    host="127.0.0.1",
                    port=app.server.port,
                    clients=3,
                    duration_s=0.5,
                    seed=9,
                    rps_per_client=8.0,
                )
            finally:
                await app.stop()

        first = asyncio.run(once())
        second = asyncio.run(once())
        assert (
            first["deterministic"]["schedule_digest"]
            == second["deterministic"]["schedule_digest"]
        )
        assert (
            first["deterministic"]["outcome_digest"]
            == second["deterministic"]["outcome_digest"]
        )
