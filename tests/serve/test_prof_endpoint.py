"""Profiling visibility at the serving boundary: the ``/debug/prof``
snapshot endpoint and the backpressure gauges/histograms on
``/metrics``."""

import asyncio

from repro.obs.prof import ProfSession
from repro.serve.app import ServeApp
from repro.serve.engine import ServeEngine

from tests.serve.test_http import call, spec


def run_with_app(scenario, prof=None, **engine_kwargs):
    async def main():
        engine = ServeEngine(
            nodes=2, seed=7, policy="first-fit", prof=prof, **engine_kwargs
        )
        app = ServeApp(engine, port=0)
        await app.start()
        try:
            return await scenario(app)
        finally:
            await app.stop()

    return asyncio.run(main())


class TestDebugProfEndpoint:
    def test_404_when_profiling_is_off(self):
        async def scenario(app):
            status, body = await call(app, "GET", "/debug/prof")
            assert status == 404
            assert "--profile" in body["error"]

        run_with_app(scenario)

    def test_live_snapshot_when_profiling_is_on(self):
        prof = ProfSession()

        async def scenario(app):
            await call(app, "POST", "/v1/tasks", spec("a"))
            status, body = await call(app, "GET", "/debug/prof")
            assert status == 200
            assert body["open_frames"] == 0
            phases = body["phases"]
            # The commit path and the HTTP parser both showed up.
            assert phases["serve.commit"]["calls"] >= 1
            assert phases["serve.http-parse"]["calls"] >= 1
            assert all(
                set(row) == {"calls", "self_ns", "cum_ns"}
                for row in phases.values()
            )

        run_with_app(scenario, prof=prof.phases)

    def test_engine_phases_reach_the_cluster_hooks(self):
        prof = ProfSession()

        async def scenario(app):
            await call(app, "POST", "/v1/tasks", spec("a"))
            _, body = await call(app, "GET", "/debug/prof")
            assert "cluster.settle" in body["phases"]
            assert "kernel.dispatch" in body["phases"]

        run_with_app(scenario, prof=prof.phases)


class TestBackpressureMetrics:
    def test_queue_depth_and_batch_size_on_metrics(self):
        async def scenario(app):
            await asyncio.gather(
                *(call(app, "POST", "/v1/tasks", spec(f"t{i}")) for i in range(6))
            )
            status, text = await call(app, "GET", "/metrics")
            assert status == 200
            assert "repro_http_op_queue_depth" in text
            assert "repro_http_commit_batch_size_bucket" in text
            assert "repro_http_commit_batch_size_count" in text

        run_with_app(scenario)

    def test_batch_size_histogram_counts_every_commit_group(self):
        async def scenario(app):
            for i in range(3):
                await call(app, "POST", "/v1/tasks", spec(f"t{i}"))
            # Each sequential mutation drains as its own commit group.
            assert app.m_batch_size.count() == 3
            assert app.m_batch_size.sum() == 3
            assert app.m_queue_depth.value() == 0

        run_with_app(scenario)
