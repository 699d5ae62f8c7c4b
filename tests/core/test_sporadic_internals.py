"""Sporadic Server internals: queue maintenance and configuration."""

import pytest

from repro import SporadicServer, units
from repro.core.threads import ThreadState
from repro.tasks.base import Compute

from tests.conftest import live_sporadic


def ms(x):
    return units.ms_to_ticks(x)


def finite(total_ms):
    def job(ctx):
        remaining = ms(total_ms)
        while remaining > 0:
            step = min(units.us_to_ticks(100), remaining)
            yield Compute(step)
            remaining -= step

    return job


class TestQueue:
    def test_queue_length_tracks_spawns(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=False)
        assert live_sporadic(server) == 0
        server.spawn("a", finite(1))
        server.spawn("b", finite(1))
        assert live_sporadic(server) == 2

    def test_finished_tasks_pruned(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=False)
        server.spawn("a", finite(0.5))
        ideal_rd.run_for(units.sec_to_ticks(1))
        assert live_sporadic(server) == 0

    def test_next_ready_skips_blocked(self, ideal_rd):
        from repro.tasks.base import Block
        from repro.tasks.channels import Channel

        channel = Channel("never")

        def stuck(ctx):
            yield Block(channel)

        server = SporadicServer(ideal_rd, greedy=False)
        server.spawn("stuck", stuck)
        runner = server.spawn("runner", finite(1))
        ideal_rd.run_for(units.sec_to_ticks(1))
        # The blocked task did not wedge the queue.
        assert runner.state is ThreadState.EXITED
        assert live_sporadic(server) == 1  # the stuck one remains


class TestConfiguration:
    def test_server_definition_reflects_parameters(self, ideal_rd):
        server = SporadicServer(
            ideal_rd, period=ms(50), cpu_ticks=ms(2), slice_ticks=ms(5), greedy=False
        )
        entry = server.definition.resource_list.maximum
        assert entry.period == ms(50)
        assert entry.cpu_ticks == ms(2)

    def test_server_is_an_ordinary_admitted_task(self, ideal_rd):
        server = SporadicServer(ideal_rd)
        assert server.thread.tid in ideal_rd.resource_manager.admitted_ids()
        # Its CPU share is tunable through the Policy Box like any task.
        assert ideal_rd.policy_box.policy_id("SporadicServer") == server.thread.policy_id

    def test_non_greedy_server_leaves_idle_time(self, ideal_rd):
        from repro.sim.trace import SegmentKind

        SporadicServer(ideal_rd, greedy=False)
        ideal_rd.run_for(ms(100))
        idle = sum(
            s.length for s in ideal_rd.trace.segments if s.kind is SegmentKind.IDLE
        )
        assert idle > ms(90)
