"""Span-tree edge cases on real cluster runs: spans crossing a
migration, traces surviving RPC retries on a lossy bus, and spans still
open when the simulation ends."""

import pytest

from repro.obs.session import ObsSession
from repro.scenarios import cluster_rack


def run_rack(seed=0, horizon_sec=0.4, drop_rate=0.0, **kwargs):
    session = ObsSession()
    sim = cluster_rack(
        seed=seed,
        horizon_sec=horizon_sec,
        drop_rate=drop_rate,
        obs=session,
        **kwargs,
    )
    sim.run_until(sim.horizon)
    return sim, session


class TestMigrationSpans:
    @pytest.fixture(scope="class")
    def migrated(self):
        # The default rack oversubscribes, so the broker migrates tasks
        # off degraded nodes.
        sim, session = run_rack(seed=0, horizon_sec=0.6)
        assert sim.broker.stats.migrations_started > 0
        return sim, session

    def test_migrate_span_crosses_to_the_target_node(self, migrated):
        _, session = migrated
        migrate_roots = [
            s for s in session.spans.spans if s.name.startswith("migrate:")
        ]
        assert migrate_roots
        crossed = 0
        for root in migrate_roots:
            children = [
                s for s in session.spans.spans if s.parent_id == root.span_id
            ]
            # The re-admission on the target node is a child of the
            # migration: one trace spans both machines.
            admits = [c for c in children if c.name.startswith("admit:")]
            for admit in admits:
                assert admit.trace_id == root.trace_id
                assert admit.parent_id == root.span_id
            crossed += len(admits)
        assert crossed > 0

    def test_migrate_spans_resolve_to_a_terminal_status(self, migrated):
        sim, session = migrated
        sim.broker  # the run completed; ops must not stay 'started'
        statuses = {
            s.status
            for s in session.spans.spans
            if s.name.startswith("migrate:") and s.finished
        }
        assert statuses <= {"completed", "failed", "cancelled", "unfinished"}
        assert "completed" in statuses


class TestRetryTracing:
    @pytest.fixture(scope="class")
    def lossy(self):
        # A third of all messages vanish: the broker's RPC layer has to
        # retry, and every retry must stay inside the original trace.
        sim, session = run_rack(seed=5, horizon_sec=0.4, drop_rate=0.3)
        rpc = [e for e in session.events if e.type == "rpc"]
        assert any(e.action == "retry" for e in rpc)
        return sim, session, rpc

    def test_retries_keep_the_request_id(self, lossy):
        _, _, rpc = lossy
        retries = [e for e in rpc if e.action == "retry"]
        sent_ids = {e.request_id for e in rpc if e.action == "send"}
        for retry in retries:
            assert retry.request_id in sent_ids

    def test_every_send_of_one_rpc_shares_the_trace(self, lossy):
        _, _, rpc = lossy
        traces_by_request = {}
        for event in rpc:
            if event.action != "send" or not event.trace_id:
                continue
            traces_by_request.setdefault(event.request_id, set()).add(
                event.trace_id
            )
        resent = {
            rid: traces
            for rid, traces in traces_by_request.items()
            if sum(1 for e in rpc if e.action == "send" and e.request_id == rid) > 1
        }
        assert resent, "expected at least one resent RPC under 30% drop"
        for traces in resent.values():
            assert len(traces) == 1  # the retry reused the original context

    def test_remote_receive_lands_in_the_senders_trace(self, lossy):
        _, _, rpc = lossy
        send_traces = {
            (e.request_id): e.trace_id
            for e in rpc
            if e.action == "send" and e.trace_id
        }
        received = [
            e for e in rpc
            if e.action == "receive" and e.trace_id and e.request_id in send_traces
        ]
        assert received
        for event in received:
            assert event.trace_id == send_traces[event.request_id]


class TestUnclosedSpans:
    def late_submission_run(self):
        # A task submitted 50 us before the horizon: its admit RPC is
        # still on the wire (100 us bus latency) when the run ends, so
        # the place/admit spans are open at sim end.
        from repro import units
        from repro.tasks.mpeg import MpegDecoder

        session = ObsSession()
        sim = cluster_rack(seed=1, horizon_sec=0.05, sessions=2, obs=session)
        sim.submit_at(
            sim.horizon - units.us_to_ticks(50),
            "late-task",
            MpegDecoder("late-task").definition(),
        )
        sim.run_until(sim.horizon)
        return sim, session

    def test_sim_end_closes_open_spans_as_unfinished(self, tmp_path):
        sim, session = self.late_submission_run()
        open_before = [s for s in session.spans.spans if not s.finished]
        assert open_before, "an in-flight admission must leave spans open"
        session.write(tmp_path, now=sim.now)
        assert all(s.finished for s in session.spans.spans)
        unfinished = [
            s for s in session.spans.spans if s.status == "unfinished"
        ]
        assert len(unfinished) >= len(open_before)
        for span in unfinished:
            assert span.end == sim.now

    def test_write_is_idempotent_on_closed_spans(self, tmp_path):
        sim, session = self.late_submission_run()
        session.write(tmp_path / "a", now=sim.now)
        ends = [s.end for s in session.spans.spans]
        session.write(tmp_path / "b", now=sim.now + 999)
        # finish_open never reopens or re-stamps an already closed span.
        assert [s.end for s in session.spans.spans] == ends
