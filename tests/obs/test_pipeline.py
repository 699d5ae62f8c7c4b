"""Unit tests for the columnar obs pipeline: arenas, shipping, the
session's arena-backed views, and the query/explain engine."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.obs.events import (
    AdmissionEvent,
    GraceEvent,
    GrantChangeEvent,
    GrantRecomputeEvent,
    MigrationEvent,
    PeriodCloseEvent,
    SwitchEvent,
)
from repro.obs.log import events_to_jsonl
from repro.obs.pipeline import (
    ArenaBus,
    ChunkShipper,
    EventArena,
    RackCollector,
    RootCollector,
    SeqTracker,
    check_loss_invariant,
)
from repro.obs.pipeline.explain import causal_chain, explain_miss, find_misses
from repro.obs.pipeline.query import Query, describe, format_line, select
from repro.obs.session import ObsSession

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_artifacts.json").read_text(encoding="utf-8")
)


def switches(n, node="", start=0):
    return [
        SwitchEvent(
            time=start + i * 27,
            from_thread=i % 4,
            to_thread=(i + 1) % 4,
            cost_ticks=54,
            node=node,
        )
        for i in range(n)
    ]


def recorded(events, capacity=None) -> ArenaBus:
    """A bus after it recorded ``events``."""
    bus = ArenaBus(capacity=capacity)
    for event in events:
        bus.emit(event)
    return bus


class TestEventArena:
    def test_append_and_materialize_preserves_order(self):
        events = switches(3, node="n0") + [
            AdmissionEvent(time=100, task="v", thread_id=1, node="n0")
        ]
        bus = recorded(events)
        assert len(bus.arena("n0")) == 4
        assert bus.materialize() == events

    def test_ring_overwrite_counts_evicted_rows(self):
        bus = recorded(switches(5, node="n0"), capacity=2)
        arena = bus.arena("n0")
        assert len(arena) == 2
        assert arena.overwritten == {"context-switch": 3}
        # The two survivors are the newest two.
        assert [e.time for e in bus.materialize()] == [81, 108]

    def test_capacity_below_one_is_rejected(self):
        with pytest.raises(SimulationError):
            EventArena(capacity=0)

    def test_cut_head_tail_sampling_is_deterministic(self):
        middle = [
            AdmissionEvent(time=100 + i, task="v", thread_id=i, node="n0")
            for i in range(6)
        ]
        stream = switches(2, node="n0") + middle + switches(2, node="n0", start=216)
        arena = recorded(stream).arena("n0")
        order, cum = arena.cut(max_events=4)
        # Head 2 + tail 2 survive; the middle 6 are sampled out.
        assert order == ["context-switch"] * 4
        assert arena.sampled_out == {"admission": 6}
        assert cum["emitted"] == {"admission": 6, "context-switch": 4}
        assert cum["sampled_out"] == {"admission": 6}
        # Sampling is chunk accounting: the local stream keeps every row.
        assert len(arena) == 10

    def test_cut_is_incremental(self):
        bus = ArenaBus()
        for event in switches(2, node="n0"):
            bus.emit(event)
        arena = bus.arena("n0")
        first, _ = arena.cut()
        bus.emit(AdmissionEvent(time=999, task="v", thread_id=1, node="n0"))
        second, cum = arena.cut()
        assert first == ["context-switch"] * 2
        assert second == ["admission"]
        assert cum["emitted"] == {"admission": 1, "context-switch": 2}

    def test_cut_max_events_below_two_is_rejected(self):
        with pytest.raises(SimulationError):
            EventArena().cut(max_events=1)


class TestArenaBus:
    def test_empty_bus_is_truthy(self):
        assert ArenaBus()
        assert len(ArenaBus().arena()) == 0

    def test_subscribers_still_see_typed_events_from_fast_paths(self):
        bus = ArenaBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit_switch(27, 1, 2, "involuntary", 54, node="n0")
        assert seen == [
            SwitchEvent(
                time=27,
                from_thread=1,
                to_thread=2,
                kind="involuntary",
                cost_ticks=54,
                node="n0",
            )
        ]
        assert bus.materialize() == seen


class TestSeqTracker:
    def test_in_order_stream_has_no_loss(self):
        tracker = SeqTracker()
        assert all(tracker.accept(i) for i in range(4))
        assert tracker.lost() == 0
        assert tracker.received() == 4

    def test_duplicates_are_rejected(self):
        tracker = SeqTracker()
        assert tracker.accept(0)
        assert not tracker.accept(0)
        assert tracker.received() == 1

    def test_gap_counts_as_lost_until_the_late_chunk_lands(self):
        tracker = SeqTracker()
        assert tracker.accept(0)
        assert tracker.accept(2)  # 1 is in flight or gone
        assert tracker.lost() == 1
        assert tracker.accept(1)  # jitter-reordered, not lost after all
        assert tracker.lost() == 0


class _DirectToRoot:
    """Transport stub: chunk sends land straight on a RootCollector."""

    def __init__(self, root, drop_seqs=()):
        self.root = root
        self.drop_seqs = set(drop_seqs)

    def send(self, src, dst, kind, payload, now):
        if payload["seq"] not in self.drop_seqs:
            self.root.on_node_chunk(payload)


class TestShipping:
    def test_empty_flush_keeps_the_seq_stream_and_counters(self):
        bus = ArenaBus()
        root = RootCollector()
        shipper = ChunkShipper(bus.arena("n0"), _DirectToRoot(root), "rack0")
        chunk = shipper.flush(0)
        assert chunk["count"] == 0 and chunk["seq"] == 0
        accounting = root.accounting(chunks_sent={"n0": shipper.seq})
        assert check_loss_invariant(accounting) == []
        assert accounting["chunks"]["node_lost"] == 0

    def test_a_chunk_in_flight_carries_counts_not_rows(self):
        sent = []

        class _Capture:
            def send(self, src, dst, kind, payload, now):
                sent.append(payload)

        bus = ArenaBus()
        shipper = ChunkShipper(bus.arena("n0"), _Capture(), "rack0")
        for event in switches(3, node="n0"):
            bus.emit(event)
        shipper.flush(100)
        (chunk,) = sent
        assert "columns" not in chunk
        assert chunk["count"] == 3 and chunk["order"] == ["context-switch"] * 3
        assert chunk["cum"]["emitted"] == {"context-switch": 3}
        # The rows themselves stay with the node's stream.
        assert len(bus.arena("n0")) == 3

    def test_lost_chunk_rows_are_counted_not_silent(self):
        bus = ArenaBus()
        root = RootCollector()
        shipper = ChunkShipper(
            bus.arena("n0"), _DirectToRoot(root, drop_seqs={0}), "rack0"
        )
        for event in switches(3, node="n0"):
            bus.emit(event)
        shipper.flush(100)  # seq 0: dropped in flight, carries 3 rows
        bus.emit_switch(999, 0, 1, "voluntary", 54, node="n0")
        shipper.flush(200)  # seq 1: delivered, carries the truth counters
        accounting = root.accounting(
            truth=bus.cum(), chunks_sent={"n0": shipper.seq}
        )
        assert check_loss_invariant(accounting) == []
        row = accounting["kinds"]["context-switch"]
        assert row == {
            "emitted": 4,
            "delivered": 1,
            "dropped": 3,
            "sampled_out": 0,
            "overwritten": 0,
        }
        assert accounting["nodes"]["n0"]["chunks"]["lost"] == 1

    def test_rack_batches_reach_the_root_intact(self):
        bus = ArenaBus()
        root = RootCollector()

        class _ToRack:
            def __init__(self, rack):
                self.rack = rack

            def send(self, src, dst, kind, payload, now):
                self.rack.on_chunk(payload)

        class _Sink:
            def send(self, src, dst, kind, payload, now):
                pass

        rack = RackCollector("rack0", _Sink())
        shipper = ChunkShipper(bus.arena("n0"), _ToRack(rack), "rack0")
        for event in switches(2, node="n0"):
            bus.emit(event)
        shipper.flush(50)
        batch = rack.flush(60)
        assert [c["seq"] for c in batch["chunks"]] == [0]
        root.on_rack_batch(batch)
        accounting = root.accounting(truth=bus.cum())
        assert check_loss_invariant(accounting) == []
        assert accounting["totals"]["delivered"] == 2
        assert accounting["chunks"]["rack_batches_delivered"] == 1

    def test_root_counts_a_long_lossy_run_and_keeps_no_payload(self):
        """50 epochs over a 10 %-lossy tree: the accounting is the bytes
        the payload-retaining root wrote as ``pipeline.json`` (sha256
        recorded at 1db8f30), and nothing the root still holds is a
        chunk column."""
        from repro.scenarios import cluster_rack

        session = ObsSession()
        sim = cluster_rack(
            seed=5,
            nodes=2,
            drop_rate=0.1,
            horizon_sec=2.5,
            obs=session,
            telemetry=True,
            obs_pipeline=True,
        )
        sim.run_until(sim.horizon)
        sim.pipeline.finalize(sim.now)
        accounting = sim.pipeline.accounting()
        assert accounting["chunks"]["node_lost"] == 17
        assert accounting["chunks"]["rack_batches_lost"] == 4
        blob = json.dumps(accounting, sort_keys=True, separators=(",", ":")) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "56c9e779c447b4a6eb71cc1d6d698d48b7070677cb3e4cebc085a43800f529cb"
        )

        def retained(value):
            """Every dict reachable from ``value`` through containers
            and plain objects."""
            if isinstance(value, dict):
                yield value
                value = list(value.values())
            elif hasattr(value, "__dict__"):
                value = list(vars(value).values())
            elif hasattr(value, "__slots__"):
                value = [getattr(value, name) for name in value.__slots__]
            if isinstance(value, (list, tuple, set)):
                for item in value:
                    yield from retained(item)

        held = list(retained(sim.pipeline.root))
        assert held and not any("columns" in d or "order" in d for d in held)


class TestPipelineObsSession:
    def test_write_emits_exactly_four_artifacts(self, tmp_path):
        session = ObsSession()
        for event in switches(3, node="n0"):
            session.bus.emit(event)
        session.write(tmp_path, now=1000)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl",
            "metrics.prom",
            "pipeline.json",
            "trace.perfetto.json",
        ]
        assert (tmp_path / "events.jsonl").read_text() == events_to_jsonl(
            session.events
        )
        report = json.loads((tmp_path / "pipeline.json").read_text())
        assert report["totals"]["emitted"] == 3

    def test_artifacts_match_the_golden_digests(self, tmp_path):
        """Every artifact of every recorded run hashes to what the last
        commit with an eager session wrote (golden_artifacts.json)."""
        from repro.cli import main

        for name, run in GOLDEN["runs"].items():
            out = tmp_path / name
            main(run["argv"] + ["--obs-out", str(out)])
            assert sorted(p.name for p in out.iterdir()) == sorted(run["sha256"])
            digests = {
                artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                for artifact in run["sha256"]
            }
            assert digests == run["sha256"], name

    def test_registry_derives_on_read_mid_run(self):
        session = ObsSession()
        session.bus.emit_switch(27, 0, 1, "voluntary", 54, node="n0")
        before = session.registry
        session.bus.emit_switch(54, 1, 0, "voluntary", 54, node="n0")
        # Same object (mid-run readers hold the reference), fresh counts.
        assert session.registry is before
        series = session.registry.get("repro_context_switches_total").series()
        assert sum(value for _, value in series) == 2

    def test_catch_up_never_resets_series_registered_by_other_layers(self):
        session = ObsSession()
        requests = session.registry.counter("repro_http_requests_total", "x")
        requests.inc(3)
        session.bus.emit_switch(27, 0, 1, "voluntary", 54)
        text = session.metrics_prom()
        assert "repro_http_requests_total 3" in text
        assert requests.value() == 3

    def test_a_live_subscriber_sees_the_order_events_materializes(self):
        session = ObsSession()
        seen = []
        session.bus.subscribe(seen.append)
        a, b = session.scoped("a"), session.scoped("b")
        a.emit_switch(27, 0, 1, "voluntary", 54)
        b.emit(AdmissionEvent(time=30, task="v", thread_id=1))
        a.emit_period_close(60, 1, 0, 0, 50, 10, 10, False, False)
        b.emit_activation(61, 2)
        a.emit_switch(81, 1, 0, "involuntary", 54)
        assert [e.type for e in seen] == [
            "context-switch",
            "admission",
            "period-close",
            "activation",
            "context-switch",
        ]
        assert session.events == seen

    def test_ring_evicted_rows_never_reach_the_metrics(self):
        """A hand-built ring bus: rows overwritten before a registry
        read are gone from the metrics too, and counted as such."""
        session = ObsSession()
        session.bus = ArenaBus(capacity=2)
        for event in switches(5):
            session.bus.emit(event)
        series = session.registry.get("repro_context_switches_total").series()
        assert sum(value for _, value in series) == 2
        assert session.loss_accounting()["totals"]["overwritten"] == 3


def miss_stream():
    """A synthetic stream with one attributable miss for n0/video."""
    events = [
        AdmissionEvent(
            time=0, task="video", outcome="accepted", thread_id=1, node="n0"
        ),
        AdmissionEvent(
            time=0, task="other", outcome="accepted", thread_id=2, node="n0"
        ),
        GrantChangeEvent(
            time=100,
            thread_id=1,
            period=1000,
            cpu_ticks=120,
            entry_index=1,
            reason="degraded",
            node="n0",
        ),
        GrantRecomputeEvent(
            time=100,
            requests=2,
            granted=2,
            degraded=1,
            qos_fraction=0.5,
            node="n0",
        ),
    ]
    events += [
        SwitchEvent(
            time=150 + i * 50,
            from_thread=1,
            to_thread=2,
            kind="involuntary",
            cost_ticks=54,
            node="n0",
        )
        for i in range(8)
    ]
    events += [
        PeriodCloseEvent(
            time=1000,
            thread_id=1,
            period_index=0,
            start=50,
            completion=-1,
            granted=200,
            delivered=120,
            missed=True,
            node="n0",
        ),
        PeriodCloseEvent(
            time=2000,
            thread_id=2,
            period_index=0,
            start=1050,
            completion=1900,
            granted=200,
            delivered=200,
            node="n0",
        ),
    ]
    return events


def storm_stream():
    """One missed period of n0/video holding a 7-switch storm, a burned
    grace, overloaded recomputes inside and outside the window, and a
    migration recorded where the broker ran."""

    def recompute(time, **health):
        return GrantRecomputeEvent(
            time=time, requests=2, granted=2, node="n0", **health
        )

    events = [
        AdmissionEvent(
            time=0, task="video", outcome="accepted", thread_id=1, node="n0"
        ),
        AdmissionEvent(
            time=0, task="video", outcome="accepted", thread_id=1, node="n1"
        ),
        recompute(90, degraded=1, qos_fraction=0.5),  # before the window
        recompute(120, degraded=1, qos_fraction=0.5),
        GraceEvent(time=130, thread_id=2, honoured=False, grace_ticks=27, node="n0"),
        GraceEvent(time=135, thread_id=2, honoured=True, grace_ticks=27, node="n0"),
        recompute(140, minimum_fallback=True),  # overloaded, no second cause
        recompute(145),  # healthy
    ]
    events += [
        SwitchEvent(
            time=150 + i * 50,
            from_thread=1,
            to_thread=2,
            kind="involuntary",
            cost_ticks=54,
            node="n0",
        )
        for i in range(7)
    ]
    events += [
        SwitchEvent(time=160, from_thread=2, to_thread=1, node="n0"),
        MigrationEvent(
            time=500,
            task="video",
            source="n0",
            target="n1",
            reason="overload streak 3",
            node="broker",
        ),
        MigrationEvent(time=510, task="other", source="n0", target="n1", node="broker"),
        SwitchEvent(
            time=1000, from_thread=1, to_thread=2, kind="involuntary", node="n1"
        ),
        PeriodCloseEvent(
            time=1000,
            thread_id=1,
            period_index=0,
            start=100,
            completion=-1,
            granted=200,
            delivered=120,
            missed=True,
            node="n0",
        ),
        # Same tick as the close, after it in the stream: stays after it.
        recompute(1000, degraded=1, qos_fraction=0.9),
        recompute(1001, degraded=1, qos_fraction=0.9),  # after the window
    ]
    return events


STORM_EXPLAINED = """\
miss 0 of 1 for n0/video (thread 1), period 0
  window [100, 1000] (900 ticks), delivered 120/200 granted ticks

causal chain:
             0 n0       admission: accepted 'video' -> thread 1 (min_rate=0.000, committed=0.000)
           120 n0       grant-recompute: 2/2 granted, degraded=1, qos=0.500
           130 n0       grace-period: thread 2 burned 27 ticks
           140 n0       grant-recompute: 2/2 granted, degraded=0, qos=1.000, minimum fallback
           150 n0       context-switch: 1 -> 2 (involuntary, cost 54)
           200 n0       context-switch: 1 -> 2 (involuntary, cost 54)
           250 n0       context-switch: 1 -> 2 (involuntary, cost 54)
    ... 1 more involuntary preemptions ...
           350 n0       context-switch: 1 -> 2 (involuntary, cost 54)
           400 n0       context-switch: 1 -> 2 (involuntary, cost 54)
           450 n0       context-switch: 1 -> 2 (involuntary, cost 54)
           500 broker   migration: video n0 -> n1 started (overload streak 3)
          1000 n0       period-close: thread 1 period 0, delivered 120/200 MISSED
          1000 n0       grant-recompute: 2/2 granted, degraded=1, qos=0.900

causes (evidence, not a verdict):
  - qos-degraded @ t=120: node in overload: qos_fraction=0.500, degraded=1
  - burned-grace @ t=130: thread 2 burned a 27-tick grace period
  - migration @ t=500: started n0 -> n1 (overload streak 3)
  - preemption-storm @ t=1000: 7 involuntary preemptions in one period
"""


class TestQuery:
    def test_kind_and_window_filters_preserve_stream_order(self):
        events = miss_stream()
        matched = select(
            events,
            Query(kinds=frozenset({"context-switch"}), window=(150, 300)),
        )
        assert [e.time for e in matched] == [150, 200, 250, 300]

    def test_unknown_kind_is_an_actionable_error(self):
        with pytest.raises(SimulationError, match="unknown event kind"):
            select(miss_stream(), Query(kinds=frozenset({"nope"})))

    def test_task_filter_resolves_threads_via_admission(self):
        matched = select(miss_stream(), Query(task="video"))
        kinds = [e.type for e in matched]
        # The admission, its grant change, every preemption of thread 1,
        # and the period-close — but not thread 2's records.
        assert kinds.count("admission") == 1
        assert kinds.count("grant-change") == 1
        assert kinds.count("context-switch") == 8
        assert kinds.count("period-close") == 1

    def test_node_filter(self):
        events = miss_stream() + switches(2, node="n1")
        assert select(events, Query(nodes=frozenset({"n1"}))) == events[-2:]

    def test_format_line_is_stable(self):
        line = format_line(miss_stream()[0])
        assert line == (
            "           0 n0       admission: accepted 'video' -> "
            "thread 1 (min_rate=0.000, committed=0.000)"
        )
        assert describe(miss_stream()[-2]).endswith("delivered 120/200 MISSED")


class TestExplain:
    def test_causal_chain_walks_admission_to_miss(self):
        events = miss_stream()
        (miss,) = find_misses(events, "video")
        chain = causal_chain(miss)
        kinds = [e.type for e in chain]
        assert kinds[0] == "admission"
        assert kinds[-1] == "period-close"
        assert "grant-change" in kinds and "grant-recompute" in kinds
        assert kinds.count("context-switch") == 8

    def test_chain_is_the_evidence_attribution_kept(self):
        # Every event a rule matched is in the chain — the second
        # overloaded recompute and all seven switches included, though
        # they add no cause line of their own — and nothing else is.
        (miss,) = find_misses(storm_stream(), "n0/video")
        kinds = [e.type for e in causal_chain(miss)]
        assert kinds.count("grant-recompute") == 3
        assert kinds.count("context-switch") == 7
        assert kinds.count("grace-period") == kinds.count("migration") == 1
        assert kinds[0] == "admission" and kinds.count("admission") == 1

    def test_storm_grace_and_migration_explained_text_is_pinned(self):
        assert explain_miss(storm_stream(), "n0/video") == STORM_EXPLAINED

    def test_report_elides_the_preemption_storm_middle(self):
        rendered = explain_miss(miss_stream(), "video")
        assert "miss 0 of 1 for n0/video (thread 1), period 0" in rendered
        # 8 preemptions, 6 shown (first/last 3): the middle 2 are elided.
        assert "... 2 more involuntary preemptions ..." in rendered
        assert "qos-degraded" in rendered and "preemption-storm" in rendered

    @staticmethod
    def _loss(kind: str, overwritten: int) -> dict:
        return {
            "totals": {
                "emitted": 20,
                "delivered": 15,
                "dropped": 5,
                "sampled_out": 0,
            },
            "nodes": {
                "n0": {
                    "kinds": {
                        kind: {
                            "emitted": 3,
                            "delivered": 1,
                            "dropped": 2,
                            "sampled_out": 0,
                            "overwritten": overwritten,
                        }
                    }
                }
            },
        }

    def test_loss_section_names_the_missing_links(self):
        rendered = explain_miss(
            miss_stream(), "video", loss=self._loss("grant-change", 0)
        )
        assert "15/20 events delivered, 5 dropped" in rendered
        assert "the root received fewer rows than n0 emitted" in rendered
        assert "grant-change: 2 dropped" in rendered
        # Shipping loss is about the root's view: the chain is read from
        # the node's arena and is not missing anything.
        assert "it is the full local record" in rendered
        assert "partial" not in rendered and "may be missing" not in rendered

    def test_chain_is_partial_only_where_a_ring_overwrote_the_window(self):
        # The missed window opens at t=50.  The oldest surviving
        # grant-change row is t=100, so evicted ones may lie inside it;
        # the oldest surviving admission is t=0, so none can.
        partial = explain_miss(
            miss_stream(), "video", loss=self._loss("grant-change", 2)
        )
        assert "partial: n0's ring arena overwrote 2 grant-change row(s)" in partial
        assert "full local record" not in partial
        whole = explain_miss(
            miss_stream(), "video", loss=self._loss("admission", 2)
        )
        assert "partial" not in whole and "full local record" in whole

    def test_lossy_cluster_rack_chain_is_the_full_local_record(self, tmp_path):
        """A rack that really loses chunks (10 % drop) and really misses
        (anti-EDF injected): the root lacks rows, the explanation does
        not."""
        from repro.fuzz.inject import INJECTIONS
        from repro.obs.analysis import load_events
        from repro.scenarios import cluster_rack

        session = ObsSession()
        sim = cluster_rack(
            seed=7, drop_rate=0.1, horizon_sec=0.5, sanitize=False,
            obs=session, obs_pipeline=True,
        )
        for node in sim.nodes.values():
            INJECTIONS["edf-invert"](node.rd)
        sim.run_until(sim.horizon)
        session.write(tmp_path, sim.now)
        loss = json.loads((tmp_path / "pipeline.json").read_text())
        events = load_events(tmp_path)
        assert loss["totals"]["dropped"] > 0
        assert len(events) == loss["totals"]["emitted"]  # nothing lost locally
        rendered = explain_miss(events, "node00/stb00-audio", loss=loss)
        assert "the root received fewer rows than node00 emitted" in rendered
        assert "period-close: " in rendered.split("telemetry loss accounting:")[1]
        assert "node00's own arena: it is the full local record" in rendered
        assert "partial" not in rendered

    def test_complete_chain_says_so(self):
        loss = {"totals": {"emitted": 1, "delivered": 1}, "nodes": {}}
        rendered = explain_miss(miss_stream(), "video", loss=loss)
        assert "no loss — the chain is complete" in rendered

    def test_missing_task_and_missing_miss_are_actionable(self):
        with pytest.raises(SimulationError, match="known: n0/other, n0/video"):
            explain_miss(miss_stream(), "nope")
        with pytest.raises(SimulationError, match="missed no periods"):
            explain_miss(miss_stream(), "other")
        with pytest.raises(SimulationError, match=r"\[0, 0\]"):
            explain_miss(miss_stream(), "video", miss_index=3)
