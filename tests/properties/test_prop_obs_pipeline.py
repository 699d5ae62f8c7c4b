"""Property tests for the columnar obs pipeline (hypothesis).

Three invariants the whole observability tier leans on:

1. **Round-trip byte identity** — any event stream pushed through the
   columnar arena, exported via ``snapshot_columns`` -> columnar JSON ->
   ``decode_columnar``, must serialize to *byte-identical* events.jsonl
   v2 as serializing the event objects directly.  The arenas are the
   only record an observed run keeps, so they may lose nothing.

2. **Exact loss accounting** — under arbitrary ring capacities, chunk
   sampling, flush cadences, and transport misbehavior (drops,
   duplicates), ``emitted == delivered + dropped + sampled_out`` holds
   per kind and per node, with ring overwrites never exceeding the
   dropped bucket.  Loss may happen; *unaccounted* loss may not.

3. **Catch-up equals replay** — reading the session's registry at any
   points during a run folds each event into the metrics exactly once:
   the rendered ``metrics.prom`` equals that of a session fed the same
   stream and read once at the end.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.colfile import columnar_payload, columnar_to_json, decode_columnar
from repro.obs.events import (
    ActivationEvent,
    AdmissionEvent,
    GrantChangeEvent,
    PeriodCloseEvent,
    SwitchEvent,
)
from repro.obs.log import events_to_jsonl
from repro.obs.pipeline import ArenaBus, ChunkShipper, RootCollector
from repro.obs.pipeline.aggregate import check_loss_invariant
from repro.obs.session import ObsSession

times = st.integers(min_value=0, max_value=10**12)
tids = st.integers(min_value=-1, max_value=64)
labels = st.text(alphabet="abcdefgh_", min_size=0, max_size=8)
nodes = st.sampled_from(["", "node00", "node01", "rackB/n3"])
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

admission_events = st.builds(
    AdmissionEvent,
    time=times,
    node=nodes,
    task=labels,
    outcome=st.sampled_from(["accepted", "denied"]),
    thread_id=tids,
    min_rate=fractions,
    committed=fractions,
    headroom=fractions,
    error=labels,
)
switch_events = st.builds(
    SwitchEvent,
    time=times,
    node=nodes,
    from_thread=tids,
    to_thread=tids,
    kind=st.sampled_from(["voluntary", "involuntary"]),
    cost_ticks=st.integers(min_value=0, max_value=10**6),
)
period_close_events = st.builds(
    PeriodCloseEvent,
    time=times,
    node=nodes,
    thread_id=tids,
    period_index=st.integers(min_value=-1, max_value=1000),
    start=times,
    completion=st.integers(min_value=-1, max_value=10**12),
    granted=st.integers(min_value=0, max_value=10**9),
    delivered=st.integers(min_value=0, max_value=10**9),
    missed=st.booleans(),
    voided=st.booleans(),
)
grant_change_events = st.builds(
    GrantChangeEvent,
    time=times,
    node=nodes,
    thread_id=tids,
    period=st.integers(min_value=0, max_value=10**9),
    cpu_ticks=st.integers(min_value=0, max_value=10**9),
    entry_index=st.integers(min_value=-1, max_value=64),
    reason=labels,
)
activation_events = st.builds(
    ActivationEvent,
    time=times,
    node=nodes,
    pending=st.integers(min_value=0, max_value=128),
)

event_streams = st.lists(
    st.one_of(
        admission_events,
        switch_events,
        period_close_events,
        grant_change_events,
        activation_events,
    ),
    max_size=60,
)


class TestColumnarRoundTrip:
    @settings(max_examples=150)
    @given(event_streams)
    def test_arena_materialize_matches_eager_jsonl(self, events):
        """SoA storage loses nothing: materializing the arena stream
        serializes byte-identically to the original event objects."""
        reference = events_to_jsonl(events)
        bus = ArenaBus()
        for event in events:
            bus.emit(event)
        assert events_to_jsonl(bus.materialize()) == reference

    @settings(max_examples=150)
    @given(event_streams)
    def test_columnar_encode_decode_is_byte_identical(self, events):
        """snapshot_columns -> events.col.json -> decode round-trips to
        byte-identical events.jsonl v2 — floats, empty strings, empty
        streams, and multi-node interleaves included."""
        reference = events_to_jsonl(events)
        bus = ArenaBus()
        for event in events:
            bus.emit(event)
        columns, order = bus.snapshot_columns()
        text = columnar_to_json(columnar_payload(columns, order))
        decoded = decode_columnar(json.loads(text))
        assert events_to_jsonl(decoded) == reference

    @settings(max_examples=100)
    @given(event_streams)
    def test_fast_paths_agree_with_generic_emit(self, events):
        """emit_switch / emit_period_close / emit_activation append the
        same rows the generic emit() path would."""
        fast = ArenaBus()
        generic = ArenaBus()
        for event in events:
            generic.emit(event)
            if isinstance(event, SwitchEvent):
                fast.emit_switch(
                    event.time,
                    event.from_thread,
                    event.to_thread,
                    event.kind,
                    event.cost_ticks,
                    node=event.node,
                )
            elif isinstance(event, PeriodCloseEvent):
                fast.emit_period_close(
                    event.time,
                    event.thread_id,
                    event.period_index,
                    event.start,
                    event.completion,
                    event.granted,
                    event.delivered,
                    event.missed,
                    event.voided,
                    node=event.node,
                )
            elif isinstance(event, ActivationEvent):
                fast.emit_activation(event.time, event.pending, node=event.node)
            else:
                fast.emit(event)
        assert events_to_jsonl(fast.materialize()) == events_to_jsonl(
            generic.materialize()
        )


class TestCatchUpMetrics:
    @settings(max_examples=150)
    @given(event_streams, st.sets(st.integers(min_value=0, max_value=60)))
    def test_interleaved_registry_reads_equal_one_read_at_the_end(
        self, events, read_before
    ):
        """Registry reads at arbitrary points between emits neither
        double-count nor skip an event."""
        interleaved, once = ObsSession(), ObsSession()
        for index, event in enumerate(events):
            if index in read_before:
                interleaved.registry
            interleaved.bus.emit(event)
            once.bus.emit(event)
        assert interleaved.metrics_prom() == once.metrics_prom()
        assert interleaved.events == once.events == events


class _FatefulTransport:
    """A chunk transport whose per-send fate hypothesis controls.

    ``fates`` cycles over "deliver" / "drop" / "dup"; duplicates model a
    retrying link, drops a lossy one.  Everything that does arrive goes
    straight to the root collector (the rack hop adds batching, not new
    accounting semantics, so the invariant is tested at its source).
    """

    def __init__(self, root, fates):
        self.root = root
        self.fates = fates
        self.sent = 0

    def send(self, src, dst, kind, payload, now):
        fate = self.fates[self.sent % len(self.fates)]
        self.sent += 1
        if fate == "drop":
            return
        self.root.on_node_chunk(payload)
        if fate == "dup":
            self.root.on_node_chunk(payload)


class TestLossAccountingInvariant:
    @settings(max_examples=150)
    @given(
        event_streams,
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        st.one_of(st.none(), st.integers(min_value=2, max_value=8)),
        st.integers(min_value=1, max_value=7),
        st.lists(
            st.sampled_from(["deliver", "drop", "dup"]), min_size=1, max_size=12
        ),
    )
    def test_emitted_equals_delivered_plus_dropped_plus_sampled(
        self, events, capacity, max_chunk, flush_every, fates
    ):
        """Per kind and per node: emitted == delivered + dropped +
        sampled_out, and overwritten <= dropped — for every combination
        of ring size, head/tail sampling, flush cadence, and transport
        drop/duplicate pattern."""
        bus = ArenaBus(capacity=capacity)
        root = RootCollector()
        transport = _FatefulTransport(root, fates)
        shippers = {}
        for index, event in enumerate(events):
            bus.emit(event)
            node = event.node
            shipper = shippers.get(node)
            if shipper is None:
                shipper = shippers[node] = ChunkShipper(
                    bus.arena(node),
                    transport,
                    "rack0",
                    max_chunk_events=max_chunk,
                )
            if (index + 1) % flush_every == 0:
                shipper.flush(index)
        for node in sorted(shippers):
            shippers[node].flush(len(events))

        accounting = root.accounting(
            truth=bus.cum(),
            chunks_sent={node: s.seq for node, s in shippers.items()},
        )
        assert check_loss_invariant(accounting) == []
        for row in accounting["kinds"].values():
            assert (
                row["emitted"]
                == row["delivered"] + row["dropped"] + row["sampled_out"]
            )
            assert 0 <= row["overwritten"] <= row["dropped"]
            assert row["delivered"] >= 0
        for node, payload in accounting["nodes"].items():
            chunks = payload["chunks"]
            assert chunks["sent"] == shippers[node].seq
            assert chunks["delivered"] + chunks["lost"] == chunks["sent"]
        total_emitted = accounting["totals"]["emitted"]
        assert total_emitted == len(events)

    @settings(max_examples=80)
    @given(
        event_streams,
        st.lists(
            st.sampled_from(["deliver", "drop", "dup"]), min_size=1, max_size=12
        ),
    )
    def test_lossless_counters_mean_zero_drop(self, events, fates):
        """When every chunk is delivered at least once (dups collapse),
        the accounting reports zero loss — the invariant's floor."""
        delivered_fates = ["dup" if f == "dup" else "deliver" for f in fates]
        bus = ArenaBus()
        root = RootCollector()
        transport = _FatefulTransport(root, delivered_fates)
        shippers = {}
        for event in events:
            bus.emit(event)
            if event.node not in shippers:
                shippers[event.node] = ChunkShipper(
                    bus.arena(event.node), transport, "rack0"
                )
        for node in sorted(shippers):
            shippers[node].flush(len(events))
        accounting = root.accounting(
            truth=bus.cum(),
            chunks_sent={node: s.seq for node, s in shippers.items()},
        )
        assert check_loss_invariant(accounting) == []
        assert accounting["totals"]["dropped"] == 0
        assert accounting["totals"]["sampled_out"] == 0
        assert accounting["totals"]["delivered"] == len(events)
        assert accounting["chunks"]["node_lost"] == 0
