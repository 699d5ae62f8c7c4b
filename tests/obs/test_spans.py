"""Span trees: deterministic ids, parenting, contexts, end-of-run close."""

from repro.obs.spans import SpanTracker, TraceContext


class TestIds:
    def test_ids_are_sequential_never_random(self):
        tracker = SpanTracker()
        a = tracker.start("place:x", 0)
        b = tracker.start("place:y", 5)
        assert (a.trace_id, a.span_id) == ("t0001", 1)
        assert (b.trace_id, b.span_id) == ("t0002", 2)

    def test_two_trackers_produce_identical_ids(self):
        def run():
            tracker = SpanTracker()
            root = tracker.start("op", 0)
            tracker.start("step", 1, parent=root)
            return [(s.trace_id, s.span_id, s.parent_id) for s in tracker.spans]

        assert run() == run()


class TestTree:
    def test_child_joins_parent_trace(self):
        tracker = SpanTracker()
        root = tracker.start("place:x", 0, task="x")
        child = tracker.start("admit:node00", 0, parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert [s for s in tracker.spans if s.parent_id is None] == [root]
        assert [s for s in tracker.spans if s.parent_id == root.span_id] == [child]
        assert [s for s in tracker.spans if s.trace_id == root.trace_id] == [
            root, child
        ]

    def test_context_propagates_across_a_hop(self):
        """A TraceContext (what the MessageBus envelope carries) parents
        the remote side into the same tree."""
        tracker = SpanTracker()
        local = tracker.start("admit:node00", 10)
        context = local.context()
        assert context == TraceContext(local.trace_id, local.span_id)
        remote = tracker.start("handle", 12, parent=context)
        assert remote.trace_id == local.trace_id
        assert remote.parent_id == local.span_id


class TestLifecycle:
    def test_finish_records_end_status_and_attrs(self):
        tracker = SpanTracker()
        span = tracker.start("admit:node00", 10, task="x")
        tracker.finish(span, 37, status="denied", error="no headroom")
        assert span.finished
        assert (span.start, span.end, span.status) == (10, 37, "denied")
        assert span.attrs == {"task": "x", "error": "no headroom"}

    def test_finish_open_closes_only_unfinished_spans(self):
        tracker = SpanTracker()
        done = tracker.start("a", 0)
        tracker.finish(done, 5)
        tracker.start("b", 1)
        assert tracker.finish_open(100) == 1
        assert done.end == 5  # untouched
        assert tracker.spans[1].end == 100
        assert tracker.spans[1].status == "unfinished"

    def test_to_dict_is_plain_data_with_sorted_attrs(self):
        tracker = SpanTracker()
        span = tracker.start("op", 3, zebra=1, alpha=2)
        payload = span.to_dict()
        assert payload["name"] == "op"
        assert list(payload["attrs"]) == ["alpha", "zebra"]
