"""Span tracing: causal trees over simulated time.

A *trace* is one logical operation end to end — e.g. "place task
stb03-video somewhere in the cluster" — and a *span* is one timed step
of it (an RPC attempt against one node, the migration's re-admission,
...).  Spans form a tree via ``parent_id``; the whole tree shares a
``trace_id``.

Ids are deterministic: sequential counters, never random, so a
same-seed run produces identical traces.  A :class:`TraceContext` is
the two-field tuple that crosses process boundaries — the MessageBus
carries it on every envelope, which is how a reply (or a node-side
effect) lands in the originating request's tree.

Timestamps are simulated ticks.  A span may end at the tick it
started (RPC work at one instant); exporters render a minimum width
so such spans stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceContext:
    """What propagates across a message hop: (trace, parent span)."""

    trace_id: str
    span_id: int


@dataclass
class Span:
    """One timed step of a traced operation."""

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: int
    end: int | None = None
    status: str = "ok"
    #: Small, JSON-safe annotations (task, node, request id, outcome).
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(sorted(self.attrs.items())),
        }


class SpanTracker:
    """Creates, finishes, and stores spans with deterministic ids."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_trace = 0
        self._next_span = 0

    def new_trace_id(self) -> str:
        self._next_trace += 1
        return f"t{self._next_trace:04d}"

    def start(
        self,
        name: str,
        time: int,
        parent: TraceContext | Span | None = None,
        trace_id: str | None = None,
        **attrs: object,
    ) -> Span:
        """Open a span.  With ``parent`` the span joins that trace; with
        neither parent nor ``trace_id`` it roots a fresh trace."""
        parent_id: int | None = None
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace_id is None:
            trace_id = self.new_trace_id()
        self._next_span += 1
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            start=time,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, time: int, status: str = "ok", **attrs: object) -> Span:
        span.end = time
        span.status = status
        span.attrs.update(attrs)
        return span

    def finish_open(self, time: int, status: str = "unfinished") -> int:
        """Close every span still open (end of run); returns the count."""
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.end = time
                span.status = status
                closed += 1
        return closed
