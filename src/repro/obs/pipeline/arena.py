"""Columnar event arenas: the event bus and its struct-of-arrays storage.

An :class:`EventArena` stores each event as one scalar append per
field into parallel per-kind column lists — no per-event object, no
per-event dict — and the typed events become *views* materialized on
demand (for export, analysis or a live subscriber; metrics fold the columns).
:class:`ArenaBus` is the one :class:`~repro.obs.events.ObsBus`: hot
sites keep their ``if self.obs:`` guard and their one ``emit_*`` call,
and the record lands in columns.  Rows
are written through a node's :class:`NodeScope` (what a cluster node
records through), whose row writer per kind holds each column's bound
``append``: a row is one call per column, in the one Python frame of
its ``emit_*``.

Arenas are optionally *ring-buffered*: with a ``capacity``, appending
past it evicts the globally oldest retained row.  Evicting a row that
was never cut into a chunk is real data loss and is counted per kind
in :attr:`EventArena.overwritten` — loss is accounted, never silent.

:meth:`EventArena.cut` closes a chunk over everything appended since
the previous cut for the shipping tier, applying deterministic
head/tail sampling when the slice exceeds ``max_events`` (keep the
first and last halves, count the sampled-out middle per kind).
"""

from __future__ import annotations

import operator

from repro.errors import SimulationError
from repro.obs.events import EVENT_TYPES, FIELD_PLANS, ObsBus, ObsEvent

#: Wire tag -> the getter that reads an event's row, in
#: ``FIELD_PLANS[tag]`` order (every plan has ``time`` and ``node``, so
#: each getter returns a tuple).
_ROW_GETTERS = {
    tag: operator.attrgetter(*names) for tag, names in FIELD_PLANS.items()
}

#: Compact a column (or the order list) once this many dead rows sit in
#: front of it *and* they outnumber the live rows — amortized O(1).
_COMPACT_THRESHOLD = 512


class _Kind:
    """One event kind's parallel columns inside an arena."""

    __slots__ = ("tag", "fields", "columns", "lists", "base", "head")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.fields = FIELD_PLANS[tag]
        self.columns: dict[str, list] = {name: [] for name in self.fields}
        self.lists = tuple(self.columns[name] for name in self.fields)
        #: Absolute kind-row index of list position 0 (grows on compact).
        self.base = 0
        #: List positions [0, head) are evicted, not yet compacted.
        self.head = 0

    def emitted(self) -> int:
        """Total rows of this kind ever appended (absolute)."""
        return self.base + len(self.lists[0])

    def compact(self) -> None:
        if self.head:
            for column in self.lists:
                del column[: self.head]
            self.base += self.head
            self.head = 0


class EventArena:
    """Ring-buffered struct-of-arrays storage for one node's events."""

    def __init__(self, node: str = "", capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"arena capacity must be >= 1, got {capacity}")
        self.node = node
        self.capacity = capacity
        self.kinds: dict[str, _Kind] = {}
        #: Node-local emission order (one tag per appended row).
        self.order: list[str] = []
        self._order_base = 0  # absolute index of order[0]
        self._order_head = 0  # live entries start at this list index
        self._cut_abs = 0  # next cut starts at this absolute order index
        #: Per-kind rows lost to ring overwrite before they were shipped.
        self.overwritten: dict[str, int] = {}
        #: Per-kind rows deterministically sampled out at cut time.
        self.sampled_out: dict[str, int] = {}

    def __len__(self) -> int:
        """Live (retained) rows."""
        return len(self.order) - self._order_head

    @property
    def total_emitted(self) -> int:
        """Rows ever appended, evicted or not."""
        return self._order_base + len(self.order)

    def kind_emitted(self, tag: str) -> int:
        kind = self.kinds.get(tag)
        return 0 if kind is None else kind.emitted()

    def _evict_one(self) -> None:
        tag = self.order[self._order_head]
        abs_index = self._order_base + self._order_head
        self._order_head += 1
        kind = self.kinds[tag]
        kind.head += 1
        if abs_index >= self._cut_abs:
            # Never shipped: this row is gone for good.
            self.overwritten[tag] = self.overwritten.get(tag, 0) + 1
        if kind.head >= _COMPACT_THRESHOLD and kind.head * 2 >= len(kind.lists[0]):
            kind.compact()
        if (
            self._order_head >= _COMPACT_THRESHOLD
            and self._order_head * 2 >= len(self.order)
        ):
            del self.order[: self._order_head]
            self._order_base += self._order_head
            self._order_head = 0

    # -- cutting chunks for the shipping tier ------------------------------

    def cut(self, max_events: int | None = None) -> tuple[list[str], dict]:
        """Close a chunk over everything appended since the last cut.

        Returns ``(order, cum)``: the kept rows' tag interleave — all the
        root reads of a chunk's rows is how many of each kind arrived —
        and the arena's *cumulative* per-kind counters (emitted /
        sampled_out / overwritten) at the cut.  The counters ride in
        every chunk so the root can account for loss exactly even when
        chunks themselves are dropped in flight.  The rows stay in the
        arena: the local stream is the record, a chunk is its receipt.

        When more than ``max_events`` rows are pending, deterministic
        head/tail sampling keeps the first ``max_events // 2`` and the
        last ``max_events - max_events // 2`` rows and counts the middle
        per kind into :attr:`sampled_out`.
        """
        if max_events is not None and max_events < 2:
            raise SimulationError(
                f"cut max_events must be >= 2 (head + tail), got {max_events}"
            )
        start_abs = max(self._cut_abs, self._order_base + self._order_head)
        entries = self.order[start_abs - self._order_base :]
        self._cut_abs = self._order_base + len(self.order)
        if max_events is not None and len(entries) > max_events:
            head_n = max_events // 2
            tail_n = len(entries) - (max_events - head_n)
            for tag in entries[head_n:tail_n]:
                self.sampled_out[tag] = self.sampled_out.get(tag, 0) + 1
            entries = entries[:head_n] + entries[tail_n:]
        return entries, self.cum()

    def cum(self) -> dict:
        """Cumulative per-kind accounting counters (JSON-able)."""
        return {
            "emitted": {
                tag: self.kinds[tag].emitted() for tag in sorted(self.kinds)
            },
            "sampled_out": dict(sorted(self.sampled_out.items())),
            "overwritten": dict(sorted(self.overwritten.items())),
        }


class NodeScope:
    """One node's recording face: ``emit*`` write rows into its arena.

    A cluster run shares one :class:`ArenaBus` across all nodes; each
    node's distributor holds its scope, so its rows say where they
    happened without core ever learning it is clustered.  The scope
    keeps one row writer per kind, bound when the kind's first row is
    written: each column's bound ``append``, the arena order's and the
    bus order's, and the ``(node, tag)`` key the bus order shares.

    Every row takes the same steps: one append per column, the two order
    appends, then — only with a ring or a subscriber — eviction once
    past capacity and one typed event for the subscribers.  A scope is
    always truthy (it defines neither ``__bool__`` nor ``__len__``).
    """

    def __init__(self, bus: "ArenaBus", node: str) -> None:
        self.node = node
        self.arena = EventArena(node=node, capacity=bus.capacity)
        self._bus = bus
        self._ring = bus.capacity is not None
        self._subscribers = bus._subscribers
        self._writers: dict[str, tuple] = {}

    def _bind(self, tag: str) -> tuple:
        """The ``tag`` row writer (its first row creates the kind, and
        the node's first row puts its arena on the bus)."""
        if tag not in FIELD_PLANS:
            raise SimulationError(f"unknown event kind {tag!r}")
        arena = self._bus.arena(self.node)
        kind = arena.kinds[tag] = _Kind(tag)
        writer = self._writers[tag] = (
            *(column.append for column in kind.lists),
            arena.order.append,
            self._bus._order.append,
            (self.node, tag),
        )
        return writer

    def _settle(self, tag: str) -> None:
        """A row's steps after its appends: evict once past capacity,
        then hand the row to each subscriber as one typed event."""
        arena = self.arena
        if self._ring and len(arena) > arena.capacity:
            arena._evict_one()
        if self._subscribers:
            columns = arena.kinds[tag].columns
            event = EVENT_TYPES[tag](**{n: c[-1] for n, c in columns.items()})
            for sink in self._subscribers:
                sink(event)

    def _write(self, tag: str, row: tuple) -> None:
        """Record ``row`` (``FIELD_PLANS[tag]`` order, this node's name in it)."""
        *appends, order, stream, key = self._writers.get(tag) or self._bind(tag)
        any(map(operator.call, appends, row))  # each append returns None
        order(tag)
        stream(key)
        if self._ring or self._subscribers:
            self._settle(tag)

    def emit(self, event: ObsEvent) -> None:
        """Record ``event``; one with no node of its own happened here."""
        self._bus.emit(event, self.node)

    # The two hottest kinds call their writer's appends in the emitter's own
    # frame (``ArenaBus.emit_rpc`` too): one Python frame a row.

    def emit_switch(self, time, from_thread, to_thread, kind, cost_ticks) -> None:
        t, n, f, to, k, c, order, stream, key = (
            self._writers.get("context-switch") or self._bind("context-switch")
        )
        t(time)
        n(self.node)
        f(from_thread)
        to(to_thread)
        k(kind)
        c(cost_ticks)
        order("context-switch")
        stream(key)
        if self._ring or self._subscribers:
            self._settle("context-switch")

    def emit_period_close(
        self, time, thread_id, period_index, start, completion, granted,
        delivered, missed, voided,
    ) -> None:
        t, n, th, p, s, c, g, d, m, v, order, stream, key = (
            self._writers.get("period-close") or self._bind("period-close")
        )
        t(time)
        n(self.node)
        th(thread_id)
        p(period_index)
        s(start)
        c(completion)
        g(granted)
        d(delivered)
        m(missed)
        v(voided)
        order("period-close")
        stream(key)
        if self._ring or self._subscribers:
            self._settle("period-close")

    def emit_activation(self, time, pending) -> None:
        self._write("activation", (time, self.node, pending))


class ArenaBus(ObsBus):
    """The event bus: columnar arenas, one per node.

    Truthy like any object (it defines neither ``__bool__`` nor
    ``__len__``), so a guarded hot site's ``if self.obs:`` makes no
    Python call and emits into it unconditionally.  Every row is written through
    its node's :class:`NodeScope`; generic :meth:`emit` decomposes the
    event it is given.  Ordinary subscribers (a live SLO engine, a
    serve-layer event stream) still work: when any are attached, each
    row is handed to them as one typed event after it is appended.

    The bus also keeps the global cross-node interleave, so the whole
    stream can be exported in emission order.
    """

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__()
        self.capacity = capacity
        self.arenas: dict[str, EventArena] = {}
        self._scopes: dict[str, NodeScope] = {}
        self._order: list[tuple[str, str]] = []

    def scope(self, node: str = "") -> NodeScope:
        """``node``'s recording scope; its arena joins :attr:`arenas`
        with the node's first row."""
        scope = self._scopes.get(node)
        if scope is None:
            scope = self._scopes[node] = NodeScope(self, node)
        return scope

    def arena(self, node: str = "") -> EventArena:
        arena = self.arenas.get(node)
        if arena is None:
            arena = self.arenas[node] = self.scope(node).arena
        return arena

    @property
    def total_emitted(self) -> int:
        return sum(arena.total_emitted for arena in self.arenas.values())

    def cum(self) -> dict:
        """Per-node cumulative accounting (ground truth for the root)."""
        return {node: arena.cum() for node, arena in sorted(self.arenas.items())}

    # -- emission ----------------------------------------------------------

    def emit(self, event: ObsEvent, node: str = "") -> None:
        """Record ``event``'s row; ``node`` stamps a node-less event (a
        :class:`NodeScope` passes its own) in the row."""
        tag = event.type
        row = _ROW_GETTERS[tag](event)
        if node and not row[1]:
            self.scope(node)._write(tag, (row[0], node, *row[2:]))
        else:
            self.scope(row[1])._write(tag, row)

    # The typed emitters (the ObsBus interface) write through ``node``'s scope.

    def emit_switch(self, *row, node: str = "") -> None:
        (self._scopes.get(node) or self.scope(node)).emit_switch(*row)

    def emit_period_close(self, *row, node: str = "") -> None:
        (self._scopes.get(node) or self.scope(node)).emit_period_close(*row)

    def emit_activation(self, *row, node: str = "") -> None:
        (self._scopes.get(node) or self.scope(node)).emit_activation(*row)

    def emit_rpc(self, time, action, src, dst, kind, request_id, trace_id) -> None:
        """A bus hop: a node-less ``rpc`` row with ``attempt`` 0."""
        scope = self._scopes.get("") or self.scope("")
        t, n, a, s, d, k, r, at, tr, order, stream, key = (
            scope._writers.get("rpc") or scope._bind("rpc")
        )
        t(time)
        n("")
        a(action)
        s(src)
        d(dst)
        k(kind)
        r(request_id)
        at(0)
        tr(trace_id)
        order("rpc")
        stream(key)
        if scope._ring or scope._subscribers:
            scope._settle("rpc")

    # -- whole-stream views ------------------------------------------------

    def _ranges(self, passed: dict, node: str, tags=None, ordered=()) -> list:
        """``node``'s live rows past ``passed`` — (node, kind) -> absolute
        rows already read, moved to the end here — as ``(kind, start,
        stop)`` list positions, one range per kind in ``tags`` (a
        sequence; every kind when None).  Ranges of ``ordered`` kinds
        come last, the one holding the node's newest such row at the very
        end, so a fold in which the last writer wins sees them in order.

        Rows evicted from a ring arena are the *oldest* of their kind, so
        an absolute kind-row index below the live window is exactly an
        evicted one — skipped by count, no tombstones needed.
        """
        arena = self.arenas.get(node)
        if arena is None:
            return []
        kinds = arena.kinds
        ranges, late = [], {}
        for tag in kinds if tags is None else tags:
            kind = kinds.get(tag)
            if kind is None:
                continue
            key = (node, tag)
            start = max(passed.get(key, 0) - kind.base, kind.head)
            stop = len(kind.lists[0])
            passed[key] = kind.base + stop
            if start < stop:
                if tag in ordered:
                    late[tag] = (kind, start, stop)
                else:
                    ranges.append((kind, start, stop))
        if len(late) > 1:
            newest = []  # late tags by their last row, newest first
            for tag in reversed(arena.order):
                if tag in late and tag not in newest:
                    newest.append(tag)
                    if len(newest) == len(late):
                        break
            ranges.extend(late[tag] for tag in reversed(newest))
        else:
            ranges.extend(late.values())
        return ranges

    def materialize(self) -> list[ObsEvent]:
        """Every live event across all nodes, in global emission order."""
        passed: dict[tuple[str, str], int] = {}
        events = []
        for key in self._order:
            absolute = passed.get(key, 0)
            passed[key] = absolute + 1
            kind = self.arenas[key[0]].kinds[key[1]]
            row = absolute - kind.base
            if row >= kind.head:
                events.append(
                    EVENT_TYPES[kind.tag](
                        **{name: column[row] for name, column in kind.columns.items()}
                    )
                )
        return events
