"""Columnar event arenas: struct-of-arrays storage behind the ObsBus.

A plain :class:`~repro.obs.events.ObsBus` allocates one frozen
dataclass per event and hands it to every subscriber.  An
:class:`EventArena` stores the same record as one scalar append per
field into parallel per-kind column lists — no per-event object, no
per-event dict — and the typed events become *views* materialized on
demand (for export, analysis or a live subscriber; metrics fold the columns).
:class:`ArenaBus` is the drop-in bus: hot sites keep their
``if self.obs:`` guard and their one ``emit_*`` call; only the bus
decides that the record lands in columns instead of an object.

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

    def live(self) -> int:
        return len(self.lists[0]) - self.head

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

    # -- the hot path ------------------------------------------------------

    def append_row(self, tag: str, values: tuple) -> None:
        """Append one record as scalars, in ``FIELD_PLANS[tag]`` order."""
        kind = self.kinds.get(tag)
        if kind is None:
            if tag not in FIELD_PLANS:
                raise SimulationError(f"unknown event kind {tag!r}")
            kind = self.kinds[tag] = _Kind(tag)
        for column, value in zip(kind.lists, values):
            column.append(value)
        self.order.append(tag)
        if (
            self.capacity is not None
            and len(self.order) - self._order_head > self.capacity
        ):
            self._evict_one()

    def append_event(self, event: ObsEvent) -> None:
        tag = event.type
        self.append_row(tag, _ROW_GETTERS[tag](event))

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

    # -- materializing views ----------------------------------------------

    def materialize(self) -> list[ObsEvent]:
        """The live rows as typed events, in emission order."""
        cursors = {tag: kind.head for tag, kind in self.kinds.items()}
        events: list[ObsEvent] = []
        for tag in self.order[self._order_head :]:
            kind = self.kinds[tag]
            row = cursors[tag]
            cursors[tag] = row + 1
            values = {
                name: column[row]
                for name, column in zip(kind.fields, kind.lists)
            }
            events.append(EVENT_TYPES[tag](**values))
        return events


class StreamCursor:
    """A resumable read position in an :class:`ArenaBus`'s global order."""

    __slots__ = ("index", "rows")

    def __init__(self) -> None:
        #: Next unread entry of the bus's global order list.
        self.index = 0
        #: (node, kind) -> rows of that key already passed (absolute).
        self.rows: dict[tuple[str, str], int] = {}


class ArenaBus(ObsBus):
    """An ObsBus whose default sink is columnar arenas, one per node.

    Always truthy — the arena *is* the subscriber — so guarded hot
    sites emit into it unconditionally.  ``emit_*`` fast paths append
    scalars straight into the node's arena; generic :meth:`emit`
    decomposes the event it is given.  Ordinary subscribers (a live SLO
    engine, a serve-layer event stream) still work: when any are
    attached, the fast paths materialize the event once and fan it out
    after appending.

    The bus also keeps the global cross-node interleave, so the whole
    stream can be exported in emission order (and read incrementally
    through a :class:`StreamCursor`).
    """

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__()
        self.capacity = capacity
        self.arenas: dict[str, EventArena] = {}
        self._order: list[tuple[str, str]] = []

    def __bool__(self) -> bool:
        return True

    def arena(self, node: str = "") -> EventArena:
        arena = self.arenas.get(node)
        if arena is None:
            arena = self.arenas[node] = EventArena(
                node=node, capacity=self.capacity
            )
        return arena

    @property
    def total_emitted(self) -> int:
        return sum(arena.total_emitted for arena in self.arenas.values())

    def cum(self) -> dict:
        """Per-node cumulative accounting (ground truth for the root)."""
        return {node: arena.cum() for node, arena in sorted(self.arenas.items())}

    # -- emission ----------------------------------------------------------

    def _append(
        self, node: str, tag: str, values: tuple, event: ObsEvent | None = None
    ) -> None:
        """Record one row (``values`` in ``FIELD_PLANS[tag]`` order); the
        typed event exists only if a subscriber is attached to see it."""
        self.arena(node).append_row(tag, values)
        self._order.append((node, tag))
        if self._subscribers:
            if event is None:
                event = EVENT_TYPES[tag](**dict(zip(FIELD_PLANS[tag], values)))
            for sink in self._subscribers:
                sink(event)

    def emit(self, event: ObsEvent, node: str = "") -> None:
        """Record ``event``'s row; ``node`` stamps a node-less event (a
        :class:`~repro.obs.events.ScopedBus` passes its own) in the row,
        so the typed copy is built only for a subscriber."""
        tag = event.type
        values = _ROW_GETTERS[tag](event)
        if node and not values[1]:
            self._append(node, tag, (values[0], node, *values[2:]))
        else:
            self._append(values[1], tag, values, event)

    def emit_switch(
        self,
        time: int,
        from_thread: int,
        to_thread: int,
        kind: str,
        cost_ticks: int,
        node: str = "",
    ) -> None:
        self._append(
            node,
            "context-switch",
            (time, node, from_thread, to_thread, kind, cost_ticks),
        )

    def emit_period_close(
        self,
        time: int,
        thread_id: int,
        period_index: int,
        start: int,
        completion: int,
        granted: int,
        delivered: int,
        missed: bool,
        voided: bool,
        node: str = "",
    ) -> None:
        self._append(
            node,
            "period-close",
            (
                time,
                node,
                thread_id,
                period_index,
                start,
                completion,
                granted,
                delivered,
                missed,
                voided,
            ),
        )

    def emit_activation(self, time: int, pending: int, node: str = "") -> None:
        self._append(node, "activation", (time, node, pending))

    def emit_rpc(
        self,
        time: int,
        action: str,
        src: str,
        dst: str,
        kind: str,
        request_id: str,
        trace_id: str,
    ) -> None:
        self._append(
            "", "rpc", (time, "", action, src, dst, kind, request_id, 0, trace_id)
        )

    # -- whole-stream views ------------------------------------------------

    def _walk(self, cursor: StreamCursor):
        """Yield ``(kind, row)`` for every live row past ``cursor``, in
        global order, and advance the cursor to the end of the stream.

        Rows evicted from a ring arena are the *oldest* of their
        (node, kind), so an order entry whose absolute kind-row index
        falls below the kind's live window is exactly an evicted one —
        skip it by count, no tombstones needed.  Callers exhaust the
        generator; the cursor is only consistent once they have.
        """
        pending = self._order[cursor.index :]
        cursor.index = len(self._order)
        passed = cursor.rows
        arenas = self.arenas
        for key in pending:
            absolute = passed.get(key, 0)
            passed[key] = absolute + 1
            kind = arenas[key[0]].kinds[key[1]]
            row = absolute - kind.base
            if row >= kind.head:
                yield kind, row

    def materialize(self) -> list[ObsEvent]:
        """Every live event across all nodes, in global emission order."""
        return [
            EVENT_TYPES[kind.tag](
                **{
                    name: column[row]
                    for name, column in zip(kind.fields, kind.lists)
                }
            )
            for kind, row in self._walk(StreamCursor())
        ]
