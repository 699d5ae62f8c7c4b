"""Deterministic message layer: seeded latency, drops, and ordering.

A :class:`MessageBus` carries envelopes between named endpoints of a
simulation (for `repro.cluster`, broker <-> distributor nodes).  It is
pure transport: delivery times are computed when a message is sent, from
a configured base latency plus seeded jitter, and each message is
independently dropped with a configured probability — all drawn from an
explicit ``random.Random`` stream so a run is exactly reproducible from
its seed.  Retries, timeouts, and idempotency are the *sender's* job
(the bus never re-sends); the bus only promises that what is delivered
arrives in deterministic ``(deliver_at, seq)`` order.

This module sits in the simulation substrate: it knows nothing about
resource lists, grants, or brokers, and must stay importable without
``repro.core`` or ``repro.cluster``.  When a bus is given an
``ObsSession``'s bus, every send/deliver/drop is recorded
through its ``emit_rpc`` fast path (one ``rpc`` row; a typed
``RpcEvent`` exists only for a subscriber), and envelopes carry an
optional :class:`~repro.obs.spans.TraceContext` so a request/reply
chain can be stitched into one causal trace.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.phase import phase


def _request_id(payload: object) -> str:
    """The logical RPC a payload belongs to ("" when it names none)."""
    if isinstance(payload, dict):
        return str(payload.get("request_id", ""))
    return str(getattr(payload, "request_id", ""))


@dataclass(frozen=True, order=True)
class Envelope:
    """One message in flight, ordered by ``(deliver_at, seq)``."""

    deliver_at: int
    seq: int
    src: str = field(compare=False)
    dst: str = field(compare=False)
    kind: str = field(compare=False)
    payload: object = field(compare=False)
    sent_at: int = field(compare=False)
    #: Optional :class:`repro.obs.spans.TraceContext` (duck-typed: any
    #: object with ``trace_id``/``span_id``).  Pure pass-through — the
    #: bus never reads it; receivers echo it into their replies.
    trace: object = field(compare=False, default=None)


@dataclass
class BusStats:
    """Counters the bus maintains; read them, never write them."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0


class MessageBus:
    """Seeded, fault-injectable point-to-point message transport.

    Args:
        rng: an explicit ``random.Random`` (use a ``RngRegistry`` stream)
            driving jitter and drop decisions.
        latency_ticks: base one-way latency applied to every message.
        jitter_ticks: uniform extra latency in ``[0, jitter_ticks]``,
            drawn per message.
        drop_rate: probability in ``[0, 1)`` that a message is silently
            lost.  With ``0.0`` no drop draw is made, so fault-free runs
            consume no randomness for drops.
    """

    def __init__(
        self,
        rng: random.Random,
        latency_ticks: int = 0,
        jitter_ticks: int = 0,
        drop_rate: float = 0.0,
    ) -> None:
        if latency_ticks < 0 or jitter_ticks < 0:
            raise SimulationError(
                f"latency/jitter must be non-negative tick counts, got "
                f"{latency_ticks}/{jitter_ticks}"
            )
        if not 0.0 <= drop_rate < 1.0:
            raise SimulationError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self._rng = rng
        self.latency_ticks = int(latency_ticks)
        self.jitter_ticks = int(jitter_ticks)
        self.drop_rate = drop_rate
        self.stats = BusStats()
        #: In-flight envelopes keyed ``(deliver_at, seq, envelope)``: the
        #: heap compares two ints, never the envelope.
        self._heap: list[tuple[int, int, Envelope]] = []
        self._seq = 0
        #: Dropped envelopes, for inspection and fault-injection tests.
        self.dropped: list[Envelope] = []
        #: Optional telemetry bus (an ``ObsSession``'s bus).
        self.obs = None
        #: Optional phase profiler (duck-typed, wired from above like
        #: ``obs`` — the bus never imports it).
        self.prof = None

    def __len__(self) -> int:
        return len(self._heap)

    @phase("bus.rpc")
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: object,
        now: int,
        trace: object = None,
    ) -> Envelope:
        """Enqueue a message; returns the envelope (even when dropped).

        The delivery time is ``now + latency + jitter``.  A dropped
        message is recorded in :attr:`dropped` and never delivered — the
        sender learns of the loss only through its own timeout.
        """
        if now < 0:
            raise SimulationError(f"cannot send a message at negative time {now}")
        delay = self.latency_ticks
        if self.jitter_ticks:
            delay += self._rng.randrange(self.jitter_ticks + 1)
        envelope = Envelope(
            deliver_at=now + delay,
            seq=self._seq,
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            sent_at=now,
            trace=trace,
        )
        self._seq += 1
        self.stats.sent += 1
        obs = self.obs
        if obs:
            request_id = _request_id(payload)
            trace_id = getattr(trace, "trace_id", "")
            obs.emit_rpc(now, "send", src, dst, kind, request_id, trace_id)
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.stats.dropped += 1
            self.dropped.append(envelope)
            if obs:
                obs.emit_rpc(now, "drop", src, dst, kind, request_id, trace_id)
            return envelope
        heapq.heappush(self._heap, (envelope.deliver_at, envelope.seq, envelope))
        return envelope

    def next_time(self) -> int | None:
        """Delivery time of the earliest in-flight message, or None."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_due(self, now: int) -> list[Envelope]:
        """Remove and return every envelope with ``deliver_at <= now``,
        in deterministic ``(deliver_at, seq)`` order.  With a profiler
        attached every call is one ``bus.rpc`` phase, due or not."""
        heap = self._heap
        prof = self.prof
        if not prof and (not heap or heap[0][0] > now):
            return []
        if prof:
            prof.begin("bus.rpc")
        due: list[Envelope] = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        self.stats.delivered += len(due)
        obs = self.obs
        if obs:
            for envelope in due:
                obs.emit_rpc(
                    now,
                    "receive",
                    envelope.src,
                    envelope.dst,
                    envelope.kind,
                    _request_id(envelope.payload),
                    getattr(envelope.trace, "trace_id", ""),
                )
        if prof:
            prof.end("bus.rpc")
        return due
