"""Deterministic structured logging: events -> JSON lines.

One event per line, keys sorted, no floats formatted with locale or
platform variance — ``json.dumps`` with ``sort_keys=True`` over plain
dataclass fields.  Two runs with the same seed therefore produce
byte-identical ``events.jsonl`` files, which the CI determinism gate
diffs directly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable

from repro.obs.events import ObsEvent

#: Wire-format version stamped on every events.jsonl record.  Bump it
#: whenever a record's meaning changes in a way old readers would
#: misinterpret; the analysis loader rejects versions it does not know.
#: History: 1 = PR 3 (no version field), 2 = adds the field itself plus
#: the period-close ``start``/``completion`` ticks and ``slo-alert``.
SCHEMA_VERSION = 2


def event_to_dict(event: ObsEvent) -> dict:
    """Plain-data view of an event, with its wire ``type`` tag."""
    payload = dataclasses.asdict(event)
    payload["type"] = event.type
    payload["schema_version"] = SCHEMA_VERSION
    return payload


def event_to_json(event: ObsEvent) -> str:
    return json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))


def events_to_jsonl(events: Iterable[ObsEvent]) -> str:
    """The whole stream as JSONL (one canonical JSON object per line)."""
    lines = [event_to_json(event) for event in events]
    return "".join(line + "\n" for line in lines)

