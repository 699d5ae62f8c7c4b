"""Decode ``events.jsonl`` back into typed events, schema-checked.

The writer (:mod:`repro.obs.log`) stamps every record with a
``schema_version``; this loader is the only component that interprets
it.  Records from version 1 (PR 3's versionless format) are accepted —
a missing field *is* version 1 — because every field added since has a
default, so old records decode into current event classes unchanged.
Records from a *future* version are rejected loudly: silently guessing
at fields whose meaning may have changed is how analysis results go
quietly wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SimulationError
from repro.obs.events import EVENT_TYPES, ObsEvent

#: Versions this loader knows how to interpret.  Version 1 is the
#: original versionless wire format; see ``repro.obs.log.SCHEMA_VERSION``
#: for the history.
KNOWN_SCHEMA_VERSIONS = frozenset({1, 2})


class SchemaVersionError(SimulationError):
    """The record declares a schema version this loader does not know."""


def decode_record(payload: dict, *, where: str = "record") -> ObsEvent:
    """One JSON object -> the typed event it encodes.

    ``where`` names the record in error messages ("events.jsonl line 7").
    The payload is not mutated.
    """
    data = dict(payload)
    version = data.pop("schema_version", 1)
    if version not in KNOWN_SCHEMA_VERSIONS:
        known = ", ".join(str(v) for v in sorted(KNOWN_SCHEMA_VERSIONS))
        raise SchemaVersionError(
            f"{where}: schema_version {version!r} is not supported "
            f"(this reader understands versions {known}); the file was "
            f"written by a newer repro — re-run the analysis with a "
            f"matching version"
        )
    tag = data.pop("type", None)
    if tag is None:
        raise SimulationError(f"{where}: record has no 'type' tag")
    cls = EVENT_TYPES.get(tag)
    if cls is None:
        raise SimulationError(
            f"{where}: unknown event type {tag!r} "
            f"(known: {', '.join(sorted(EVENT_TYPES))})"
        )
    try:
        return cls(**data)
    except TypeError as exc:
        raise SimulationError(f"{where}: malformed {tag!r} record: {exc}") from None


def load_events_text(text: str, *, source: str = "events.jsonl") -> list[ObsEvent]:
    """Parse a whole JSONL document into events, with line-numbered errors."""
    events: list[ObsEvent] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{source} line {line_no}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SimulationError(f"{where}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SimulationError(f"{where}: expected a JSON object")
        events.append(decode_record(payload, where=where))
    return events


def load_events(path: str | Path) -> list[ObsEvent]:
    """Load an event log: an ``events.jsonl`` file, or the directory
    ``--obs-out`` wrote it into."""
    target = Path(path)
    if target.is_dir():
        target = target / "events.jsonl"
    if not target.is_file():
        raise SimulationError(
            f"no event log at {target} (expected an events.jsonl written "
            f"by --obs-out)"
        )
    return load_events_text(
        target.read_text(encoding="utf-8"), source=str(target)
    )
