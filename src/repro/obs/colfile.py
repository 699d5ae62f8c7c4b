"""Columnar event artifact: ``events.col.json`` <-> typed events.

The row wire format (``events.jsonl``, one JSON object per line)
repeats every field name on every record; at cluster scale that is most
of the file.  This module defines the *columnar* artifact the event
pipeline writes instead: one parallel list per field per event kind
(struct-of-arrays), plus a global ``order`` array interleaving the
kinds back into emission order.  The two formats are informationally
identical — :func:`decode_columnar` followed by
:func:`repro.obs.log.events_to_jsonl` reproduces ``events.jsonl`` *byte
for byte* (the CI pipeline gate and a hypothesis property both hold
this line) — so every existing analysis / SLO / report path keeps
working against either artifact.

The format is schema-versioned twice over: ``version`` is the columnar
container's own layout version, and ``events_schema_version`` records
the :data:`repro.obs.log.SCHEMA_VERSION` the rows decode into, so a
reader can refuse files from a future writer instead of guessing.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.obs.events import EVENT_TYPES, ObsEvent
from repro.obs.log import SCHEMA_VERSION

#: The columnar container's own layout version (independent of the
#: event schema the rows carry).
COLUMNAR_VERSION = 1

#: The ``format`` tag every events.col.json declares.
COLUMNAR_FORMAT = "repro-obs-columnar"

#: Stable per-class field order (declaration order), the column order
#: of every kind's struct-of-arrays block.
FIELD_PLANS: dict[str, tuple[str, ...]] = {
    tag: tuple(f.name for f in dataclasses.fields(cls))
    for tag, cls in EVENT_TYPES.items()
}


class ColumnarFormatError(SimulationError):
    """The file is not a columnar artifact this reader understands."""


def encode_columnar(
    events: Iterable[ObsEvent], loss: dict | None = None
) -> dict:
    """Events (in emission order) -> the columnar payload dict.

    ``loss`` optionally embeds the shipping tier's per-kind loss
    accounting (see :mod:`repro.obs.pipeline.aggregate`) so a delivered
    artifact says out loud what it is missing.
    """
    kinds: dict[str, dict[str, list]] = {}
    order: list[str] = []
    for event in events:
        tag = event.type
        columns = kinds.get(tag)
        if columns is None:
            columns = kinds[tag] = {name: [] for name in FIELD_PLANS[tag]}
        for name in FIELD_PLANS[tag]:
            columns[name].append(getattr(event, name))
        order.append(tag)
    return columnar_payload(kinds, order, loss=loss)


def columnar_payload(
    kinds: dict[str, dict[str, list]],
    order: Sequence[str],
    loss: dict | None = None,
) -> dict:
    """Assemble the artifact dict from already-columnar data.

    ``kinds`` maps event tag -> {field name -> column list}; ``order``
    is the global interleave (one tag per event, emission order).  The
    arena hands its columns here directly, so writing the artifact
    never materializes an event object.
    """
    payload = {
        "format": COLUMNAR_FORMAT,
        "version": COLUMNAR_VERSION,
        "events_schema_version": SCHEMA_VERSION,
        "count": len(order),
        "order": list(order),
        "kinds": {
            tag: {
                "count": len(next(iter(columns.values()), [])),
                "fields": list(FIELD_PLANS[tag]),
                "columns": {name: list(columns[name]) for name in FIELD_PLANS[tag]},
            }
            for tag, columns in sorted(kinds.items())
        },
    }
    if loss is not None:
        payload["loss"] = loss
    return payload


def decode_columnar(payload: dict, *, where: str = "events.col.json") -> list[ObsEvent]:
    """The columnar payload -> typed events in original emission order."""
    if payload.get("format") != COLUMNAR_FORMAT:
        raise ColumnarFormatError(
            f"{where}: not a {COLUMNAR_FORMAT!r} artifact "
            f"(format={payload.get('format')!r})"
        )
    version = payload.get("version")
    if version != COLUMNAR_VERSION:
        raise ColumnarFormatError(
            f"{where}: columnar version {version!r} is not supported "
            f"(this reader understands version {COLUMNAR_VERSION}); the "
            f"file was written by a newer repro"
        )
    cursors: dict[str, int] = {}
    rows: dict[str, tuple[type[ObsEvent], tuple[str, ...], dict[str, list]]] = {}
    for tag, block in payload.get("kinds", {}).items():
        cls = EVENT_TYPES.get(tag)
        if cls is None:
            raise ColumnarFormatError(
                f"{where}: unknown event type {tag!r} "
                f"(known: {', '.join(sorted(EVENT_TYPES))})"
            )
        fields = tuple(block["fields"])
        if fields != FIELD_PLANS[tag]:
            raise ColumnarFormatError(
                f"{where}: field plan for {tag!r} is {list(fields)}, "
                f"expected {list(FIELD_PLANS[tag])} — the file was written "
                f"by a different event schema"
            )
        columns = block["columns"]
        lengths = {len(columns[name]) for name in fields}
        if len(lengths) > 1:
            raise ColumnarFormatError(
                f"{where}: ragged columns for {tag!r} (lengths {sorted(lengths)})"
            )
        rows[tag] = (cls, fields, columns)
        cursors[tag] = 0
    events: list[ObsEvent] = []
    for tag in payload.get("order", ()):
        entry = rows.get(tag)
        if entry is None:
            raise ColumnarFormatError(
                f"{where}: order references kind {tag!r} with no column block"
            )
        cls, fields, columns = entry
        row = cursors[tag]
        try:
            values = {name: columns[name][row] for name in fields}
        except IndexError:
            raise ColumnarFormatError(
                f"{where}: order references row {row} of {tag!r} but only "
                f"{len(columns[fields[0]])} rows exist"
            ) from None
        cursors[tag] = row + 1
        events.append(cls(**values))
    for tag, cursor in sorted(cursors.items()):
        total = len(rows[tag][2][rows[tag][1][0]]) if rows[tag][1] else 0
        if cursor != total:
            raise ColumnarFormatError(
                f"{where}: {total - cursor} row(s) of {tag!r} are not "
                f"referenced by the order array"
            )
    return events


def columnar_to_json(payload: dict) -> str:
    """Canonical JSON text (sorted keys, compact separators, one trailing
    newline) — two same-seed runs write byte-identical artifacts."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_columnar(path: str | Path, payload: dict) -> Path:
    target = Path(path)
    target.write_text(columnar_to_json(payload), encoding="utf-8")
    return target


def read_columnar(path: str | Path) -> dict:
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ColumnarFormatError(f"{target}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ColumnarFormatError(f"{target}: expected a JSON object")
    return payload


def load_columnar(path: str | Path) -> list[ObsEvent]:
    """Read an ``events.col.json`` file back into typed events."""
    target = Path(path)
    return decode_columnar(read_columnar(target), where=str(target))
