"""Canonical JSONL encoding: one sorted-key object per line, stable bytes."""

import json

from repro.obs.events import EVENT_TYPES, AdmissionEvent, RpcEvent, SwitchEvent
from repro.obs.log import (
    SCHEMA_VERSION,
    event_to_dict,
    event_to_json,
    events_to_jsonl,
)


class TestEncoding:
    def test_event_dict_carries_the_wire_type_tag(self):
        payload = event_to_dict(AdmissionEvent(time=27, task="stb", outcome="denied"))
        assert payload["type"] == "admission"
        assert payload["task"] == "stb"
        assert payload["time"] == 27

    def test_json_is_canonical(self):
        text = event_to_json(SwitchEvent(time=1, from_thread=2, to_thread=3))
        # Compact separators, sorted keys — byte-stable across runs.
        assert " " not in text
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_jsonl_round_trips_through_the_type_table(self):
        events = [
            AdmissionEvent(time=1, task="a"),
            RpcEvent(time=2, action="send", src="broker", dst="node00"),
        ]
        lines = events_to_jsonl(events).splitlines()
        assert len(lines) == 2
        for line, original in zip(lines, events):
            decoded = json.loads(line)
            assert decoded.pop("schema_version") == SCHEMA_VERSION
            cls = EVENT_TYPES[decoded.pop("type")]
            assert cls(**decoded) == original

    def test_jsonl_ends_each_line_with_newline_only(self):
        text = events_to_jsonl([SwitchEvent(time=0)])
        assert text.endswith("\n")
        assert "\r" not in text

