"""Gantt and table rendering."""

import pytest

from repro import units
from repro.sim.trace import SegmentKind, TraceRecorder
from repro.viz import format_table, render_gantt


@pytest.fixture
def trace():
    t = TraceRecorder()
    half = units.ms_to_ticks(5)
    t.record_run(1, 0, half, SegmentKind.GRANTED, 0)
    t.record_run(2, half, 2 * half, SegmentKind.OVERTIME, 0)
    return t


class TestGantt:
    def test_rows_for_each_thread(self, trace):
        out = render_gantt(trace, {1: "a", 2: "b"}, 0, units.ms_to_ticks(10), width=20)
        lines = out.splitlines()
        assert "a (1)" in lines[0]
        assert "b (2)" in lines[1]

    def test_glyphs_match_kinds(self, trace):
        out = render_gantt(
            trace, {1: "a", 2: "b"}, 0, units.ms_to_ticks(10), width=20, show_axis=False
        )
        row_a, row_b = out.splitlines()
        assert "#" in row_a and "-" not in row_a
        assert "-" in row_b and "#" not in row_b

    def test_first_half_vs_second_half(self, trace):
        out = render_gantt(
            trace, {1: "a", 2: "b"}, 0, units.ms_to_ticks(10), width=20, show_axis=False
        )
        row_a = out.splitlines()[0].split("|")[1]
        assert row_a[:10].strip("#") == ""
        assert row_a[10:].strip() == ""

    def test_axis_shows_ms(self, trace):
        out = render_gantt(trace, {1: "a"}, 0, units.ms_to_ticks(10), width=20)
        assert "10.0 ms" in out
        assert "legend" in out

    def test_empty_window_rejected(self, trace):
        with pytest.raises(ValueError):
            render_gantt(trace, {1: "a"}, 100, 100)

    def test_threads_outside_names_excluded(self, trace):
        out = render_gantt(
            trace, {1: "a"}, 0, units.ms_to_ticks(10), width=20, show_axis=False
        )
        assert len(out.splitlines()) == 1


class TestTables:
    def test_headers_and_alignment(self):
        out = format_table(["Task", "Rate"], [["MPEG", "33%"], ["Modem", "10%"]])
        lines = out.splitlines()
        assert lines[0].startswith("Task")
        assert lines[2].startswith("MPEG")
        assert lines[3].endswith("10%")

    def test_title(self):
        out = format_table(["A"], [[1]], title="Table 4")
        assert out.splitlines()[0] == "Table 4"

    def test_empty_rows(self):
        out = format_table(["A", "B"], [])
        assert "A" in out
