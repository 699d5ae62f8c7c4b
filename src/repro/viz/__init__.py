"""Text rendering of schedules and tables (Figures 3-5, Tables 1-6)."""

from repro.viz.gantt import render_gantt
from repro.viz.tables import format_table

__all__ = ["format_table", "render_gantt"]
