"""Render and diff captured profiles (``repro obs prof report/diff``).

Pure functions over the artifact directory written by
:class:`~repro.obs.prof.session.ProfSession`: the same input directory
renders to byte-identical markdown/JSON every time, which is what lets
CI render twice and ``diff``.

The report joins both books — deterministic counts and wall timings —
into a top-N self-time table with per-call cost and per-simulated-second
cost (self ms per second of simulated time, the number ROADMAP item 2's
"compile the hot path" work optimizes).  The diff mode attributes a
bench regression to phases: per-phase call-count and self-time deltas
between two profile directories, sorted by absolute self-time delta.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.units import TICKS_PER_SEC

from repro.obs.prof.session import COUNTS_FILE, PROF_SCHEMA_VERSION, TIMES_FILE


def load_profile(directory: str | Path) -> dict:
    """Load a profile directory into ``{"counts": ..., "times": ...}``.

    Raises ``ValueError`` on a missing artifact or an unknown schema
    version, naming the offending file.
    """
    out = Path(directory)
    profile: dict = {}
    for key, filename in (("counts", COUNTS_FILE), ("times", TIMES_FILE)):
        path = out / filename
        if not path.is_file():
            raise ValueError(f"not a profile directory: missing {path}")
        payload = json.loads(path.read_text())
        version = payload.get("schema_version")
        if version != PROF_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: schema_version {version!r} is not "
                f"{PROF_SCHEMA_VERSION} (re-capture the profile with "
                f"this version of repro)"
            )
        profile[key] = payload
    return profile


def _rows(profile: dict) -> list[dict]:
    """Per-phase rows joining counts and timings, sorted by self time
    (descending), phase name breaking ties."""
    counts = profile["counts"]["phases"]
    timings = profile["times"]["phases"]
    sim_s = profile["counts"].get("sim_ticks", 0) / TICKS_PER_SEC
    rows = []
    for phase in sorted(counts):
        timing = timings.get(phase, {})
        calls = counts[phase]
        self_ns = timing.get("self_ns", 0)
        cum_ns = timing.get("cum_ns", 0)
        rows.append(
            {
                "phase": phase,
                "calls": calls,
                "self_ms": self_ns / 1e6,
                "cum_ms": cum_ns / 1e6,
                "ns_per_call": self_ns / calls if calls else 0.0,
                "self_ms_per_sim_s": (self_ns / 1e6) / sim_s if sim_s else 0.0,
            }
        )
    rows.sort(key=lambda r: (-r["self_ms"], r["phase"]))
    return rows


def render_json(profile: dict, top: int = 0) -> str:
    """JSON report: sorted rows (optionally top-N) plus totals."""
    rows = _rows(profile)
    if top:
        rows = rows[:top]
    doc = {
        "schema_version": PROF_SCHEMA_VERSION,
        "sim_ticks": profile["counts"].get("sim_ticks", 0),
        "total_calls": sum(r["calls"] for r in rows),
        "total_self_ms": round(sum(r["self_ms"] for r in rows), 6),
        "phases": [
            {
                "phase": r["phase"],
                "calls": r["calls"],
                "self_ms": round(r["self_ms"], 6),
                "cum_ms": round(r["cum_ms"], 6),
                "ns_per_call": round(r["ns_per_call"], 1),
                "self_ms_per_sim_s": round(r["self_ms_per_sim_s"], 6),
            }
            for r in rows
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def render_markdown(profile: dict, top: int = 15) -> str:
    """Markdown report: header, top-N self-time table."""
    rows = _rows(profile)
    shown = rows[:top] if top else rows
    sim_ticks = profile["counts"].get("sim_ticks", 0)
    sim_ms = sim_ticks / TICKS_PER_SEC * 1000.0
    lines = [
        "# Profile report",
        "",
        f"- simulated time: {sim_ms:.1f} ms ({sim_ticks} ticks)",
        f"- phases: {len(rows)}, total calls: "
        f"{sum(r['calls'] for r in rows)}",
        f"- total self time: {sum(r['self_ms'] for r in rows):.3f} ms",
    ]
    lines += [
        "",
        f"## Top {len(shown)} phases by self time",
        "",
        "| phase | calls | self ms | cum ms | ns/call | self ms "
        "per sim s |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for r in shown:
        lines.append(
            f"| {r['phase']} | {r['calls']} | {r['self_ms']:.3f} "
            f"| {r['cum_ms']:.3f} | {r['ns_per_call']:.0f} "
            f"| {r['self_ms_per_sim_s']:.3f} |"
        )
    if len(rows) > len(shown):
        lines += ["", f"({len(rows) - len(shown)} more phases below the cut)"]
    return "\n".join(lines) + "\n"


def diff_profiles(a: dict, b: dict) -> dict:
    """Per-phase deltas from profile ``a`` (baseline) to ``b``.

    Count deltas are deterministic when both sides were captured at the
    same seed; self-time deltas attribute where a regression's wall
    time went.  Sorted by absolute self-time delta, largest first.
    """
    phases = sorted(set(a["counts"]["phases"]) | set(b["counts"]["phases"]))
    rows = []
    for phase in phases:
        calls_a = a["counts"]["phases"].get(phase, 0)
        calls_b = b["counts"]["phases"].get(phase, 0)
        self_a = a["times"]["phases"].get(phase, {}).get("self_ns", 0)
        self_b = b["times"]["phases"].get(phase, {}).get("self_ns", 0)
        rows.append(
            {
                "phase": phase,
                "calls_a": calls_a,
                "calls_b": calls_b,
                "calls_delta": calls_b - calls_a,
                "self_ms_a": self_a / 1e6,
                "self_ms_b": self_b / 1e6,
                "self_ms_delta": (self_b - self_a) / 1e6,
            }
        )
    rows.sort(key=lambda r: (-abs(r["self_ms_delta"]), r["phase"]))
    return {
        "phases": rows,
        "total_self_ms_delta": sum(r["self_ms_delta"] for r in rows),
    }


def render_diff_json(diff: dict) -> str:
    doc = {
        "schema_version": PROF_SCHEMA_VERSION,
        "total_self_ms_delta": round(diff["total_self_ms_delta"], 6),
        "phases": [
            {
                "phase": r["phase"],
                "calls_a": r["calls_a"],
                "calls_b": r["calls_b"],
                "calls_delta": r["calls_delta"],
                "self_ms_a": round(r["self_ms_a"], 6),
                "self_ms_b": round(r["self_ms_b"], 6),
                "self_ms_delta": round(r["self_ms_delta"], 6),
            }
            for r in diff["phases"]
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def render_diff_markdown(diff: dict) -> str:
    lines = [
        "# Profile diff (B - A)",
        "",
        f"- total self-time delta: {diff['total_self_ms_delta']:+.3f} ms",
        "",
        "| phase | calls A | calls B | Δcalls | self ms A | self ms B "
        "| Δself ms |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for r in diff["phases"]:
        lines.append(
            f"| {r['phase']} | {r['calls_a']} | {r['calls_b']} "
            f"| {r['calls_delta']:+d} | {r['self_ms_a']:.3f} "
            f"| {r['self_ms_b']:.3f} | {r['self_ms_delta']:+.3f} |"
        )
    return "\n".join(lines) + "\n"
