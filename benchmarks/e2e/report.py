"""Turning repetitions into metrics, tables and comparisons.

One benchmark run repeats a workload R times, each repetition in a fresh
child process and with the same seed, so window w — and op i — of one
repetition does exactly the work of window w and op i of every other.
The box this runs on slows by 30-70 % for seconds at a time, and the
calibration loop follows only part of that, so a run's numbers are read
from a *composite* repetition: every window costs the median of what it
cost across the repetitions, every op the median of what it took.  A
slow phase or a hiccup is voted out unless it hit the same window or op
in half the repetitions, while work the program really does there — a
GC pass, a period boundary, the growing cost of a long horizon — is in
every repetition and stays in.  Medians, not minima: a minimum falls as
repetitions are added, so a faster program (more repetitions in the same
budget) would read as faster still.
"""

from __future__ import annotations

import math
import statistics

from calibrate import Segment


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def segments_of(rep: dict) -> list[Segment]:
    """The child's windows as calibrated segments (ops attached)."""
    out = []
    for window in rep["windows"]:
        segment = Segment(window["wall_s"], window["k0"], window["k1"])
        segment.ops = window["ops"]
        out.append(segment)
    return out


def composite(reps: list[dict]) -> dict:
    """Per window and per op, the median over repetitions (module docstring)."""
    per_rep = [segments_of(rep) for rep in reps]
    n_windows = min(len(segments) for segments in per_rep)
    ref_s = 0.0
    units = 0.0
    ops_ms: list[float] = []
    for w in range(n_windows):
        ref_s += statistics.median(segments[w].ref_s for segments in per_rep)
        units += reps[0]["windows"][w]["units"]
        ops_ms.extend(
            statistics.median(same_op)
            for same_op in zip(*(segments[w].ops_ref_ms() for segments in per_rep))
        )
    ops_ms.sort()
    return {
        "ref_s": ref_s,
        "units": units,
        "ops_ms": ops_ms,
        "rep_ref_s": [sum(s.ref_s for s in segments) for segments in per_rep],
        "rep_wall_s": [sum(s.wall_s for s in segments) for segments in per_rep],
        "calibration_s": statistics.median(
            k for rep in reps for w in rep["windows"] for k in (w["k0"], w["k1"])
        ),
    }


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(metric values, context) of one run from its repetitions."""
    comp = composite(reps)
    values = {
        "setup_s": statistics.median(setups),
        "host_ms_per_unit": comp["ref_s"] * 1e3 / comp["units"],
        "op_p50_ms": percentile(comp["ops_ms"], 0.50),
        "op_p99_ms": percentile(comp["ops_ms"], 0.99),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "delivered_qos": reps[0]["delivered_qos"],
    }
    context = {
        "reps": len(reps),
        "ops": len(comp["ops_ms"]),
        "units": comp["units"],
        "setups": len(setups),
        "setup_s_min": min(setups),
        "setup_s_max": max(setups),
        "rep_ref_s": comp["rep_ref_s"],
        "rep_wall_s": comp["rep_wall_s"],
        "composite_ref_s": comp["ref_s"],
        "calibration_s": comp["calibration_s"],
    }
    return values, context


def check_reps(reps: list[dict]) -> list[str]:
    """Cross-repetition checks: same seed must mean same simulation."""
    problems: list[str] = []
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=1):
        for key in ("sim_digest", "delivered_qos", "counts"):
            if rep[key] != first[key]:
                problems.append(
                    f"repetition {index} disagrees with repetition 0 on {key}: "
                    f"{rep[key]!r} != {first[key]!r}"
                )
    return problems


# -- tables ----------------------------------------------------------------------

def format_run(doc: dict, spec: dict) -> str:
    """The human-readable block for one workload's run."""
    lines = [
        f"== {doc['workload']}  seed {doc['seed']}  scale {doc['scale']:g}  "
        f"{'traced' if doc['traced'] else 'untraced'}",
        f"   unit of work: {doc['unit']};  op: {doc['op']}",
    ]
    context = doc["context"]
    if not doc["traced"]:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in doc["metrics"].items():
            lines.append(f"   {name:<22} {value:>14.6f} {units[name]}")
        rep_ref = context["rep_ref_s"]
        lines.append(
            f"   context: {context['reps']} repetitions, whole-repetition ref-s "
            f"min {min(rep_ref):.3f} / median {statistics.median(rep_ref):.3f} / "
            f"max {max(rep_ref):.3f} (wall-s median "
            f"{statistics.median(context['rep_wall_s']):.3f}); "
            f"composite {context['composite_ref_s']:.3f} ref-s; "
            f"calibration_s {context['calibration_s']:.5f}; "
            f"{context['ops']} ops over {context['units']:g} units; "
            f"setup_s min {context['setup_s_min']:.3f} / max "
            f"{context['setup_s_max']:.3f} (n={context['setups']})"
        )
        for key, value in sorted(doc.get("extra", {}).items()):
            lines.append(f"   context: {key} = {value:.6f}")
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in doc["metrics"].items():
            lines.append(f"   {name:<40} {value:>16.4f} {units[name]}")
        lines.append(
            f"   context: {context['reps']} traced repetitions; self times sum to "
            f"{context['self_over_root']:.4f} of the root spans"
        )
    lines.append(
        f"   ops_attempted {doc['attempted']}  ops_failed {doc['failed']}  "
        f"correct {doc['correct']}  sim_digest {doc['sim_digest'][:16]}"
    )
    for failure in doc["failures"][:10]:
        lines.append(f"   FAILED: {failure}")
    return "\n".join(lines)


def _side(values: list[float]) -> str:
    return (
        f"{statistics.median(values):.5g} [{min(values):.5g}, {max(values):.5g}] "
        f"n={len(values)}"
    )


def compare(a_docs: list[dict], b_docs: list[dict], spec: dict) -> tuple[str, bool]:
    """The A-versus-B table; returns (text, no metric is worse)."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows = [
        "| workload | metric | A median [min, max] | B median [min, max] | "
        "B/A | bound | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    all_ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a_runs = [d for d in a_docs if d["workload"] == workload and not d["traced"]]
        b_runs = [d for d in b_docs if d["workload"] == workload and not d["traced"]]
        if not a_runs or not b_runs:
            continue
        a_digests = {(d["seed"], d["sim_digest"]) for d in a_runs}
        b_digests = {(d["seed"], d["sim_digest"]) for d in b_runs}
        shared_seeds = {s for s, _ in a_digests} & {s for s, _ in b_digests}
        same = all(
            {d for s, d in a_digests if s == seed} == {d for s, d in b_digests if s == seed}
            for seed in shared_seeds
        )
        for name, metric in metrics.items():
            a = [d["metrics"][name] for d in a_runs]
            b = [d["metrics"][name] for d in b_runs]
            verdict = _verdict(a, b, metric)
            all_ok = all_ok and verdict != "worse"
            ratio = statistics.median(b) / statistics.median(a)
            rows.append(
                f"| {workload} | {name} ({metric['unit']}, {metric['better']} is better) "
                f"| {_side(a)} | {_side(b)} | {ratio:.4f} of A | "
                f"{metric['bound']:.2f} | {verdict} |"
            )
        if shared_seeds:
            rows.append(
                f"| {workload} | sim_digest | | | | exact | "
                f"{'same' if same else 'DIFFERENT: simulated behaviour changed'} |"
            )
    return "\n".join(rows), all_ok


def _verdict(a: list[float], b: list[float], metric: dict) -> str:
    """ok / worse / unresolved, by the rule of the choosing-metrics guide."""
    lower = metric["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    b_all_better = max(b) < min(a) if lower else min(b) > max(a)
    b_all_worse = min(b) > max(a) if lower else max(b) < min(a)
    interleave = not (b_all_better or b_all_worse)
    if max(spread(a), spread(b)) > metric["bound"] and interleave:
        return "unresolved"
    return "worse" if worsening > metric["bound"] else "ok"
