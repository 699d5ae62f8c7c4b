"""Smoke test of the benchmark itself: every workload at 2 % of its horizon.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1's
``testpaths``).  Checks the contract of the runner — every metric of
``BENCHMARK.json`` printed under its name with its unit, simulated
statistics that repeat for a seed and change with it, and a traced run
whose self times add up — not the numbers themselves.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> tuple[dict, str]:
    """Run the benchmark; returns (the contract object, all of stdout)."""
    done = subprocess.run(
        [sys.executable, RUN, "--scale", "0.02", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_contract(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, reading in result["metrics"].items():
        assert NAME.match(name), name
        assert UNIT.match(reading["unit"]), (name, reading["unit"])
        assert reading["unit"] == declared[name]
        assert isinstance(reading["value"], (int, float))


def test_benchmark_json_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    # 4 + 22 runs per workload, inside the driver's cap with room to spare.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_determinism(workload, tmp_path):
    out = tmp_path / "runs.json"
    for seed in ("1", "1", "2"):
        result, stdout = run(
            "--workload", workload, "--seed", seed, "--runs", "2", "--json", str(out)
        )
        check_contract(result, "end_to_end")
        assert all(reading["value"] > 0 for reading in result["metrics"].values())
        for metric in SPEC["end_to_end"]:  # printed by name, with its unit
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                stdout, re.M,
            ), metric["name"]
    first, again, other = json.loads(out.read_text())
    assert first["sim_digest"] == again["sim_digest"]
    assert first["counts"] == again["counts"]
    assert first["metrics"]["delivered_qos"] == again["metrics"]["delivered_qos"]
    assert other["sim_digest"] != first["sim_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_self_times_add_up(workload, tmp_path):
    out = tmp_path / "runs.json"
    result, _ = run(
        "--workload", workload, "--seed", "1", "--runs", "1", "--trace", "1",
        "--scale", "0.08", "--json", str(out), "--out", str(tmp_path),
    )
    check_contract(result, "per_layer")
    (doc,) = json.loads(out.read_text())
    assert abs(doc["context"]["self_over_root"] - 1.0) <= 0.05
    assert result["metrics"]["trace_overhead"]["value"] > 0
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    spans = trace["server"]["spans"] if workload == "serve_closed" else trace["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_compare_prints_a_verdict_per_metric(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run("--workload", "av_single", "--runs", "1", "--json", str(path))
    done = subprocess.run(
        [sys.executable, RUN, "--compare", str(a), str(b)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    rows = [line for line in done.stdout.splitlines() if line.startswith("| av_single")]
    assert len(rows) == len(SPEC["end_to_end"]) + 1  # + the sim_digest row
    assert all(re.search(r"\| (ok|worse|unresolved|same) \|$", row) for row in rows)


def test_a_tree_without_the_program_is_refused(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            (bare / "benchmarks" / "e2e" / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read()
            )
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "av_single",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
