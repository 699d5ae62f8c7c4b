#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--runs R] [--trace [0|1]] [--scale X]
                                  [--json PATH] [--out DIR]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in fresh child processes, is repeated until
``--seconds`` are used (or exactly ``--runs`` times), prints every
metric by name with its unit, checks the program's outputs, and exits
non-zero on a failed check.  With ``--workload`` the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
without ``--trace``, its per-layer metrics with it.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Repetitions a run makes at least: three, so that every run checks
#: "same seed, same simulation" and its medians can vote an outlier out.
MIN_REPS = 3
#: Set-ups a run times at least; repetitions count, probes fill the rest.
SETUP_SAMPLES = 7
#: The traced run uses a quarter of the horizon.
TRACE_SCALE = 0.25
CHILD_TIMEOUT_S = 120.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- the child: one repetition ---------------------------------------------------

def child_main(args) -> int:
    """Build, run every window under the timing rule, check, report."""
    sys.path.insert(0, SRC)
    from calibrate import RefTimer, ref_seconds
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from trace import Tracer, install

        tracer = Tracer()
        if args.workload != "serve_closed":  # there the server is traced
            install(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.scale, tracer)
    try:
        workload.build()
        setup_wall_s = time.time() - args.t0
        # Set-up is bracketed on one side only: the sample taken right
        # after it, which is also the first window's opening sample.
        timer = RefTimer()
        k = timer.calibrate()
        setup_s = ref_seconds(setup_wall_s, k, k)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        windows = []
        for index in range(workload.n_windows):
            ops: list[float] = []
            body = lambda: workload.run_window(index, ops)  # noqa: E731
            if tracer is not None:
                with tracer.span("harness:segment", op=f"window-{index}"):
                    segment = timer.timed(body)
            else:
                segment = timer.timed(body)
            timer.calibrate()
            windows.append(
                {"wall_s": segment.wall_s, "k0": segment.k0, "k1": segment.k1,
                 "units": segment.value, "ops": ops}
            )
        result = workload.finish()
    finally:
        workload.close()
    result.update(
        {
            "setup_s": setup_s,
            "windows": windows,
            "failures": workload.failures,
            "unit": workload.unit,
            "op": workload.op,
            "peak_rss_mb": workload.peak_rss_mb(),
            "extra": workload.context(timer.segments),
        }
    )
    if tracer is not None:
        to_ref_ms = 1e3 * timer.total_ref_s() / timer.total_wall_s()
        traced = workload.traced(to_ref_ms)
        export = traced.pop("export")
        result.update(traced)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"trace-{args.workload}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(export, handle)
    print(json.dumps(result))
    return 0


# -- the parent: repetitions, composite, report ---------------------------------

def spawn(args, workload: str, scale: float, traced: bool, setup_only: bool = False):
    """One child; returns (result dict or None, error text)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed), "--scale", repr(scale),
        "--trace", "1" if traced else "0", "--t0", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.out and traced:
        command += ["--out", args.out]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"child exceeded {CHILD_TIMEOUT_S:.0f} s and was killed"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-12:])
        return None, f"child exited {done.returncode}:\n{tail}"
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, f"child printed no JSON result: {lines[-1][:200]!r}"


def repeat(args, workload: str, scales_traced: list[tuple[float, bool]]):
    """Run rounds of children until the budget is used.

    A round is one child per ``(scale, traced)`` entry.  Returns one
    result list per entry, plus the errors of children that died.
    """
    results: list[list[dict]] = [[] for _ in scales_traced]
    errors: list[str] = []
    started = time.monotonic()
    rounds = 0
    while True:
        round_started = time.monotonic()
        for slot, (scale, traced) in enumerate(scales_traced):
            result, error = spawn(args, workload, scale, traced)
            if result is None:
                errors.append(error)
            else:
                results[slot].append(result)
        rounds += 1
        if errors:
            break  # a child that dies will die again; do not burn the budget
        now = time.monotonic()
        if args.runs:
            if rounds >= args.runs:
                break
        elif rounds >= MIN_REPS and (now - started) + (now - round_started) > args.seconds:
            break
    return results, errors


def run_untraced(args, workload: str, spec: dict) -> dict | None:
    from report import check_reps, end_to_end

    (reps,), errors = repeat(args, workload, [(args.scale, False)])
    if not reps:
        print(f"{workload}: no repetition finished\n" + "\n".join(errors), file=sys.stderr)
        return None
    setups = [rep["setup_s"] for rep in reps]
    # --runs asks for exactly that many children; a timed run adds probes.
    while len(setups) < SETUP_SAMPLES and not errors and not args.runs:
        probe, error = spawn(args, workload, args.scale, False, setup_only=True)
        if probe is None:
            errors.append(error)
            break
        setups.append(probe["setup_s"])
    values, context = end_to_end(reps, setups)
    names = [m["name"] for m in spec["end_to_end"]]
    return _document(
        args, workload, reps, errors + check_reps(reps),
        metrics={name: values[name] for name in names},
        context=context, traced=False,
    )


def run_traced(args, workload: str, spec: dict) -> dict | None:
    from report import check_reps, composite

    scale = args.scale * TRACE_SCALE
    (plain, traced), errors = repeat(args, workload, [(scale, False), (scale, True)])
    if not plain or not traced:
        print(f"{workload}: no traced pair finished\n" + "\n".join(errors), file=sys.stderr)
        return None
    layers = {
        name: statistics.median(rep["layers"].get(name, 0.0) for rep in traced)
        for name in (m["name"] for m in spec["per_layer"])
    }
    layers["trace_overhead"] = composite(traced)["ref_s"] / composite(plain)["ref_s"]
    root_s = sum(rep["trace_root_s"] for rep in traced)
    context = {
        "reps": len(traced),
        "self_over_root": sum(rep["trace_self_s"] for rep in traced) / root_s
        if root_s else 0.0,
    }
    # Tracing must not change what is simulated: all reps share a digest.
    return _document(
        args, workload, traced, errors + check_reps(plain + traced),
        metrics=layers, context=context, traced=True,
    )


def _document(args, workload, reps, problems, metrics, context, traced) -> dict:
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps) + len(problems)
    failures = list(problems)
    for rep in reps:
        failures.extend(rep["failures"])
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": traced,
        "unit": reps[0]["unit"],
        "op": reps[0]["op"],
        "metrics": metrics,
        "context": context,
        "extra": {
            key: statistics.median(rep["extra"][key] for rep in reps)
            for key in reps[0]["extra"]
        },
        "attempted": max(1, attempted),
        "failed": min(failed, max(1, attempted)),
        "correct": failed == 0,
        "failures": failures,
        "sim_digest": reps[0]["sim_digest"],
        "counts": reps[0]["counts"],
    }


def contract_line(doc: dict, spec: dict) -> str:
    """The driver's result object: exactly four keys."""
    section = spec["per_layer"] if doc["traced"] else spec["end_to_end"]
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                m["name"]: {"value": doc["metrics"][m["name"]], "unit": m["unit"]}
                for m in section
            },
        }
    )


def append_json(path: str, docs: list[dict]) -> None:
    existing: list[dict] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing + docs, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="time budget per workload")
    parser.add_argument("--runs", type=int, help="exactly this many repetitions")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the per-layer traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the full horizon (tests use 0.02)")
    parser.add_argument("--json", metavar="PATH",
                        help="append this run's documents to PATH (for --compare)")
    parser.add_argument("--out", metavar="DIR", help="write trace-<workload>.json here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        from report import compare

        with open(args.compare[0], encoding="utf-8") as a, \
                open(args.compare[1], encoding="utf-8") as b:
            table, ok = compare(json.load(a), json.load(b), spec)
        print(table)
        return 0 if ok else 1

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.child:
        return child_main(args)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    from report import format_run

    docs = []
    for workload in [args.workload] if args.workload else names:
        run = run_traced if args.trace else run_untraced
        doc = run(args, workload, spec)
        if doc is None:
            return 1
        docs.append(doc)
        print(format_run(doc, spec), flush=True)
    if args.json:
        append_json(args.json, docs)
    if args.workload:
        print(contract_line(docs[0], spec))
    return 0 if all(doc["correct"] for doc in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
