"""Command-line interface: regenerate the paper's artifacts.

::

    python -m repro tables              # Tables 2, 3, 4, 5, 6
    python -m repro figure3             # EDF schedule of the Table 4 set
    python -m repro figure4             # producers + spinning data threads
    python -m repro figure5             # staggered-admission staircase
    python -m repro faceoff             # RD vs the baseline schedulers
    python -m repro settop              # the section 5.3 scenario
    python -m repro cluster --nodes 4   # multi-node rack behind a broker
    python -m repro run --scenario settop --obs-out out/  # observed run
    python -m repro obs                 # describe the telemetry surface
    python -m repro obs report out/     # analytics report over an obs dir
    python -m repro obs check out/ --slo slo.toml  # SLO gate (exit 1 on violation)
    python -m repro run --scenario cluster_rack --profile prof/  # profiled run
    python -m repro obs prof report prof/   # phase-cost report over a profile
    python -m repro obs prof diff a/ b/     # attribute a regression to phases
    python -m repro fuzz --budget 200 --seed 9      # seeded scenario fuzzing
    python -m repro fuzz replay tests/fuzz/corpus   # replay a trace corpus
    python -m repro fuzz sweep --out curve.json     # admission-threshold curve
    python -m repro serve --port 8642   # live HTTP control plane over a rack
    python -m repro loadgen --clients 100 --duration 5  # drive a live service

Every command is deterministic for a given ``--seed``.  A subcommand
declares exactly the flags its handler reads, so ``repro <cmd> --help``
is the whole truth and an unread flag is a usage error, not a no-op.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro import scenarios, units
from repro.config import SimConfig
from repro.core.distributor import ResourceDistributor
from repro.tasks.busyloop import busyloop_resource_list
from repro.tasks.mpeg import MpegDecoder
from repro.viz import format_table, render_gantt
from repro.workloads import random_task_set


def _ms(x: float) -> int:
    return units.ms_to_ticks(x)


# -- commands ---------------------------------------------------------------


def cmd_tables(args) -> int:
    from repro.tasks.graphics3d import Renderer3D

    print("Table 2 — MPEG resource list")
    print(MpegDecoder().resource_list().describe())
    print("\nTable 3 — 3D graphics resource list")
    print(Renderer3D().resource_list().describe())

    print("\nTable 4 — grant set for Modem / 3D / MPEG")
    print(scenarios.table4_trio(seed=args.seed).rd.current_grant_set.describe())

    print("\nTable 5 — example Policy Box")
    print(scenarios.table5_policy_box().describe())

    print("\nTable 6 — BusyLoop resource list")
    print(busyloop_resource_list().describe())
    return 0


def cmd_figure3(args) -> int:
    scenario = scenarios.table4_trio(seed=args.seed).run_for(_ms(args.duration_ms))
    print("Figure 3 — EDF schedule for the Table 4 grant set")
    print(
        render_gantt(
            scenario.trace,
            scenario.names(),
            0,
            min(_ms(60), _ms(args.duration_ms)),
            width=args.width,
        )
    )
    print(f"\ndeadline misses: {len(scenario.trace.misses())}")
    return 0


def cmd_figure4(args) -> int:
    scenario = scenarios.figure4(seed=args.seed)
    scenario.run_for(_ms(max(args.duration_ms, 400)))
    one_third = units.sec_to_ticks(1 / 3)
    names = scenario.names()
    names[scenario.threads["SporadicServer"].tid] = "SS"
    print("Figure 4 — schedule one third of a second into the run")
    print(
        render_gantt(
            scenario.trace, names, one_third, one_third + 2 * 900_000, width=args.width
        )
    )
    spin_ticks = scenario.extras["workload"].stats.spin_ticks
    print(f"\nspin time burned by the buggy data threads: "
          f"{units.ticks_to_ms(spin_ticks):.1f} ms")
    print(f"deadline misses: {len(scenario.trace.misses())}")
    return 0


def cmd_figure5(args) -> int:
    from repro.metrics import allocation_series

    scenario = scenarios.figure5(seed=args.seed)
    scenario.run_for(_ms(max(args.duration_ms, 150)))
    print("Figure 5 — thread 2's per-period allocation (ms)")
    for start, ticks in allocation_series(
        scenario.trace, scenario.threads["thread2"].tid
    ):
        bar = "#" * round(units.ticks_to_ms(ticks))
        print(f"  t={units.ticks_to_ms(start):6.0f}  {units.ticks_to_ms(ticks):4.1f}  {bar}")
    print(f"\ndeadline misses: {len(scenario.trace.misses())}")
    return 0


def cmd_faceoff(args) -> int:
    results = scenarios.faceoff(args.seed, _ms(max(args.duration_ms, 300)))
    rows = [
        [name, admitted, f"{misses:.0%}", f"{useful:.0%}"]
        for name, (admitted, misses, useful) in results.items()
    ]
    print("Offered load: 3 tasks x 50% @ 10 ms (150% of the machine)\n")
    print(format_table(["scheduler", "admitted", "miss rate", "useful CPU"], rows))
    return 0


def cmd_settop(args) -> int:
    scenario = scenarios.settop(seed=args.seed).run_for(units.sec_to_ticks(1))
    print("Section 5.3 scenario — after the phone call:")
    print(scenario.rd.current_grant_set.describe())
    print(f"\nI frames lost: {scenario.extras['mpeg'].stats.i_frames_lost}")
    print(f"deadline misses: {len(scenario.trace.misses())}")
    return 0


def _unknown_scenario(name: str) -> int:
    print(f"unknown scenario {name!r}; pick one of "
          f"{', '.join(sorted(scenarios.SCENARIOS))}")
    return 2


def cmd_report(args) -> int:
    """Run a named scenario and print the operator report."""
    from repro.metrics import run_report

    if args.scenario not in scenarios.SCENARIOS:
        return _unknown_scenario(args.scenario)
    scenario = scenarios.SCENARIOS[args.scenario](seed=args.seed)
    scenario.run_for(_ms(max(args.duration_ms, 200)))
    print(run_report(scenario.rd, scenario.names()))
    return 0


def cmd_export(args) -> int:
    """Run a seeded random workload and dump the trace (CSV or JSON)."""
    from repro.metrics import deadlines_to_csv, segments_to_csv, trace_to_json

    rng = random.Random(args.seed)
    rd = ResourceDistributor(sim=SimConfig(seed=args.seed), sanitize=args.sanitize)
    for definition in random_task_set(rng, count=4, capacity=0.9):
        rd.admit(definition)
    rd.run_for(_ms(max(args.duration_ms, 100)))
    if args.format == "json":
        print(trace_to_json(rd.trace))
    elif args.format == "deadlines":
        print(deadlines_to_csv(rd.trace), end="")
    else:
        print(segments_to_csv(rd.trace), end="")
    return 0


def cmd_cluster(args) -> int:
    """Run the multi-node set-top-box rack behind the cluster broker."""
    from repro.cluster import cluster_metrics_json, cluster_report
    from repro.scenarios import cluster_rack

    session = None
    if args.obs_out:
        from repro.obs import ObsSession

        session = ObsSession()
    if args.telemetry and session is None:
        print("--telemetry needs --obs-out (snapshots come from its registry)")
        return 2
    sim = cluster_rack(
        seed=args.seed,
        nodes=args.nodes,
        policy=args.policy,
        drop_rate=args.drop_rate,
        latency_us=args.latency_us,
        horizon_sec=max(args.duration_ms, 200.0) / 1000.0,
        migrate=not args.no_migrate,
        sanitize=True,
        obs=session,
        telemetry=args.telemetry,
        obs_pipeline=session is not None,
        max_chunk_events=args.max_chunk_events,
    )
    prof = _attach_prof(args.profile, sim)
    sim.run_until(sim.horizon)
    _write_prof(prof, args.profile, sim.now)
    if args.format == "json":
        print(cluster_metrics_json(sim), end="")
    else:
        print(cluster_report(sim), end="")
    if session is not None:
        _write_obs(session, args.obs_out, sim.now)
        print(sim.pipeline.summary())
    return 0 if sim.all_sanitizers_ok else 1


def cmd_run(args) -> int:
    """Run a named scenario with full observability instrumentation."""
    from repro.obs import ObsSession

    session = ObsSession()
    if args.scenario == "cluster_rack":
        # The cluster scenario has its own driver loop (and ships
        # per-node telemetry to the broker when observed).
        sim = scenarios.cluster_rack(
            seed=args.seed,
            horizon_sec=max(args.duration_ms, 200.0) / 1000.0,
            sanitize=True,
            obs=session,
            telemetry=True,
            obs_pipeline=bool(args.obs_out),
        )
        prof = _attach_prof(args.profile, sim)
        sim.run_until(sim.horizon)
        _write_prof(prof, args.profile, sim.now)
        print(session.summary())
        if args.obs_out:
            _write_obs(session, args.obs_out, sim.now)
            print(sim.pipeline.summary())
        return 0
    if args.scenario not in scenarios.SCENARIOS:
        return _unknown_scenario(args.scenario)
    scenario = scenarios.SCENARIOS[args.scenario](seed=args.seed, obs=session)
    rd = scenario.rd
    if args.sanitize and rd.sanitizer is None:
        rd.attach_sanitizer(strict=False)
    session.add_kernel("", rd.kernel)
    prof = _attach_prof(args.profile, rd)
    rd.run_for(_ms(max(args.duration_ms, 200)))
    _write_prof(prof, args.profile, rd.now)
    print(session.summary())
    print(f"deadline misses: {len(rd.trace.misses())}")
    if rd.sanitizer is not None:
        print(rd.sanitizer.summary())
    if args.obs_out:
        _write_obs(session, args.obs_out, rd.now)
    return 0


def _write_obs(session, directory: str, now: int) -> None:
    paths = session.write(directory, now)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")


def _attach_prof(directory: str | None, target):
    """Wire a ProfSession into ``target`` (a distributor or a cluster
    simulation) when ``--profile DIR`` was given."""
    if not directory:
        return None
    from repro.obs.prof import ProfSession

    prof = ProfSession()
    target.attach_prof(prof)
    return prof


def _write_prof(prof, directory: str | None, now: int) -> None:
    if prof is None:
        return
    out = prof.write(directory, now)
    print(f"wrote profile to {out}")


def cmd_obs_report(args) -> int:
    """Render the analytics report for an ``--obs-out`` directory."""
    from repro.obs.analysis import (
        analysis_to_json,
        analyze,
        load_events,
        load_slo_file,
        render_markdown,
    )

    events = load_events(args.dir)
    specs = load_slo_file(args.slo) if args.slo else None
    analysis = analyze(events, slo_specs=specs)
    rendered = (
        analysis_to_json(analysis)
        if args.format == "json"
        else render_markdown(analysis) + "\n"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return 0


def cmd_obs_check(args) -> int:
    """Gate on SLOs: exit 1 when any objective is violated."""
    from repro.obs.analysis import analyze, load_events, load_slo_file

    events = load_events(args.dir)
    specs = load_slo_file(args.slo)
    analysis = analyze(events, slo_specs=specs)
    violations = analysis.slo_violations
    for result in analysis.slo_results:
        status = "VIOLATED" if not result.ok else "ok"
        print(
            f"{status:8} {result.spec.name} [{result.subject}]: "
            f"{result.spec.metric} = {result.value:.4f} "
            f"(want {result.spec.op} {result.spec.threshold:g}, "
            f"burn rate {result.burn_rate:.2f})"
        )
    print(
        f"\n{len(specs)} objective(s), {len(analysis.slo_results)} "
        f"evaluation(s), {len(violations)} violation(s)"
    )
    return 1 if violations else 0


def _parse_window(text: str) -> tuple[int, int]:
    """``LO:HI`` in sim ticks; either side may be omitted."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(
            f"--window wants LO:HI in sim ticks (got {text!r}); "
            f"either side may be empty"
        )
    return (int(lo) if lo else 0, int(hi) if hi else (1 << 62))


def cmd_obs_query(args) -> int:
    """Filter a recorded event stream; print one line per match."""
    from repro.errors import SimulationError
    from repro.obs.analysis import load_events
    from repro.obs.pipeline.query import Query, format_line, select

    try:
        window = _parse_window(args.window) if args.window else None
    except ValueError as exc:
        print(exc)
        return 2
    try:
        events = load_events(args.dir)
        matched = select(
            events,
            Query(
                kinds=frozenset(args.kind) if args.kind else None,
                task=args.task,
                nodes=frozenset(args.node) if args.node else None,
                window=window,
            ),
        )
    except SimulationError as exc:
        print(exc)
        return 2
    if not args.count:
        for event in matched:
            print(format_line(event))
    print(f"{len(matched)} of {len(events)} event(s) matched")
    return 0


def cmd_obs_explain(args) -> int:
    """Print the causal chain behind one deadline miss."""
    import json as _json
    from pathlib import Path

    from repro.errors import SimulationError
    from repro.obs.analysis import load_events
    from repro.obs.pipeline.explain import explain_miss

    loss = None
    target = Path(args.dir)
    if target.is_dir():
        pipeline_json = target / "pipeline.json"
        if pipeline_json.is_file():
            loss = _json.loads(pipeline_json.read_text(encoding="utf-8"))
    try:
        events = load_events(args.dir)
        rendered = explain_miss(
            events, args.task, miss_index=args.miss, loss=loss
        )
    except SimulationError as exc:
        print(exc)
        return 2
    print(rendered, end="")
    return 0


def _emit_rendered(rendered: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote {out}")
    else:
        print(rendered, end="")


def cmd_obs_prof_report(args) -> int:
    """Render the phase-cost report for a ``--profile`` directory."""
    from repro.obs.prof import load_profile, render_json, render_markdown

    try:
        profile = load_profile(args.dir)
    except ValueError as exc:
        print(exc)
        return 2
    rendered = (
        render_json(profile, top=args.top)
        if args.format == "json"
        else render_markdown(profile, top=args.top)
    )
    _emit_rendered(rendered, args.out)
    return 0


def cmd_obs_prof_diff(args) -> int:
    """Attribute a regression to phases: B's costs minus A's."""
    from repro.obs.prof import (
        diff_profiles,
        load_profile,
        render_diff_json,
        render_diff_markdown,
    )

    try:
        before = load_profile(args.a)
        after = load_profile(args.b)
    except ValueError as exc:
        print(exc)
        return 2
    diff = diff_profiles(before, after)
    rendered = (
        render_diff_json(diff)
        if args.format == "json"
        else render_diff_markdown(diff)
    )
    _emit_rendered(rendered, args.out)
    return 0


def cmd_obs(args) -> int:
    """Describe the telemetry surface: events, metrics, artifacts."""
    import dataclasses

    from repro.obs import EVENT_TYPES, ObsSession

    print("Event taxonomy (events.jsonl, one canonical JSON object per line;")
    print("'time' is simulated 27 MHz ticks, 'node' is \"\" on a single machine):\n")
    for tag in sorted(EVENT_TYPES):
        cls = EVENT_TYPES[tag]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        names = ", ".join(f.name for f in dataclasses.fields(cls))
        print(f"  {tag:18} {doc}")
        print(f"  {'':18} fields: {names}")
    print("\nMetrics (metrics.prom, Prometheus text exposition format):\n")
    for metric in ObsSession().registry.all_metrics():
        labels = ",".join(metric.label_names)
        suffix = f"{{{labels}}}" if labels else ""
        print(f"  {metric.kind:9} {metric.name}{suffix}")
        print(f"  {'':9} {metric.help}")
    print("\nArtifacts written by --obs-out DIR (run/cluster commands):\n")
    print("  events.jsonl          every event, one JSON object per line")
    print("  metrics.prom          the metrics registry, Prometheus text format")
    print("  trace.perfetto.json   scheduler segments + cluster span trees +")
    print("                        decision markers, for https://ui.perfetto.dev")
    print("  events.col.json       the same stream as schema-versioned columns")
    print("  pipeline.json         loss accounting per node and kind (emitted,")
    print("                        delivered, dropped, sampled_out, overwritten)")
    print("  pipeline.prom         the loss accounting as Prometheus counters")
    print("\nAll artifacts are byte-identical across same-seed runs.")
    return 0


def cmd_fuzz(args) -> int:
    """Run a fuzz campaign: generate, run, classify, shrink, persist."""
    from repro.fuzz import run_campaign

    stats = run_campaign(
        budget=args.budget,
        seed=args.seed,
        cluster=args.cluster,
        inject=args.inject,
        out_dir=args.out,
        shrink_failures=not args.no_shrink,
        time_budget_s=args.time_budget,
        progress=print,
    )
    print(stats.summary())
    return 0 if stats.ok else 1


def cmd_fuzz_replay(args) -> int:
    """Replay trace files; exit 1 when any diverges from its expectation."""
    from pathlib import Path

    from repro.fuzz import replay_corpus, replay_trace

    target = Path(args.path)
    kwargs = {"sanitize": args.sanitize, "obs_out": args.obs_out}
    results = (
        replay_corpus(target, **kwargs)
        if target.is_dir()
        else [replay_trace(target, **kwargs)]
    )
    if not results:
        print(f"no *.trace.json under {target}")
        return 2
    for result in results:
        print(result.summary())
    diverged = [r for r in results if not r.matches]
    print(f"\n{len(results)} trace(s), {len(diverged)} diverged")
    return 1 if diverged else 0


def cmd_fuzz_sweep(args) -> int:
    """Bisect per-mix admission thresholds; ``--out`` writes the curve."""
    import json

    from repro.fuzz.sweep import render_sweep, run_sweep

    payload = run_sweep(args.seed, mixes=args.mixes, iterations=args.iterations)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_sweep(payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    """Boot the live HTTP control plane (blocks until SIGTERM/SIGINT)."""
    from repro.serve import serve_main

    return serve_main(args)


def cmd_loadgen(args) -> int:
    """Drive a running control plane with the seeded open-loop generator."""
    from repro.serve import loadgen_main

    return loadgen_main(args)


# -- entry point ----------------------------------------------------------------


def _seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="simulation seed")


def _duration_ms(p) -> None:
    p.add_argument(
        "--duration-ms", type=float, default=500.0, help="simulated duration"
    )


def _sanitize(p) -> None:
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the runtime invariant sanitizer enabled",
    )


def _width(p) -> None:
    p.add_argument("--width", type=int, default=96, help="gantt width")


def _scenario(p) -> None:
    p.add_argument(
        "--scenario",
        default="settop",
        help=f"scenario name ({', '.join(scenarios.SCENARIOS)}; "
        "run also takes cluster_rack)",
    )


def _obs_out(p) -> None:
    p.add_argument(
        "--obs-out",
        metavar="DIR",
        default=None,
        help="write the obs artifacts (events.jsonl, metrics.prom, "
        "trace.perfetto.json, events.col.json, pipeline.{json,prom}) to DIR",
    )


def _profile(p) -> None:
    p.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="profile the run: deterministic phase counts and wall "
        "timings land in DIR",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ETI Resource Distributor reproduction — regenerate the "
        "paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, func, help_text: str, *flags) -> argparse.ArgumentParser:
        """A subcommand with exactly the shared ``flags`` its handler reads."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            flag(p)
        return p

    command("tables", cmd_tables, "print Tables 2-6", _seed)
    command(
        "figure3", cmd_figure3, "EDF schedule of the Table 4 set",
        _seed, _duration_ms, _width,
    )
    command(
        "figure4", cmd_figure4, "producers + spinning data threads",
        _seed, _duration_ms, _width,
    )
    command(
        "figure5", cmd_figure5, "staggered-admission staircase", _seed, _duration_ms
    )
    command("faceoff", cmd_faceoff, "RD vs the baseline schedulers", _seed, _duration_ms)
    command("settop", cmd_settop, "the section 5.3 scenario", _seed)
    p = command(
        "export", cmd_export, "dump a seeded run's trace",
        _seed, _duration_ms, _sanitize,
    )
    p.add_argument(
        "--format",
        choices=["segments", "deadlines", "json"],
        default="segments",
        help="export format",
    )
    command(
        "report", cmd_report, "operator report for a named scenario",
        _seed, _duration_ms, _scenario,
    )
    command(
        "run", cmd_run, "observed run of a named scenario",
        _seed, _duration_ms, _sanitize, _scenario, _obs_out, _profile,
    )
    p = command("obs", cmd_obs, "telemetry surface: describe / report / check")
    obs_sub = p.add_subparsers(dest="obs_command", metavar="subcommand")
    p_report = obs_sub.add_parser(
        "report", help="analytics report over an --obs-out directory"
    )
    p_report.set_defaults(func=cmd_obs_report)
    p_report.add_argument(
        "dir", metavar="DIR", help="directory written by --obs-out"
    )
    p_report.add_argument(
        "--format",
        choices=["markdown", "json"],
        default="markdown",
        help="report format",
    )
    p_report.add_argument(
        "--out", metavar="PATH", default=None, help="write the report to PATH"
    )
    p_report.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="also evaluate the SLO spec at PATH (TOML)",
    )
    p_query = obs_sub.add_parser(
        "query", help="filter a recorded event stream (jsonl or columnar)"
    )
    p_query.set_defaults(func=cmd_obs_query)
    p_query.add_argument(
        "dir",
        metavar="DIR",
        help="directory written by --obs-out (or an event-log file)",
    )
    p_query.add_argument(
        "--kind",
        action="append",
        metavar="TAG",
        default=None,
        help="keep only this event kind (repeatable)",
    )
    p_query.add_argument(
        "--task",
        default=None,
        metavar="NAME",
        help="keep only events of this task (resolved via the admission "
        "record: named events plus its threads' events)",
    )
    p_query.add_argument(
        "--node",
        action="append",
        metavar="NODE",
        default=None,
        help="keep only events stamped with this node (repeatable)",
    )
    p_query.add_argument(
        "--window",
        default=None,
        metavar="LO:HI",
        help="keep only events in [LO, HI] sim ticks (either side "
        "may be empty)",
    )
    p_query.add_argument(
        "--count",
        action="store_true",
        help="print only the match count",
    )
    p_explain = obs_sub.add_parser(
        "explain", help="causal chain behind one deadline miss"
    )
    p_explain.set_defaults(func=cmd_obs_explain)
    p_explain.add_argument(
        "dir",
        metavar="DIR",
        help="directory written by --obs-out (or an event-log file)",
    )
    p_explain.add_argument(
        "--task",
        required=True,
        metavar="NAME",
        help="task name (or node/name label) whose miss to explain",
    )
    p_explain.add_argument(
        "--miss",
        type=int,
        default=0,
        metavar="N",
        help="which miss, 0-based in deadline order (default: 0)",
    )
    p_check = obs_sub.add_parser(
        "check", help="evaluate SLOs; exit 1 on any violation"
    )
    p_check.set_defaults(func=cmd_obs_check)
    p_check.add_argument(
        "dir", metavar="DIR", help="directory written by --obs-out"
    )
    p_check.add_argument(
        "--slo",
        metavar="PATH",
        default="slo.toml",
        help="SLO spec to enforce (default: slo.toml)",
    )
    p_prof = obs_sub.add_parser(
        "prof", help="phase-cost reports over --profile directories"
    )
    prof_sub = p_prof.add_subparsers(
        dest="prof_command", metavar="subcommand", required=True
    )
    pp_report = prof_sub.add_parser(
        "report", help="top-N self-time table for one profile"
    )
    pp_report.set_defaults(func=cmd_obs_prof_report)
    pp_report.add_argument(
        "dir", metavar="DIR", help="directory written by --profile"
    )
    pp_report.add_argument(
        "--format",
        choices=["markdown", "json"],
        default="markdown",
        help="report format",
    )
    pp_report.add_argument(
        "--top",
        type=int,
        default=0,
        help="limit the table to the N most expensive phases (0 = all)",
    )
    pp_report.add_argument(
        "--out", metavar="PATH", default=None, help="write the report to PATH"
    )
    pp_diff = prof_sub.add_parser(
        "diff", help="per-phase cost deltas between two profiles"
    )
    pp_diff.set_defaults(func=cmd_obs_prof_diff)
    pp_diff.add_argument("a", metavar="A", help="baseline profile directory")
    pp_diff.add_argument("b", metavar="B", help="comparison profile directory")
    pp_diff.add_argument(
        "--format",
        choices=["markdown", "json"],
        default="markdown",
        help="diff format",
    )
    pp_diff.add_argument(
        "--out", metavar="PATH", default=None, help="write the diff to PATH"
    )
    p = command("fuzz", cmd_fuzz, "seeded scenario fuzzing / trace replay", _seed)
    p.add_argument(
        "--budget", type=int, default=25, help="number of scenarios to run"
    )
    p.add_argument(
        "--cluster",
        action="store_true",
        help="fuzz lossy-bus cluster placements instead of single-node mixes",
    )
    p.add_argument(
        "--inject",
        choices=["edf-invert", "terminate-admitted", "trace-double-count"],
        default=None,
        help="arm a synthetic scheduler bug (pipeline self-test)",
    )
    p.add_argument(
        "--out",
        metavar="DIR",
        default="fuzz-failures",
        help="directory for shrunk reproducer trace files",
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new scenarios after this much wall time",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="write failing specs as-is instead of shrinking them",
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", metavar="subcommand")
    # A trace is self-contained (its spec carries seed and horizon), and
    # replay's --sanitize is a mode, not a flag.
    p_replay = fuzz_sub.add_parser(
        "replay", help="replay .trace.json files"
    )
    p_replay.set_defaults(func=cmd_fuzz_replay)
    p_replay.add_argument(
        "path",
        metavar="PATH",
        help="one .trace.json, or a directory of them (a corpus)",
    )
    p_replay.add_argument(
        "--obs-out",
        metavar="DIR",
        default=None,
        help="write the replay's obs artifacts to DIR (a corpus writes "
        "one subdirectory per trace) for obs report / query / explain",
    )
    p_replay.add_argument(
        "--sanitize",
        choices=["strict", "record", "off"],
        default="strict",
        help="invariant checking: strict aborts at the first violation "
        "(default), record logs violations and runs to the horizon, "
        "off disables the sanitizer",
    )
    p_sweep = fuzz_sub.add_parser(
        "sweep", help="bisect the empirical admission-threshold curve"
    )
    p_sweep.set_defaults(func=cmd_fuzz_sweep)
    _seed(p_sweep)
    p_sweep.add_argument(
        "--mixes", type=int, default=8, help="generated mixes to bisect"
    )
    p_sweep.add_argument(
        "--iterations", type=int, default=10, help="bisection steps per mix"
    )
    p_sweep.add_argument(
        "--json", action="store_true", help="emit the sweep payload on stdout"
    )
    p_sweep.add_argument(
        "--out", metavar="PATH", default=None, help="write the payload to PATH"
    )
    p = command(
        "serve", cmd_serve, "live HTTP control plane over a broker rack", _seed
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642, help="bind port (0 = ephemeral)")
    p.add_argument("--nodes", type=int, default=16, help="distributor node count")
    p.add_argument(
        "--policy",
        choices=["aimd", "best-fit", "first-fit"],
        default="aimd",
        help="placement policy (aimd spreads load, keeping per-node "
        "kernel scans short under churn)",
    )
    p.add_argument(
        "--latency-us", type=float, default=20.0, help="one-way bus latency"
    )
    p.add_argument(
        "--migrate", action="store_true", help="enable epoch migration passes"
    )
    p.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="attach a streaming SLO engine fed from this TOML spec",
    )
    p.add_argument(
        "--obs-out",
        metavar="DIR",
        default=None,
        help="write the obs artifacts on graceful shutdown",
    )
    p.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="profile the service; /debug/prof goes live and the profile "
        "directory is written on graceful shutdown",
    )
    p = command("loadgen", cmd_loadgen, "seeded open-loop load generator", _seed)
    p.add_argument("--host", default="127.0.0.1", help="target address")
    p.add_argument("--port", type=int, default=8642, help="target port")
    p.add_argument("--clients", type=int, default=100, help="concurrent clients")
    p.add_argument(
        "--duration", type=float, default=5.0, help="schedule length in seconds"
    )
    p.add_argument(
        "--rps-per-client",
        type=float,
        default=4.0,
        help="open-loop request rate per client",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the full report on stdout"
    )
    p.add_argument(
        "--out", metavar="PATH", default=None, help="write the report to PATH"
    )
    p = command(
        "cluster", cmd_cluster, "multi-node rack behind a broker",
        _seed, _duration_ms, _obs_out, _profile,
    )
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="ship per-node metric snapshots to the broker every epoch "
        "and drive AIMD weights from observed load (needs --obs-out)",
    )
    p.add_argument(
        "--max-chunk-events",
        type=int,
        default=None,
        metavar="N",
        help="head/tail-sample the event chunks an observed run ships "
        "down to N events (sampled-out rows are counted, never silent)",
    )
    p.add_argument("--nodes", type=int, default=4, help="distributor node count")
    p.add_argument(
        "--policy",
        choices=["aimd", "best-fit", "first-fit"],
        default="aimd",
        help="placement policy",
    )
    p.add_argument(
        "--drop-rate", type=float, default=0.0, help="message drop probability"
    )
    p.add_argument(
        "--latency-us", type=float, default=100.0, help="one-way bus latency"
    )
    p.add_argument(
        "--no-migrate", action="store_true", help="disable task migration"
    )
    p.add_argument(
        "--format",
        choices=["report", "json"],
        default="report",
        help="output format",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
