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
import json
import os
import sys
from pathlib import Path

from repro import scenarios, units
from repro.errors import SimulationError
from repro.tasks.busyloop import busyloop_resource_list
from repro.tasks.mpeg import MpegDecoder
from repro.viz import format_table, render_gantt


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


def cmd_cluster(args) -> int:
    """Run the multi-node set-top-box rack behind the cluster broker."""
    from repro.cluster import cluster_metrics_json, cluster_report
    from repro.obs import ObsSession

    session = ObsSession() if args.obs_out else None
    if args.telemetry and session is None:
        print("--telemetry needs --obs-out (snapshots come from its registry)")
        return 2
    sim = _run_rack(
        args,
        session,
        cluster_metrics_json if args.format == "json" else cluster_report,
        nodes=args.nodes,
        policy=args.policy,
        drop_rate=args.drop_rate,
        latency_us=args.latency_us,
        migrate=not args.no_migrate,
        telemetry=args.telemetry,
        max_chunk_events=args.max_chunk_events,
    )
    return 0 if sim.all_sanitizers_ok else 1


def cmd_run(args) -> int:
    """Run a named scenario with full observability instrumentation."""
    from repro.metrics import validate_trace
    from repro.obs import ObsSession

    session = ObsSession()
    if args.scenario == "cluster_rack":
        # The cluster scenario has its own driver loop (and ships
        # per-node telemetry to the broker when observed).
        _run_rack(args, session, lambda sim: session.summary() + "\n", telemetry=True)
        return 0
    if args.scenario not in scenarios.SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; pick one of "
              f"{', '.join(sorted(scenarios.SCENARIOS))}")
        return 2
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
    if rd.kernel.crashes:
        print(f"task crashes: {len(rd.kernel.crashes)}")
    if rd.sanitizer is not None:
        print(rd.sanitizer.summary())
    print(validate_trace(rd.trace, end_time=rd.now).summary().splitlines()[0])
    if args.obs_out:
        _write_obs(session, args.obs_out, rd.now)
    return 0


def _run_rack(args, session, report, **options):
    """The observed rack behind ``run --scenario cluster_rack`` and
    ``cluster``: build it with ``options``, profile it on ``--profile``,
    run it to its horizon, write the profile, print ``report(sim)``,
    and on ``--obs-out`` write the artifacts and the loss summary."""
    sim = scenarios.cluster_rack(
        seed=args.seed,
        horizon_sec=max(args.duration_ms, 200.0) / 1000.0,
        sanitize=True,
        obs=session,
        obs_pipeline=bool(args.obs_out),
        **options,
    )
    prof = _attach_prof(args.profile, sim)
    sim.run_until(sim.horizon)
    _write_prof(prof, args.profile, sim.now)
    print(report(sim), end="")
    if args.obs_out:
        _write_obs(session, args.obs_out, sim.now)
        print(sim.pipeline.summary())
    return sim


def _write_obs(session, directory: str, now: int) -> None:
    paths = session.write(directory, now)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")


def _attach_prof(directory: str | None, *targets):
    """A ProfSession when ``--profile DIR`` was given, its ``phases``
    wired into each of ``targets`` (a distributor or a cluster
    simulation; ``serve`` hands them to its engine)."""
    if not directory:
        return None
    from repro.obs.prof import ProfSession

    prof = ProfSession()
    for target in targets:
        target.attach_prof(prof.phases)
    return prof


def _write_prof(prof, directory: str | None, now: int) -> None:
    if prof is None:
        return
    out = prof.write(directory, now)
    print(f"wrote profile to {out}")


def _write_out(text: str, path: str) -> None:
    """Write ``text`` to an ``--out`` path and say so."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _emit_rendered(rendered: str, out: str | None) -> None:
    if out:
        _write_out(rendered, out)
    else:
        print(rendered, end="")


class _Unreadable(Exception):
    """An input a command cannot read: :func:`main` prints it as one
    line and exits 2."""


def _read(loader, *inputs, **options):
    """``loader(*inputs, **options)``, with an input it rejects raised as
    :class:`_Unreadable`.  Only loaders and lookups go through here: a
    ``SimulationError`` in the middle of a run is not a usage error."""
    try:
        return loader(*inputs, **options)
    except (SimulationError, ValueError) as exc:
        raise _Unreadable(str(exc)) from None


def cmd_obs_report(args) -> int:
    """Render the analytics report for an ``--obs-out`` directory."""
    from repro.obs.analysis import (
        analysis_to_json,
        analyze,
        load_events,
        load_slo_file,
        render_markdown,
    )

    specs = _read(load_slo_file, args.slo) if args.slo else None
    events = _read(load_events, args.dir)
    analysis = analyze(events, slo_specs=specs)
    rendered = (
        analysis_to_json(analysis)
        if args.format == "json"
        else render_markdown(analysis) + "\n"
    )
    _emit_rendered(rendered, args.out)
    return 0


def cmd_obs_check(args) -> int:
    """Gate on SLOs: exit 1 when any objective is violated, 2 when the
    SLO spec or the event log cannot be read."""
    from repro.obs.analysis import analyze, load_events, load_slo_file

    specs = _read(load_slo_file, args.slo)
    events = _read(load_events, args.dir)
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


def _window(text: str) -> tuple[int, int]:
    """``--window LO:HI`` in sim ticks; either side may be omitted."""
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            return (int(lo) if lo else 0, int(hi) if hi else (1 << 62))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"wants LO:HI in sim ticks (got {text!r}); either side may be empty"
    )


def cmd_obs_query(args) -> int:
    """Filter a recorded event stream; print one line per match."""
    from repro.obs.analysis import load_events
    from repro.obs.pipeline.query import Query, format_line, select

    events = _read(load_events, args.dir)
    query = Query(
        kinds=frozenset(args.kind) if args.kind else None,
        task=args.task,
        nodes=frozenset(args.node) if args.node else None,
        window=args.window,
    )
    matched = _read(select, events, query)
    if not args.count:
        for event in matched:
            print(format_line(event))
    print(f"{len(matched)} of {len(events)} event(s) matched")
    return 0


def _load_loss(directory: str) -> dict | None:
    """The loss accounting (``pipeline.json``) beside an event stream,
    when ``directory`` is an ``--obs-out`` directory that has one."""
    path = Path(directory) / "pipeline.json"
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise SimulationError(f"{path}: not valid JSON: {exc}") from None


def cmd_obs_explain(args) -> int:
    """Print the causal chain behind one deadline miss."""
    from repro.obs.analysis import load_events
    from repro.obs.pipeline.explain import explain_miss

    loss = _read(_load_loss, args.dir)
    events = _read(load_events, args.dir)
    print(
        _read(explain_miss, events, args.task, miss_index=args.miss, loss=loss),
        end="",
    )
    return 0


def cmd_obs_prof_report(args) -> int:
    """Render the phase-cost report for a ``--profile`` directory."""
    from repro.obs.prof import load_profile, render_json, render_markdown

    profile = _read(load_profile, args.dir)
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

    diff = diff_profiles(_read(load_profile, args.a), _read(load_profile, args.b))
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
    print("  pipeline.json         loss accounting per node and kind (emitted,")
    print("                        delivered, dropped, sampled_out, overwritten)")
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
        differential=args.differential,
    )
    print(stats.summary())
    return 0 if stats.ok else 1


def cmd_fuzz_replay(args) -> int:
    """Replay trace files; exit 1 on a divergence, 2 on an unreadable trace."""
    from repro.fuzz import load_corpus, replay

    target = Path(args.path)
    results = []
    for path, trace in _read(load_corpus, target):
        obs_out = args.obs_out
        if obs_out and target.is_dir():  # one subdirectory per corpus trace
            obs_out = Path(obs_out) / path.name[: -len(".trace.json")]
        results.append(replay(path, trace, sanitize=args.sanitize, obs_out=obs_out))
    for result in results:
        print(result.summary())
    diverged = [r for r in results if not r.matches]
    print(f"\n{len(results)} trace(s), {len(diverged)} diverged")
    return 1 if diverged else 0


def cmd_fuzz_sweep(args) -> int:
    """Bisect per-mix admission thresholds; ``--out`` writes the curve."""
    from repro.fuzz.sweep import render_sweep, run_sweep

    payload = run_sweep(args.seed, mixes=args.mixes, iterations=args.iterations)
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    print(rendered if args.json else render_sweep(payload))
    if args.out:
        _write_out(rendered + "\n", args.out)
    return 0


def cmd_serve(args) -> int:
    """Boot the live HTTP control plane (blocks until SIGTERM/SIGINT);
    an unreadable SLO spec exits 2 before anything boots."""
    import asyncio

    from repro.obs.analysis import load_slo_file

    specs = _read(load_slo_file, args.slo) if args.slo else None
    return asyncio.run(_serve(args, specs))


async def _serve(args, specs) -> int:
    import asyncio
    import signal

    from repro.serve import ServeApp, ServeEngine

    prof = _attach_prof(args.profile)
    engine = ServeEngine(
        nodes=args.nodes,
        seed=args.seed,
        policy=args.policy,
        latency_us=args.latency_us,
        migrate=args.migrate,
        slo_specs=specs,
        prof=prof.phases if prof else None,
    )
    app = ServeApp(engine, host=args.host, port=args.port)
    await app.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    print(
        json.dumps(
            {
                "serving": f"http://{args.host}:{app.server.port}",
                "nodes": args.nodes,
                "seed": args.seed,
            }
        ),
        flush=True,
    )
    await stop.wait()
    print("draining ...", flush=True)
    await app.stop()
    if args.obs_out:
        _write_obs(engine.session, args.obs_out, engine.sim.now)
    _write_prof(prof, args.profile, engine.sim.now)
    print(json.dumps({"final": engine.stats()}), flush=True)
    return 0


def cmd_loadgen(args) -> int:
    """Drive a running control plane with the seeded open-loop
    generator; exit 1 on any 5xx or connection failure."""
    import asyncio

    from repro.serve import run_loadgen

    report = asyncio.run(
        run_loadgen(
            host=args.host,
            port=args.port,
            clients=args.clients,
            duration_s=args.duration,
            seed=args.seed,
            rps_per_client=args.rps_per_client,
        )
    )
    rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_out(rendered, args.out)
    measured = report["measured"]
    if args.json:
        print(rendered, end="")
    else:
        latency = measured["latency_s"]
        print(
            f"loadgen: {measured['completed']} requests in "
            f"{measured['wall_s']:.2f}s = {measured['rps']:.0f} req/s, "
            f"p50 {latency['p50'] * 1e3:.2f}ms p95 {latency['p95'] * 1e3:.2f}ms "
            f"p99 {latency['p99'] * 1e3:.2f}ms, "
            f"statuses {measured['statuses']}, "
            f"{measured['failures']} failures, "
            f"{measured['retries_429']} backpressure retries"
        )
        print(
            f"deterministic: schedule {report['deterministic']['schedule_digest'][:16]}… "
            f"outcomes {report['deterministic']['outcome_digest'][:16]}…"
        )
    bad = measured["statuses"].get("5xx", 0) + measured["failures"]
    if bad:
        print(f"FAIL: {bad} failed or 5xx responses")
    return 1 if bad else 0


# -- entry point ----------------------------------------------------------------


def _checked(kind, want: str, ok):
    """An argparse ``type=`` that parses ``kind`` and makes a value
    outside ``want`` a usage error (exit 2) before any work starts."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {want}")
        return value

    parse.__name__ = kind.__name__  # argparse names a malformed value by it
    return parse


_positive_int = _checked(int, "> 0", lambda v: v > 0)
_positive_float = _checked(float, "> 0", lambda v: v > 0)
_non_negative_int = _checked(int, ">= 0", lambda v: v >= 0)


def _seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="simulation seed")


def _duration_ms(p) -> None:
    p.add_argument(
        "--duration-ms", type=_positive_float, default=500.0, help="simulated duration"
    )


def _sanitize(p) -> None:
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the runtime invariant sanitizer enabled",
    )


def _width(p) -> None:
    p.add_argument("--width", type=_positive_int, default=96, help="gantt width")


def _obs_out(
    p,
    help_text: str = "write the obs artifacts (events.jsonl, metrics.prom, "
    "trace.perfetto.json, pipeline.json) to DIR",
) -> None:
    p.add_argument("--obs-out", metavar="DIR", default=None, help=help_text)


def _profile(
    p,
    help_text: str = "profile the run: deterministic phase counts and wall "
    "timings land in DIR",
) -> None:
    p.add_argument("--profile", metavar="DIR", default=None, help=help_text)


def _dir(p, help_text: str) -> None:
    p.add_argument("dir", metavar="DIR", help=help_text)


def _format(p, help_text: str) -> None:
    p.add_argument(
        "--format", choices=["markdown", "json"], default="markdown", help=help_text
    )


def _out(p, help_text: str) -> None:
    p.add_argument("--out", metavar="PATH", default=None, help=help_text)


def _slo(p, default: str | None, help_text: str) -> None:
    p.add_argument("--slo", metavar="PATH", default=default, help=help_text)


def _rack(p, nodes: int, latency_us: float, policy_help: str) -> None:
    """The rack shape ``serve`` and ``cluster`` share."""
    p.add_argument(
        "--nodes",
        type=_checked(int, "in 1..99", lambda v: 1 <= v <= 99),
        default=nodes,
        help="distributor node count",
    )
    p.add_argument(
        "--policy",
        choices=["aimd", "best-fit", "first-fit"],
        default="aimd",
        help=policy_help,
    )
    p.add_argument(
        "--latency-us",
        type=_checked(float, ">= 0", lambda v: v >= 0),
        default=latency_us,
        help="one-way bus latency",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ETI Resource Distributor reproduction — regenerate the "
        "paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(
        name: str, func, help_text: str, *flags, under=sub
    ) -> argparse.ArgumentParser:
        """A subcommand with exactly the shared ``flags`` its handler reads."""
        p = under.add_parser(name, help=help_text)
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
        "run", cmd_run, "observed run of a named scenario",
        _seed, _duration_ms, _sanitize, _obs_out, _profile,
    )
    p.add_argument(
        "--scenario",
        default="settop",
        help=f"scenario name ({', '.join(scenarios.SCENARIOS)}, cluster_rack)",
    )
    p = command("obs", cmd_obs, "telemetry surface: describe / report / check")
    obs_sub = p.add_subparsers(dest="obs_command", metavar="subcommand")
    p = command(
        "report", cmd_obs_report, "analytics report over an --obs-out directory",
        under=obs_sub,
    )
    _dir(p, "directory written by --obs-out")
    _format(p, "report format")
    _out(p, "write the report to PATH")
    _slo(p, None, "also evaluate the SLO spec at PATH (TOML)")
    p = command(
        "query", cmd_obs_query, "filter a recorded event stream (events.jsonl)",
        under=obs_sub,
    )
    _dir(p, "directory written by --obs-out (or an event-log file)")
    p.add_argument(
        "--kind",
        action="append",
        metavar="TAG",
        default=None,
        help="keep only this event kind (repeatable)",
    )
    p.add_argument(
        "--task",
        default=None,
        metavar="NAME",
        help="keep only events of this task (resolved via the admission "
        "record: named events plus its threads' events)",
    )
    p.add_argument(
        "--node",
        action="append",
        metavar="NODE",
        default=None,
        help="keep only events stamped with this node (repeatable)",
    )
    p.add_argument(
        "--window",
        type=_window,
        default=None,
        metavar="LO:HI",
        help="keep only events in [LO, HI] sim ticks (either side "
        "may be empty)",
    )
    p.add_argument(
        "--count",
        action="store_true",
        help="print only the match count",
    )
    p = command(
        "explain", cmd_obs_explain, "causal chain behind one deadline miss",
        under=obs_sub,
    )
    _dir(p, "directory written by --obs-out (or an event-log file)")
    p.add_argument(
        "--task",
        required=True,
        metavar="NAME",
        help="task name (or node/name label) whose miss to explain",
    )
    p.add_argument(
        "--miss",
        type=int,
        default=0,
        metavar="N",
        help="which miss, 0-based in deadline order (default: 0)",
    )
    p = command(
        "check", cmd_obs_check, "evaluate SLOs; exit 1 on any violation",
        under=obs_sub,
    )
    _dir(p, "directory written by --obs-out")
    _slo(p, "slo.toml", "SLO spec to enforce (default: slo.toml)")
    p_prof = obs_sub.add_parser(
        "prof", help="phase-cost reports over --profile directories"
    )
    prof_sub = p_prof.add_subparsers(
        dest="prof_command", metavar="subcommand", required=True
    )
    p = command(
        "report", cmd_obs_prof_report, "top-N self-time table for one profile",
        under=prof_sub,
    )
    _dir(p, "directory written by --profile")
    _format(p, "report format")
    p.add_argument(
        "--top",
        type=_non_negative_int,
        default=0,
        help="limit the table to the N most expensive phases (0 = all)",
    )
    _out(p, "write the report to PATH")
    p = command(
        "diff", cmd_obs_prof_diff, "per-phase cost deltas between two profiles",
        under=prof_sub,
    )
    p.add_argument("a", metavar="A", help="baseline profile directory")
    p.add_argument("b", metavar="B", help="comparison profile directory")
    _format(p, "diff format")
    _out(p, "write the diff to PATH")
    p = command("fuzz", cmd_fuzz, "seeded scenario fuzzing / trace replay", _seed)
    p.add_argument(
        "--budget", type=_positive_int, default=25, help="number of scenarios to run"
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
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="stop starting new scenarios after this much wall time",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="write failing specs as-is instead of shrinking them",
    )
    p.add_argument(
        "--differential",
        action="store_true",
        help="also run every spec on the reference (the from-scratch "
        "stack for core specs, the lockstep loop for cluster specs); a "
        "disagreement fails as divergence:<field>",
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", metavar="subcommand")
    # A trace is self-contained (its spec carries seed and horizon), and
    # replay's --sanitize is a mode, not a flag.
    p = command(
        "replay", cmd_fuzz_replay, "replay .trace.json files", under=fuzz_sub
    )
    p.add_argument(
        "path",
        metavar="PATH",
        help="one .trace.json, or a directory of them (a corpus)",
    )
    _obs_out(
        p,
        "write the replay's obs artifacts to DIR (a corpus writes "
        "one subdirectory per trace) for obs report / query / explain",
    )
    p.add_argument(
        "--sanitize",
        choices=["strict", "record", "off"],
        default="strict",
        help="invariant checking: strict aborts at the first violation "
        "(default), record logs violations and runs to the horizon, "
        "off disables the sanitizer",
    )
    p = command(
        "sweep", cmd_fuzz_sweep, "bisect the empirical admission-threshold curve",
        _seed, under=fuzz_sub,
    )
    p.add_argument(
        "--mixes", type=_positive_int, default=8, help="generated mixes to bisect"
    )
    p.add_argument(
        "--iterations", type=_positive_int, default=10, help="bisection steps per mix"
    )
    p.add_argument(
        "--json", action="store_true", help="emit the sweep payload on stdout"
    )
    _out(p, "write the payload to PATH")
    p = command(
        "serve", cmd_serve, "live HTTP control plane over a broker rack", _seed
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642, help="bind port (0 = ephemeral)")
    _rack(
        p, nodes=16, latency_us=20.0,
        policy_help="placement policy (aimd spreads load, keeping per-node "
        "kernel scans short under churn)",
    )
    p.add_argument(
        "--migrate", action="store_true", help="enable epoch migration passes"
    )
    _slo(p, None, "attach a streaming SLO engine fed from this TOML spec")
    _obs_out(p, "write the obs artifacts on graceful shutdown")
    _profile(
        p,
        "profile the service; /debug/prof goes live and the profile "
        "directory is written on graceful shutdown",
    )
    p = command("loadgen", cmd_loadgen, "seeded open-loop load generator", _seed)
    p.add_argument("--host", default="127.0.0.1", help="target address")
    p.add_argument("--port", type=int, default=8642, help="target port")
    p.add_argument(
        "--clients", type=_positive_int, default=100, help="concurrent clients"
    )
    p.add_argument(
        "--duration",
        type=_positive_float,
        default=5.0,
        help="schedule length in seconds",
    )
    p.add_argument(
        "--rps-per-client",
        type=_positive_float,
        default=4.0,
        help="open-loop request rate per client",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the full report on stdout"
    )
    _out(p, "write the report to PATH")
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
        type=_checked(int, ">= 2", lambda v: v >= 2),
        default=None,
        metavar="N",
        help="head/tail-sample the event chunks an observed run ships "
        "down to N events (sampled-out rows are counted, never silent)",
    )
    _rack(p, nodes=4, latency_us=100.0, policy_help="placement policy")
    p.add_argument(
        "--drop-rate",
        type=_checked(float, "in [0, 1)", lambda v: 0 <= v < 1),
        default=0.0,
        help="message drop probability",
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


#: The status of a command whose reader closed stdout early (``| head``):
#: 128 + SIGPIPE, what a shell reports for a writer the signal killed.
_CLOSED_PIPE_STATUS = 141


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except _Unreadable as exc:
        print(exc)
        return 2
    except BrokenPipeError:
        # What is still buffered goes nowhere, so the flush at exit
        # cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _CLOSED_PIPE_STATUS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
