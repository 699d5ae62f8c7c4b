"""CLI: every command runs, prints the right artifact, and exits 0."""

import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "FullDecompress" in out
        assert "Table 4" in out and "52.0%" in out
        assert "Table 5" in out
        assert "Table 6" in out

    def test_figure3(self, capsys):
        assert main(["figure3", "--duration-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "misses: 0" in out

    def test_figure4(self, capsys):
        assert main(["figure4", "--duration-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "spin time" in out
        assert "misses: 0" in out

    def test_figure5(self, capsys):
        assert main(["figure5", "--duration-ms", "150"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "#########" in out  # the 9 ms first step
        assert "misses: 0" in out

    def test_faceoff(self, capsys):
        assert main(["faceoff", "--duration-ms", "300"]) == 0
        out = capsys.readouterr().out
        assert "ResourceDistributor" in out
        assert "RateMonotonicSystem" in out

    def test_settop(self, capsys):
        assert main(["settop"]) == 0
        out = capsys.readouterr().out
        assert "I frames lost: 0" in out

    def test_run_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 2

    def test_run_prints_the_trace_audit(self, capsys):
        assert main(["run", "--scenario", "settop", "--duration-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "trace audit: OK" in out
        assert "task crashes" not in out

    def test_run_counts_crashes(self, monkeypatch, capsys):
        from repro import MachineConfig, SimConfig, scenarios, units
        from repro.core.distributor import ResourceDistributor
        from repro.core.resource_list import ResourceList, ResourceListEntry
        from repro.tasks.base import Compute, TaskDefinition

        ms = units.ms_to_ticks

        def boom(ctx):
            yield Compute(ms(1))
            raise RuntimeError("x")

        def crashing(seed, obs):
            rd = ResourceDistributor(
                machine=MachineConfig.ideal(), sim=SimConfig(seed=seed), obs=obs
            )
            entry = ResourceListEntry(ms(10), ms(2), boom)
            rd.admit(TaskDefinition(name="boom", resource_list=ResourceList([entry])))
            return scenarios.Scenario(rd=rd)

        monkeypatch.setitem(scenarios.SCENARIOS, "crashing", crashing)
        assert main(["run", "--scenario", "crashing"]) == 0
        assert "task crashes: 1" in capsys.readouterr().out


#: sha256[:16] of stdout as the commits that still carried hand-built
#: scenario copies printed it (34dfe56 for cli.py's; 02b9265 for the
#: Table 5 box, the face-off loop and the two examples); everything now
#: calls the ``repro.scenarios`` builders and must print the same bytes.
PARENT_STDOUT = {
    ("tables", "--seed", "3"): "1aae857b254ef0c8",
    ("faceoff", "--seed", "0"): "e412485e27736e1d",
    ("figure3", "--seed", "3", "--duration-ms", "80", "--width", "80"): "7682930d25061257",
    ("figure4", "--seed", "3"): "0b1826308f868944",
    ("figure5", "--seed", "3"): "26f510e2093b1a98",
    ("settop", "--seed", "3"): "caedfb254cffd991",
}


@pytest.mark.parametrize("argv", PARENT_STDOUT, ids=" ".join)
def test_stdout_matches_the_parent(argv, capsys):
    import hashlib

    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == PARENT_STDOUT[argv]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("scheduler_faceoff.py",), "756459520d2b3f9e"),
        (("settop_box.py",), "433bba7c89ba896b"),
        # The lossy multi-node rack's metrics; pinned at c956e06 and
        # re-recorded three times, each time with only the four per-node
        # sanitizer "decisions" counts moved: when rack nodes began to
        # run only when touched (412 -> 231, 428 -> 243, 478 -> 295,
        # 371 -> 184), when a held cut stopped being audited as a
        # decision (231 -> 195, 243 -> 208, 295 -> 258, 184 -> 148), and
        # when a grant the dispatching pick activated stopped ending that
        # pick's slice (195 -> 187, 208 -> 198, 258 -> 251, 148 -> 142).
        (("cluster_rack.py", "--seed", "7", "--json"), "92c55aad0537314b"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else value,
)
def test_example_stdout_matches_the_parent(argv, digest, capsys, monkeypatch):
    import hashlib

    _run_example(argv, monkeypatch)
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == digest


EXAMPLES = Path(__file__).parent.parent / "examples"


def _run_example(argv, monkeypatch) -> None:
    """Run ``examples/<argv[0]>`` as ``__main__``; it must exit 0."""
    import runpy

    script = EXAMPLES / argv[0]
    monkeypatch.setattr(sys, "argv", [str(script), *argv[1:]])
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_info:
        assert exit_info.code == 0


@pytest.mark.parametrize(
    "name",
    sorted(
        path.name
        for path in EXAMPLES.glob("*.py")
        if path.name not in ("scheduler_faceoff.py", "settop_box.py", "cluster_rack.py")
    ),
)
def test_every_other_example_exits_0(name, capsys, monkeypatch):
    """The examples whose stdout is not pinned above still run clean."""
    _run_example((name,), monkeypatch)
    assert capsys.readouterr().out


def _subcommands(parser, path=()):
    """Yield (command path, leaf parser) for every runnable subcommand."""
    import argparse

    nested = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if path and parser.get_default("func") is not None:
        yield path, parser
    for action in nested:
        for name, child in action.choices.items():
            yield from _subcommands(child, path + (name,))


def _args_reads(func, seen=None) -> set[str]:
    """Every ``args.<name>`` read by ``func`` or by a function it hands
    ``args`` to (module globals and function-local imports resolved)."""
    import ast
    import importlib
    import inspect
    import textwrap

    seen = set() if seen is None else seen
    if func in seen:
        return set()
    seen.add(func)
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    scope = dict(func.__globals__)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                scope[alias.asname or alias.name] = getattr(module, alias.name, None)
    reads = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        ):
            reads.add(node.attr)
        if isinstance(node, ast.Call) and any(
            isinstance(a, ast.Name) and a.id == "args" for a in node.args
        ):
            callee = node.func
            target = scope.get(callee.id) if isinstance(callee, ast.Name) else None
            if inspect.isfunction(target):
                reads |= _args_reads(target, seen)
    return reads


def _flag_surface(parser, path=()) -> list[dict]:
    """Every argparse action under ``parser`` as (command path, option
    strings, dest, default, choices, nargs, required, metavar), sorted."""
    import argparse

    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append({
            "command": " ".join(path),
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "required": action.required,
            "metavar": action.metavar,
        })
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                rows += _flag_surface(child, path + (name,))
    return sorted(rows, key=lambda r: (r["command"], r["dest"], r["option_strings"]))


def _ignored_flags(parser, handler=None) -> list[str]:
    """Flags no handler reads.  ``handler`` is the function that reads a
    parser without subcommands; otherwise each leaf's ``func`` default."""
    if handler is not None:
        leaves = [((parser.prog,), parser, handler)]
    else:
        leaves = [
            (path, leaf, leaf.get_default("func"))
            for path, leaf in _subcommands(parser)
        ]
    ignored = []
    for path, leaf, func in leaves:
        reads = _args_reads(func)
        for action in leaf._actions:
            if action.option_strings and action.dest != "help":
                if action.dest not in reads:
                    ignored.append(f"{' '.join(path)} {action.option_strings[-1]}")
    return ignored


class TestParser:
    def test_every_flag_is_read(self):
        """A flag a command accepts and never reads is a lie in --help."""
        from repro.cli import build_parser
        from repro.lint import cli as lint_cli

        assert _ignored_flags(build_parser()) == []
        assert _ignored_flags(lint_cli.build_parser(), lint_cli.main) == []

    def test_an_ignored_flag_is_caught(self):
        from repro.cli import build_parser

        parser = build_parser()
        settop = next(p for path, p in _subcommands(parser) if path == ("settop",))
        settop.add_argument("--duration-ms", type=float, default=500.0)
        assert _ignored_flags(parser) == ["settop --duration-ms"]

    def test_an_ignored_lint_flag_is_caught(self):
        from repro.lint import cli as lint_cli

        parser = lint_cli.build_parser()
        parser.add_argument("--flow", action="store_true")
        assert _ignored_flags(parser, lint_cli.main) == ["repro-lint --flow"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_retired_bench_surface_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        commands = capsys.readouterr().out.split("positional arguments")[1]
        assert "bench" not in commands and "loadgen" in commands
        for argv in (["bench", "--suite", "core"], ["loadgen", "--tolerance", "0.25"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    def test_flag_surface_matches_the_parent(self):
        """No flag added or dropped, no default, choice or arity moved:
        ``cli_flags.json`` is what ``build_parser()`` yielded at 1b58b8c,
        plus ``fuzz --differential``, minus the retired ``report`` and
        ``export`` commands.  ``type`` is left out, so range checkers may land."""
        import json
        from pathlib import Path

        from repro.cli import build_parser

        pinned = json.loads((Path(__file__).parent / "cli_flags.json").read_text())
        assert _flag_surface(build_parser()) == pinned

    @pytest.mark.parametrize("argv", [
        ["cluster", "--nodes", "0"],
        ["serve", "--nodes", "0"],
        ["cluster", "--nodes", "100"],
        ["cluster", "--drop-rate", "1.5"],
        ["cluster", "--drop-rate", "1"],
        ["cluster", "--latency-us", "-5"],
        ["serve", "--latency-us", "-5"],
        ["cluster", "--max-chunk-events", "1", "--obs-out", "{tmp}"],
        ["figure3", "--duration-ms", "-5"],
        ["run", "--duration-ms", "0"],
        ["loadgen", "--rps-per-client", "0"],
        ["loadgen", "--clients", "0"],
        ["loadgen", "--duration", "-1"],
        ["fuzz", "--budget", "-1"],
        ["fuzz", "--budget", "0"],
        ["fuzz", "--time-budget", "-1"],
        ["fuzz", "sweep", "--mixes", "0"],
        ["fuzz", "sweep", "--iterations", "-3"],
        ["figure3", "--width", "0"],
        ["figure4", "--width", "-5"],
        ["obs", "prof", "report", "{tmp}", "--top", "-2"],
        ["cluster", "--nodes", "four"],
    ], ids=" ".join)
    def test_an_out_of_range_number_is_a_usage_error(self, argv, tmp_path, capsys):
        """Rejected by the parser: exit 2 before any work starts, no
        traceback and nothing written."""
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(tmp=tmp_path / "obs") for arg in argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}: " in captured.err
        assert not (tmp_path / "obs").exists()

    def test_seed_changes_runs_deterministically(self, capsys):
        main(["figure4", "--seed", "1", "--duration-ms", "400"])
        first = capsys.readouterr().out
        main(["figure4", "--seed", "1", "--duration-ms", "400"])
        second = capsys.readouterr().out
        assert first == second


class TestObsAnalysisCli:
    @pytest.fixture(scope="class")
    def obs_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs") / "run"
        assert main(["run", "--scenario", "figure5", "--seed", "11",
                     "--duration-ms", "200", "--obs-out", str(out)]) == 0
        return out

    def test_report_renders_markdown(self, obs_dir, capsys):
        assert main(["obs", "report", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Observability report" in out
        assert "## Grant delivery per task" in out

    def test_report_is_byte_deterministic(self, obs_dir, tmp_path, capsys):
        for fmt in ("markdown", "json"):
            a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            assert main(["obs", "report", str(obs_dir), "--format", fmt,
                         "--out", str(a)]) == 0
            assert main(["obs", "report", str(obs_dir), "--format", fmt,
                         "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_report_json_parses(self, obs_dir, capsys):
        import json

        assert main(["obs", "report", str(obs_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(t["delivery_ratio"] == 1.0 for t in payload["tasks"])

    def test_check_passes_on_the_committed_slos(self, obs_dir, capsys):
        assert main(["obs", "check", str(obs_dir), "--slo", "slo.toml"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "VIOLATED" not in out

    def test_check_fails_on_a_violated_objective(self, obs_dir, tmp_path, capsys):
        slo = tmp_path / "impossible.toml"
        slo.write_text(
            '[[slo]]\nname = "impossible"\nmetric = "deadline_misses"\n'
            'per = "fleet"\nop = ">="\nthreshold = 1.0\n',
            encoding="utf-8",
        )
        assert main(["obs", "check", str(obs_dir), "--slo", str(slo)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "1 violation(s)" in out

    def test_report_with_slo_section(self, obs_dir, capsys):
        assert main(["obs", "report", str(obs_dir), "--slo", "slo.toml"]) == 0
        out = capsys.readouterr().out
        assert "## Service-level objectives" in out

    def test_obs_without_subcommand_describes_the_taxonomy(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "Event taxonomy" in out
        assert "slo-alert" in out


def test_a_reader_that_hangs_up_ends_obs_query_quietly(tmp_path, capsys):
    """``obs query DIR | head -n 1``: once the reader closes the pipe the
    command exits 141 (128 + SIGPIPE) with nothing on stderr.  The
    query prints about 116 KB, more than a pipe holds, so the writer
    meets the closed pipe whatever the timing."""
    import os
    import subprocess
    from pathlib import Path

    import repro

    out = tmp_path / "settop"
    assert main(["run", "--scenario", "settop", "--seed", "3",
                 "--duration-ms", "4000", "--obs-out", str(out)]) == 0
    capsys.readouterr()
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    query = subprocess.Popen(
        [sys.executable, "-m", "repro", "obs", "query", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = query.stdout.readline()
    query.stdout.close()
    _, stderr = query.communicate(timeout=120)
    assert query.returncode == 141
    assert stderr == b""
    assert b"admission: accepted" in first


FOUR_ARTIFACTS = ["events.jsonl", "metrics.prom", "pipeline.json", "trace.perfetto.json"]


@pytest.mark.parametrize("command", [
    ["report"], ["check", "--slo", "slo.toml"],
    ["query"], ["explain", "--task", "video"],
])
@pytest.mark.parametrize("log", ["missing", "no-events-jsonl", "columnar.json"])
def test_obs_reader_rejects_a_bad_event_log(command, log, tmp_path, capsys):
    """A log the loader cannot read — no path, a directory without
    events.jsonl, a leftover columnar file — is a usage error (exit 2,
    one line), not an SLO violation (exit 1) and not a traceback."""
    target = tmp_path / log
    if log == "no-events-jsonl":
        target.mkdir()
        (target / "pipeline.json").write_text("{}\n")
    elif log == "columnar.json":
        target.write_text('{"format":"repro-obs-columnar","version":1}\n')
    argv = ["obs", command[0], str(target), *command[1:]]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and str(target) in out


@pytest.mark.parametrize("command", [["obs", "report", "{log}"],
                                     ["obs", "check", "{log}"], ["serve"]],
                         ids=["report", "check", "serve"])
@pytest.mark.parametrize("spec", [None, "[[slo]\n", '[[slo]]\nname = "x"\n'
                                  'metric = "nope"\nthreshold = 1.0\n'],
                         ids=["missing", "invalid-toml", "unknown-metric"])
def test_a_bad_slo_spec_is_a_usage_error(command, spec, tmp_path, capsys):
    """An SLO spec the loader rejects fails before any work starts:
    one line naming the file and exit 2, not a traceback."""
    log = tmp_path / "run"
    log.mkdir()
    (log / "events.jsonl").write_text("")
    slo = tmp_path / "slo.toml"
    if spec is not None:
        slo.write_text(spec, encoding="utf-8")
    argv = [arg.format(log=log) for arg in command]
    assert main([*argv, "--slo", str(slo)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and str(slo) in out


class TestObsPipelineCli:
    @pytest.fixture(scope="class")
    def pipeline_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pipeline") / "run"
        assert main(["run", "--scenario", "cluster_rack", "--seed", "7",
                     "--duration-ms", "200", "--obs-out", str(out)]) == 0
        return out

    def test_pipeline_writes_the_four_artifacts(self, pipeline_dir):
        assert sorted(p.name for p in pipeline_dir.iterdir()) == FOUR_ARTIFACTS

    def test_obs_pipeline_flag_is_rejected_by_argparse(self, capsys):
        for argv in (
            ["run", "--scenario", "figure5"],
            ["cluster", "--nodes", "2", "--duration-ms", "200"],
            ["fuzz", "replay", "tests/fuzz/corpus"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + ["--obs-pipeline"])
            assert exit_info.value.code == 2
            assert "--obs-pipeline" in capsys.readouterr().err

    def test_observed_cluster_writes_four_artifacts_and_ships(
        self, tmp_path, capsys
    ):
        out = tmp_path / "obs"
        assert main(["cluster", "--nodes", "2", "--duration-ms", "200",
                     "--obs-out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == FOUR_ARTIFACTS
        assert "\npipeline: " in capsys.readouterr().out

    def test_max_chunk_events_still_samples(self, tmp_path):
        import json

        out = tmp_path / "obs"
        assert main(["cluster", "--nodes", "2", "--duration-ms", "200",
                     "--obs-out", str(out), "--max-chunk-events", "4"]) == 0
        totals = json.loads((out / "pipeline.json").read_text())["totals"]
        assert totals["sampled_out"] > 0
        assert totals["emitted"] == (
            totals["delivered"] + totals["dropped"] + totals["sampled_out"]
        )

    def test_query_filters_and_is_deterministic(self, pipeline_dir, capsys):
        args = ["obs", "query", str(pipeline_dir), "--kind", "context-switch",
                "--node", "node00", "--window", "0:5000000"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "matched" in first

    def test_query_count_only(self, pipeline_dir, capsys):
        assert main(["obs", "query", str(pipeline_dir), "--kind", "admission",
                     "--count"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("event(s) matched")
        assert "admission:" not in out

    def test_query_rejects_bad_kind_and_window(self, pipeline_dir, capsys):
        assert main(["obs", "query", str(pipeline_dir),
                     "--kind", "nope"]) == 2
        assert "unknown event kind" in capsys.readouterr().out
        # A malformed window is the parser's usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "query", str(pipeline_dir), "--window", "oops"])
        assert exit_info.value.code == 2
        assert "LO:HI" in capsys.readouterr().err

    def test_explain_rejects_a_pipeline_json_that_is_not_json(
        self, pipeline_dir, tmp_path, capsys
    ):
        import shutil

        target = tmp_path / "run"
        shutil.copytree(pipeline_dir, target)
        (target / "pipeline.json").write_text("{not json")
        assert main(["obs", "explain", str(target), "--task", "video"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "pipeline.json" in out

    def test_explain_names_known_tasks_on_a_bad_task(self, pipeline_dir, capsys):
        assert main(["obs", "explain", str(pipeline_dir),
                     "--task", "nope"]) == 2
        assert "no task 'nope' in this event stream" in capsys.readouterr().out


class TestFuzzCli:
    def test_campaign_is_clean_and_summarized(self, tmp_path, capsys):
        assert main(
            ["fuzz", "--budget", "3", "--seed", "1", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fuzz[core] seed=1: 3 scenarios" in out
        assert "clean" in out

    def test_injected_campaign_fails_and_writes_reproducers(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "fuzz", "--budget", "3", "--seed", "2",
                "--inject", "edf-invert", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "failing scenario" in capsys.readouterr().out
        assert list(tmp_path.glob("*.trace.json"))

    def test_campaign_summary_matches_the_parent(self, tmp_path, capsys):
        """Pinned at e4b4528, where every greedy-server poll was a
        re-pick: the audit still checks each poll as one decision.
        Re-recorded once, when a grant the dispatching pick activated
        stopped ending that pick's slice: 48,073 -> 47,991 decisions,
        the 82 re-picks that followed an activating pick."""
        import re

        assert main(
            ["fuzz", "--budget", "25", "--seed", "0", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert re.sub(r" \(\d+\.\ds\)$", "", out.rstrip("\n")) == (
            "fuzz[core] seed=0: 25 scenarios, 47991 decisions checked, "
            "5 admission denials, clean"
        )

    def test_injected_reproducers_match_the_parent(self, tmp_path, capsys):
        """sha256[:16] over the reproducers' names and bytes, pinned at
        e4b4528: shrinking re-runs each spec, so any moved decision
        moves a file.  Re-recorded once, when a grant the dispatching
        pick activated stopped ending that pick's slice: the re-pick at
        t=0 that followed the activating pick was where each of the five
        specs first met a contended decision, so each inversion is now
        caught at its next one (the same five files, each still
        ``invariant:edf-order``; details, shrink runs and one shrunk
        arrival moved)."""
        import hashlib

        assert main(
            [
                "fuzz", "--budget", "5", "--seed", "0",
                "--inject", "edf-invert", "--out", str(tmp_path),
            ]
        ) == 1
        capsys.readouterr()
        files = sorted(tmp_path.glob("*.trace.json"))
        blob = b"".join(p.name.encode() + p.read_bytes() for p in files)
        assert len(files) == 5
        assert hashlib.sha256(blob).hexdigest()[:16] == "877e9bb14c4d1999"

    def test_replay_corpus_directory(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parent / "fuzz" / "corpus"
        assert main(["fuzz", "replay", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "0 diverged" in out

    def test_replay_divergence_exits_nonzero(self, tmp_path, capsys):
        from repro.fuzz import TraceFile, generate, write_trace

        spec = generate(1)
        path = write_trace(
            tmp_path / "lie.trace.json",
            TraceFile(spec=spec, expect="invariant:edf-order"),
        )
        assert main(["fuzz", "replay", str(path)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_empty_directory_is_an_error(self, tmp_path, capsys):
        assert main(["fuzz", "replay", str(tmp_path)]) == 2
        assert "no *.trace.json" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "damage, message",
        [
            (None, "no trace file"),
            (lambda text, data: "{not json", "not valid JSON"),
            (lambda text, data: {**data, "schema_version": 99}, "newer repro"),
            (lambda text, data: {**data, "kind": "repro.obs.events"}, "not a fuzz trace"),
            (lambda text, data: {**data, "spec": {**data["spec"], "tasks": 5}},
             "tasks must be a list"),
        ],
        ids=["missing-file", "bad-json", "schema-version", "kind", "mistyped-field"],
    )
    def test_replay_of_an_unreadable_trace_is_a_usage_error(
        self, damage, message, tmp_path, capsys
    ):
        """Exit 2 and the loader's one line: exit 1 means "diverged"."""
        import json
        from pathlib import Path

        target = tmp_path / "bad.trace.json"
        if damage is not None:
            source = Path(__file__).parent / "fuzz" / "corpus" / "core-plain.trace.json"
            text = source.read_text()
            damaged = damage(text, json.loads(text))
            target.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        assert main(["fuzz", "replay", str(target)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and str(target) in out and message in out

    def test_sweep_renders_and_writes_the_curve(self, tmp_path, capsys):
        import json

        from repro.fuzz.sweep import SWEEP_KIND, run_sweep

        out = tmp_path / "fuzz_thresholds.json"
        assert main(
            [
                "fuzz", "sweep", "--mixes", "1", "--iterations", "4",
                "--out", str(out),
            ]
        ) == 0
        assert "admission-threshold sweep" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["kind"] == SWEEP_KIND
        assert payload == run_sweep(0, mixes=1, iterations=4)
