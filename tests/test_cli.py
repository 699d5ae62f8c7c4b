"""CLI: every command runs, prints the right artifact, and exits 0."""

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

    def test_export_segments_csv(self, capsys):
        assert main(["export", "--duration-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("thread_id,start,end,kind")

    def test_export_json(self, capsys):
        import json

        assert main(["export", "--format", "json", "--duration-ms", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "segments" in doc and "deadlines" in doc

    def test_export_deadlines(self, capsys):
        assert main(["export", "--format", "deadlines", "--duration-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("thread_id,period_index")

    def test_report_settop(self, capsys):
        assert main(["report", "--scenario", "settop", "--duration-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "trace audit: OK" in out

    def test_report_unknown_scenario(self, capsys):
        assert main(["report", "--scenario", "nope"]) == 2


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
    ("report", "--scenario", "settop", "--seed", "3"): "45a988e49eb1b3c2",
    ("report", "--scenario", "av", "--seed", "3"): "f21b488ebee37fc3",
    ("report", "--scenario", "figure5", "--seed", "3"): "d4c182fa0dd98905",
}


@pytest.mark.parametrize("argv", PARENT_STDOUT, ids=" ".join)
def test_stdout_matches_the_parent(argv, capsys):
    import hashlib

    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == PARENT_STDOUT[argv]


@pytest.mark.parametrize(
    "script, digest",
    [("scheduler_faceoff.py", "756459520d2b3f9e"), ("settop_box.py", "433bba7c89ba896b")],
)
def test_example_stdout_matches_the_parent(script, digest, capsys):
    import hashlib
    import runpy
    from pathlib import Path

    examples = Path(__file__).parent.parent / "examples"
    runpy.run_path(str(examples / script), run_name="__main__")
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == digest


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


class TestObsPipelineCli:
    @pytest.fixture(scope="class")
    def pipeline_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pipeline") / "run"
        assert main(["run", "--scenario", "cluster_rack", "--seed", "7",
                     "--duration-ms", "200", "--obs-out", str(out)]) == 0
        return out

    def test_pipeline_writes_the_columnar_artifacts(self, pipeline_dir):
        for name in ("events.col.json", "pipeline.json", "pipeline.prom"):
            assert (pipeline_dir / name).is_file(), name

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

    def test_observed_cluster_writes_six_artifacts_and_ships(
        self, tmp_path, capsys
    ):
        out = tmp_path / "obs"
        assert main(["cluster", "--nodes", "2", "--duration-ms", "200",
                     "--obs-out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "events.col.json", "events.jsonl", "metrics.prom",
            "pipeline.json", "pipeline.prom", "trace.perfetto.json",
        ]
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
        assert main(["obs", "query", str(pipeline_dir),
                     "--window", "oops"]) == 2
        assert "LO:HI" in capsys.readouterr().out

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
