"""Engine plumbing: module names, suppression, parse errors, config."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    LintConfigError,
    collect_files,
    load_config,
    module_name,
    run_lint,
)
from repro.lint.rules import RULE_CLASSES

TREE = Path(__file__).parent / "fixtures" / "tree"


class TestModuleName:
    def test_walks_the_init_chain(self):
        assert module_name(TREE / "repro/core/scheduler.py") == "repro.core.scheduler"
        assert module_name(TREE / "repro/sim/rng.py") == "repro.sim.rng"

    def test_init_file_names_the_package(self):
        assert module_name(TREE / "repro/core/__init__.py") == "repro.core"

    def test_loose_file_keeps_its_stem(self):
        assert module_name(TREE / "loose_float.py") == "loose_float"

    def test_real_tree(self):
        src = Path(__file__).parents[2] / "src"
        assert module_name(src / "repro/core/kernel.py") == "repro.core.kernel"


class TestSuppression:
    def test_matching_and_all_suppress_wrong_id_does_not(self):
        violations = run_lint([TREE / "suppressed.py"])
        assert [v.line for v in violations] == [7]
        assert violations[0].rule_id == "float-ticks"

    def test_marker_anywhere_on_a_multiline_statement(self, tmp_path):
        # The violation sits on the argument line; the marker sits on
        # the closing-paren line of the same statement.
        mod = tmp_path / "spread.py"
        mod.write_text(
            "def build():\n"
            "    return validate_period(\n"
            "        1.5,\n"
            "    )  # repro-lint: disable=float-ticks\n"
        )
        assert run_lint([mod]) == []

    def test_marker_on_def_header_covers_decorator_violation(self, tmp_path):
        mod = tmp_path / "decorated.py"
        mod.write_text(
            "@register(period=1.5)\n"
            "def tick():  # repro-lint: disable=float-ticks\n"
            "    return 0\n"
        )
        assert run_lint([mod]) == []

    def test_marker_on_multiline_decorator(self, tmp_path):
        mod = tmp_path / "decorated_spread.py"
        mod.write_text(
            "@register(\n"
            "    period=1.5,\n"
            ")  # repro-lint: disable=float-ticks\n"
            "def tick():\n"
            "    return 0\n"
        )
        assert run_lint([mod]) == []

    def test_marker_on_a_sibling_statement_does_not_leak(self, tmp_path):
        mod = tmp_path / "sibling.py"
        mod.write_text(
            "def f():\n"
            "    x = validate_period(1.5)\n"
            "    return x  # repro-lint: disable=float-ticks\n"
        )
        violations = run_lint([mod])
        assert [v.line for v in violations] == [2]

    def test_marker_in_body_does_not_silence_the_whole_function(self, tmp_path):
        mod = tmp_path / "body.py"
        mod.write_text(
            "def f():\n"
            "    # repro-lint: disable=float-ticks\n"
            "    pass\n"
            "\n"
            "def g():\n"
            "    return validate_period(1.5)\n"
        )
        violations = run_lint([mod])
        assert [v.line for v in violations] == [6]

    def test_flow_violations_honor_suppressions(self, tmp_path):
        mod = tmp_path / "clock.py"
        mod.write_text(
            "def late(deadline_ticks, slack_ms):\n"
            "    return deadline_ticks - slack_ms\n"
            "\n"
            "def later(deadline_ticks, slack_ms):\n"
            "    return deadline_ticks - slack_ms  # repro-lint: disable=tick-units\n"
            "\n"
            "def latest(deadline_ticks, slack_ms):\n"
            "    return deadline_ticks < slack_ms  # repro-lint: disable=all\n"
        )
        assert [(v.line, v.rule_id) for v in run_lint([mod])] == [(2, "tick-units")]


class TestParseErrors:
    def test_syntax_error_becomes_a_violation(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        violations = run_lint([bad])
        assert len(violations) == 1
        assert violations[0].rule_id == "parse-error"
        assert "cannot parse" in violations[0].message


class TestCollectFiles:
    def test_directories_recurse_and_dedupe(self):
        files = collect_files([TREE, TREE / "loose_float.py"])
        assert files.count(TREE / "loose_float.py") == 1
        assert TREE / "repro/core/bad_clock.py" in files

    def test_non_python_targets_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        assert collect_files([tmp_path / "notes.txt"]) == []


class TestConfig:
    def test_disable_switches_a_rule_off(self):
        config = LintConfig(disable=("float-ticks",))
        assert run_lint([TREE / "loose_float.py"], config=config) == []

    def test_enable_restricts_to_listed_rules(self):
        config = LintConfig(enable=("wallclock",))
        violations = run_lint([TREE / "repro" / "core"], config=config)
        assert violations and all(v.rule_id == "wallclock" for v in violations)

    def test_exclude_skips_matching_paths(self):
        config = LintConfig(exclude=("repro/core",))
        violations = run_lint([TREE], config=config)
        assert all("core" not in Path(v.path).parts for v in violations)

    def test_unknown_rule_id_is_a_config_error(self):
        config = LintConfig(disable=("no-such-rule",))
        with pytest.raises(LintConfigError, match="no-such-rule"):
            config.validate_rule_ids({cls.id for cls in RULE_CLASSES})

    def test_load_config_reads_the_pyproject_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                disable = ["float-ticks"]
                exclude = ["build"]
                """
            )
        )
        config = load_config(pyproject)
        assert config.disable == ("float-ticks",)
        assert config.path_excluded(Path("build/generated.py"))
        assert not config.path_excluded(Path("src/repro/cli.py"))

    def test_load_config_missing_file_gives_defaults(self, tmp_path):
        config = load_config(tmp_path / "pyproject.toml")
        assert config == LintConfig()

    def test_malformed_table_raises(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\ndisable = 'oops'\n")
        with pytest.raises(LintConfigError, match="list of strings"):
            load_config(pyproject)

    def test_repo_pyproject_parses(self):
        repo_pyproject = Path(__file__).parents[2] / "pyproject.toml"
        config = load_config(repo_pyproject)
        config.validate_rule_ids({cls.id for cls in RULE_CLASSES})
