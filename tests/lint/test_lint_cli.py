"""The repro-lint command line: output formats, the one tier, exit codes."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    JSON_SCHEMA_VERSION,
    main,
)
from repro.lint.rules import RULE_CLASSES

TREE = Path(__file__).parent / "fixtures" / "tree"
FLOWTREE = Path(__file__).parent / "fixtures" / "flowtree"
REPO = Path(__file__).parents[2]


class TestTextOutput:
    def test_violations_print_file_line_rule_message(self, capsys):
        code = main([str(TREE / "repro/core/bad_except.py")])
        out = capsys.readouterr()
        assert code == EXIT_VIOLATIONS
        first = out.out.splitlines()[0]
        path, rest = first.split(" ", 1)
        assert path.endswith("bad_except.py:7")
        assert rest.startswith("except-hygiene ")
        assert "violation(s)" in out.err

    def test_clean_tree_exits_zero(self, capsys):
        code = main([str(REPO / "src")])
        assert code == EXIT_CLEAN
        assert capsys.readouterr().out == ""


class TestJsonOutput:
    def test_json_format_is_machine_readable(self, capsys):
        code = main([str(TREE / "loose_float.py"), "--format=json"])
        assert code == EXIT_VIOLATIONS
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4
        assert {v["rule"] for v in payload["violations"]} == {"tick-units"}
        assert {"path", "line", "col", "rule", "message"} <= set(
            payload["violations"][0]
        )

    def test_json_on_clean_input(self, capsys):
        code = main([str(TREE / "repro/core/clean.py"), "--format=json"])
        assert code == EXIT_CLEAN
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_payload_is_self_describing(self, capsys):
        main([str(FLOWTREE), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == JSON_SCHEMA_VERSION == 5
        assert set(payload) == {"schema_version", "count", "violations"}
        witnessed = [v for v in payload["violations"] if v["witness"]]
        assert witnessed, "flow findings must serialize their witness paths"

    def test_output_is_byte_identical_across_runs(self, capsys):
        main([str(FLOWTREE), "--format=json"])
        first = capsys.readouterr().out
        main([str(FLOWTREE), "--format=json"])
        second = capsys.readouterr().out
        assert first == second

    def test_violations_arrive_fully_sorted(self, capsys):
        main([str(FLOWTREE), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        keys = [
            (v["path"], v["line"], v["col"], v["rule"], v["message"])
            for v in payload["violations"]
        ]
        assert keys == sorted(keys)


class TestFlowTier:
    def test_no_flag_surfaces_interprocedural_findings(self, capsys):
        """The whole-program findings that used to need ``--flow``."""
        code = main([str(FLOWTREE)])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATIONS
        assert "tick-units" in out
        # Text output renders the path witness inline.
        assert (
            "[repro.core.bad_units.relay -> "
            "repro.core.bad_units.set_deadline(deadline: ticks)]"
        ) in out

    def test_the_tier_switches_are_gone(self, capsys):
        for flag in ("--flow", "--no-flow"):
            with pytest.raises(SystemExit) as exc:
                main([str(FLOWTREE), flag])
            assert exc.value.code == EXIT_ERROR
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_acceptance_repo_src_is_clean_with_flow(self, capsys):
        code = main([str(REPO / "src")])
        assert code == EXIT_CLEAN, capsys.readouterr().out


class TestListRules:
    def test_catalog_names_every_registered_rule(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        ids = [line.split()[0] for line in out.splitlines()]
        assert ids == [cls.id for cls in RULE_CLASSES] == [
            "except-hygiene",
            "tick-units",
        ]


class TestExplain:
    def test_explains_a_flow_rule(self, capsys):
        assert main(["--explain", "tick-units"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "tick-units [flow (whole-program)]" in out
        assert "rationale:" in out

    def test_explains_a_per_module_rule(self, capsys):
        assert main(["--explain", "except-hygiene"]) == EXIT_CLEAN
        assert "[per-module]" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["--explain", "no-such-rule"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "unknown rule 'no-such-rule'" in err
        assert "tick-units" in err  # lists the known ids


class TestErrors:
    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["does/not/exist"]) == EXIT_ERROR
        assert "no such path" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["README.md", "empty"])
    def test_a_target_without_python_files_is_a_usage_error(
        self, capsys, tmp_path, target
    ):
        """A target that holds no ``.py`` file is not a clean lint."""
        path = REPO / target if target == "README.md" else tmp_path
        assert main([str(REPO / "src"), str(path)]) == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"repro-lint: no Python file in: {path}\n"

    def test_the_config_switch_is_gone(self, capsys):
        """Every rule runs on every file: there is no config table to
        point at and no inline ``disable=`` comment."""
        with pytest.raises(SystemExit) as exc:
            main([str(TREE), "--config", str(REPO / "pyproject.toml")])
        assert exc.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err
