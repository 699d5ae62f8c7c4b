"""Engine plumbing: module names, parse errors, file collection."""

from pathlib import Path

from repro.lint import collect_files, module_name, run_lint

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


class TestEveryRuleRuns:
    def test_a_disable_comment_is_an_ordinary_comment(self, tmp_path):
        mod = tmp_path / "marked.py"
        mod.write_text("A = ticks_to_ms(1.5)  # repro-lint: disable=all\n")
        assert [(v.line, v.rule_id) for v in run_lint([mod])] == [(1, "tick-units")]


class TestParseErrors:
    def test_syntax_error_becomes_a_violation(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        violations = run_lint([bad])
        assert len(violations) == 1
        assert violations[0].rule_id == "parse-error"
        assert "cannot parse" in violations[0].message

    def test_undecodable_bytes_become_a_violation(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"x = 1\ny = '\xff'\n")
        violations = run_lint([bad])
        assert [(v.line, v.rule_id) for v in violations] == [(2, "parse-error")]
        assert "can't decode byte 0xff" in violations[0].message

    def test_a_coding_cookie_is_honoured(self, tmp_path):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b"# -*- coding: latin-1 -*-\ny = '\xff'\n")
        assert run_lint([latin]) == []


class TestCollectFiles:
    def test_directories_recurse_and_dedupe(self):
        files = collect_files([TREE, TREE / "loose_float.py"])
        assert files.count(TREE / "loose_float.py") == 1
        assert TREE / "repro/core/bad_clock.py" in files

    def test_non_python_targets_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        assert collect_files([tmp_path / "notes.txt"]) == []
