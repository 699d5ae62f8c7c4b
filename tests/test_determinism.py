"""Golden determinism: identical seeds produce identical runs.

Every stochastic element draws from named, seeded streams, so a run is
a pure function of (machine config, scenario, seed).  These tests hash
whole traces to catch any accidental nondeterminism (dict ordering,
id()-based tie-breaks, hidden globals) that per-field comparisons might
miss.

:data:`DRIVERS` also run in two fresh interpreters under different
``PYTHONHASHSEED`` values, each with the host's clock and unseeded
randomness fenced off (``tests/determinism_guard.py``): their bytes must
match, and no code in ``repro`` outside the clock funnels may read
either.
"""

import contextlib
import hashlib
import io
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro import units
from repro.scenarios import av_pipeline, figure4, figure5, settop, table4_trio

REPO = Path(__file__).parent.parent

#: The trace's own views; together they are the whole recorded run.
VIEWS = ("segments", "switches", "deadlines", "grant_changes", "blocks", "notes")


def fingerprint(scenario, duration_ms):
    scenario.rd.run_for(units.ms_to_ticks(duration_ms))
    views = [list(getattr(scenario.trace, name)) for name in VIEWS]
    return hashlib.sha256(repr(views).encode()).hexdigest()


BUILDERS = {
    "table4": (lambda seed: table4_trio(seed=seed), 200),
    "figure4": (lambda seed: figure4(seed=seed), 200),
    "figure5": (lambda seed: figure5(seed=seed), 150),
    "settop": (lambda seed: settop(seed=seed), 400),
    "av": (lambda seed: av_pipeline(seed=seed), 300),
}


class TestSameSeedSameTrace:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_repeat_runs_identical(self, name):
        builder, duration = BUILDERS[name]
        a = fingerprint(builder(5), duration)
        b = fingerprint(builder(5), duration)
        assert a == b


class TestSeedSensitivity:
    def test_calibrated_machine_runs_differ_across_seeds(self):
        # With stochastic switch costs, different seeds must actually
        # change the trace (the RNG is wired in, not ignored).
        builder, duration = BUILDERS["settop"]
        a = fingerprint(builder(1), duration)
        b = fingerprint(builder(2), duration)
        assert a != b

    def test_ideal_machine_runs_identical_across_seeds(self):
        # With no stochastic elements, the seed is irrelevant: the
        # schedule is pure arithmetic.
        a = fingerprint(table4_trio(seed=1), 200)
        b = fingerprint(table4_trio(seed=2), 200)
        assert a == b


def _cli(*argv: str) -> str:
    """The stdout of ``repro <argv>``, which must exit 0."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, out.getvalue()
    return out.getvalue()


def _cluster_rack() -> str:
    script = REPO / "examples" / "cluster_rack.py"
    out = io.StringIO()
    argv, sys.argv = sys.argv, [str(script), "--seed", "7", "--json"]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_info:
        assert not exit_info.code, out.getvalue()
    finally:
        sys.argv = argv
    return out.getvalue()


def _observed_rack() -> str:
    """The four ``--obs-out`` artifacts of a 400 ms rack run."""
    with tempfile.TemporaryDirectory() as out:
        _cli("run", "--scenario", "cluster_rack", "--seed", "7",
             "--duration-ms", "400", "--obs-out", out)
        return "".join(path.read_text() for path in sorted(Path(out).iterdir()))


def _fuzz_summary() -> str:
    with tempfile.TemporaryDirectory() as out:
        summary = _cli("fuzz", "--budget", "25", "--seed", "0", "--out", out)
    # The campaign's host time is the one clock read the summary shows.
    return re.sub(r" \(\d+\.\ds\)$", "", summary.rstrip("\n"))


#: name -> the bytes a driver's run prints (or its trace's fingerprint).
DRIVERS = {
    **{
        f"fingerprint:{name}": (lambda b=builder, d=duration: fingerprint(b(5), d))
        for name, (builder, duration) in sorted(BUILDERS.items())
    },
    "cluster_rack --seed 7 --json": _cluster_rack,
    "run --scenario cluster_rack --obs-out": _observed_rack,
    "fuzz replay tests/fuzz/corpus": lambda: _cli(
        "fuzz", "replay", str(REPO / "tests" / "fuzz" / "corpus")
    ),
    "fuzz --budget 25 --seed 0": _fuzz_summary,
}


def test_drivers_read_no_host_state_and_ignore_the_hash_seed():
    """Each driver prints the same bytes under two hash seeds, and
    nothing in ``repro`` but the clock funnels reads the host clock or
    unseeded randomness on the way."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "tests.determinism_guard"],
            cwd=REPO,
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    try:
        (out0, err0), (out1, err1) = (run.communicate(timeout=300) for run in runs)
    finally:
        for run in runs:
            run.kill()
    assert [run.returncode for run in runs] == [0, 0], err0 + err1
    assert out0.splitlines() == out1.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in out0.splitlines()] == list(DRIVERS)
