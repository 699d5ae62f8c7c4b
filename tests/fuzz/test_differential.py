"""Differential fuzzing: every spec on the shipped and the reference
stack (``repro.fuzz.reference``: the from-scratch core, the lockstep
cluster loop).

The corpus replays differentially here, so a change that makes the
shipped core and the from-scratch reference disagree on a committed
scenario fails tier-1 as ``divergence:<field>``.  Each core entry also
replays on the shipped stack in 1 ms calls, against the reference run
in one call: the shipped kernel resumes a slice a call's horizon cut,
so the cut run is the one-call run (the reference re-picks at every
cut, so only its one-call run is the yardstick).  A seeded
disagreement proves the outcome is named, shrunk, written and replayed
like any other."""

from pathlib import Path

import pytest

from repro import units
from repro.cli import main
from repro.core.kernel import Kernel
from repro.fuzz import (
    generate,
    load_trace,
    replay,
    run_campaign,
    run_spec,
    scenario_seed,
)
from repro.fuzz import reference
from repro.fuzz.inject import injector
from repro.fuzz.runner import DIFFERENTIAL_FIELDS, _CoreRun

CORPUS = Path(__file__).parent / "corpus"
CORE_ENTRIES = [
    path
    for path in sorted(CORPUS.glob("*.trace.json"))
    if load_trace(path).spec.cluster is None
]


def test_the_corpus_has_core_entries():
    assert len(CORE_ENTRIES) >= 5


@pytest.mark.parametrize("path", CORE_ENTRIES, ids=lambda p: p.stem)
def test_core_corpus_entry_replays_differentially(path):
    """An ``ok`` entry agrees with the reference on every field; an
    injected entry is still named by the sanitizer's first violation."""
    trace = load_trace(path)
    result = run_spec(trace.spec, inject=trace.inject, differential=True)
    assert result.outcome == trace.expect, result.detail


def _run(trace, on_reference: bool, step: int | None):
    """``trace``'s spec run to its horizon in calls of ``step`` ticks
    (one call when None), in record mode so an injected entry runs on
    past its violation."""
    run = _CoreRun(trace.spec, sanitize="record", reference=on_reference)
    rd = run.script(injector(trace.inject)).rd
    horizon = trace.spec.horizon_ticks
    for cut in range(step or horizon, horizon, step or horizon):
        rd.run_until(cut)
    rd.run_until(horizon)
    return rd


@pytest.mark.parametrize("path", CORE_ENTRIES, ids=lambda p: p.stem)
def test_core_corpus_entry_agrees_when_cut_every_ms(path):
    """A cut is no decision: stepped in 1 ms calls, the shipped stack
    makes the reference's one-call run, with the same audit count."""
    trace = load_trace(path)
    shipped = _run(trace, False, units.ms_to_ticks(1))
    ref = _run(trace, True, None)
    for name in DIFFERENTIAL_FIELDS:
        assert getattr(shipped.trace, name) == getattr(ref.trace, name), name
    assert shipped.sanitizer.decisions_checked == ref.sanitizer.decisions_checked


def _upper_reasons(self, time, thread, grant, reason):
    """A reference kernel that spells its grant-change reasons in
    capitals: a disagreement on that one field and nothing else."""
    Kernel._record_grant_change(self, time, thread, grant, reason.upper())


def test_a_divergence_is_named_shrunk_written_and_replayed(monkeypatch, tmp_path):
    monkeypatch.setattr(
        reference.FromScratchKernel, "_record_grant_change", _upper_reasons,
        raising=False,
    )
    spec = generate(3)
    assert run_spec(spec).ok
    result = run_spec(spec, differential=True)
    assert result.outcome == "divergence:grant-changes"
    assert "'first grant'" in result.detail and "'FIRST GRANT'" in result.detail
    stats = run_campaign(budget=1, seed=3, differential=True, out_dir=tmp_path)
    [failure] = stats.failures
    assert failure.outcome == "divergence:grant-changes"
    assert len(failure.shrunk.tasks) == 1
    assert "fuzz[core, differential]" in stats.summary()
    replayed = replay(failure.trace_path, load_trace(failure.trace_path))
    assert replayed.matches, replayed.summary()
    monkeypatch.undo()
    assert not replay(failure.trace_path, load_trace(failure.trace_path)).matches


def test_a_cluster_spec_runs_differentially(monkeypatch, capsys):
    """A cluster spec runs on the lockstep loop too; a reference that
    stops short of settling is named by the first book that differs."""
    spec = generate(scenario_seed(0, 0, cluster=True), cluster=True)
    assert run_spec(spec, differential=True).ok
    assert main(["fuzz", "--cluster", "--differential", "--budget", "1"]) == 0
    assert "fuzz[cluster, differential]" in capsys.readouterr().out
    monkeypatch.setattr(
        reference.LockstepSimulation, "settle", lambda self, max_rounds=0: True
    )
    result = run_spec(spec, differential=True)
    assert result.outcome == "divergence:now", result.detail
    assert result.detail.startswith("now: shipped ")
