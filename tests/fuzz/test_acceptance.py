"""The ISSUE's acceptance loop, end to end: a synthetically injected
scheduler bug is caught by the sanitizer oracle, shrunk to a tiny
reproducer, persisted as a trace file, and reproduced from that file."""

from pathlib import Path

from repro.fuzz import load_trace, replay, run_campaign


def test_injected_bug_is_caught_shrunk_and_replayed(tmp_path):
    stats = run_campaign(
        6, seed=11, inject="edf-invert", out_dir=tmp_path
    )
    # Caught: the armed EDF inversion cannot survive the oracle.
    assert not stats.ok
    failure = stats.failures[0]
    assert failure.outcome == "invariant:edf-order"

    # Shrunk: the reproducer is tiny (the ISSUE asks for <= 3 tasks).
    assert len(failure.shrunk.tasks) <= 3

    # Persisted: a self-contained trace file exists on disk.
    path = Path(failure.trace_path)
    assert path.is_file()
    trace = load_trace(path)
    assert trace.expect == failure.outcome
    assert trace.inject == "edf-invert"

    # Reproduced: replaying the file re-arms the bug and hits the same
    # outcome against the current code.
    replayed = replay(path, load_trace(path))
    assert replayed.matches, replayed.summary()
