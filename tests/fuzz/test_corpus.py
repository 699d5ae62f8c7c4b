"""The committed regression corpus, replayed in tier-1.

Every ``tests/fuzz/corpus/*.trace.json`` must reproduce its recorded
outcome against the current code: ``expect: ok`` entries prove the
invariants still hold on once-tricky scenarios (including the kernel
dispatch-race reproducers the fuzzer caught), and injected entries
prove the pipeline still detects a real scheduler bug."""

from pathlib import Path

import pytest

from repro.fuzz import load_trace, replay

CORPUS = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS.glob("*.trace.json"))


def test_corpus_is_populated():
    assert len(ENTRIES) >= 5
    names = {p.name for p in ENTRIES}
    assert any("kernel-dispatch-race" in n for n in names)
    assert any("cluster" in n for n in names)
    assert any("inject" in n for n in names)


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_reproduces(path):
    replayed = replay(path, load_trace(path))
    assert replayed.matches, replayed.summary()


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_reproduces_in_record_mode(path):
    """A recording run goes on past its first violation but is named by
    it, so every entry's strict-mode expectation holds here too."""
    replayed = replay(path, load_trace(path), sanitize="record")
    assert replayed.matches, replayed.summary()


class TestKernelDispatchRaceRegression:
    """The fuzzer's first real catch: a stale Idle pick dispatched after
    the switch cost carried the clock across another thread's period
    boundary slept through that thread's entire period (grant-delivery).
    The shrunk reproducers are pinned here as must-stay-clean entries."""

    def entries(self):
        found = sorted(CORPUS.glob("kernel-dispatch-race-*.trace.json"))
        assert len(found) == 2
        return found

    def test_reproducers_stay_clean(self):
        for path in self.entries():
            replayed = replay(path, load_trace(path))
            assert replayed.expect == "ok"
            assert replayed.matches, replayed.summary()
            assert replayed.result.decisions_checked > 0

    def test_shape_matches_the_race_window(self):
        # The race needs a real (calibrated) switch cost and harmonic
        # periods so a boundary can land inside the switch window.
        for path in self.entries():
            spec = load_trace(path).spec
            assert spec.machine == "calibrated"
            assert len(spec.tasks) >= 2
