"""Benchmark harness helpers.

Every bench regenerates one of the paper's tables or figures, writes
the rendered artifact to ``benchmarks/out/<id>.txt``, prints it (visible
with ``pytest -s``), and asserts the *shape* the paper reports.  Timing
comes from pytest-benchmark; absolute numbers are host-dependent and
not compared against the MAP1000.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def report(report_dir, capsys):
    """Write an artifact file and echo it to the real terminal."""

    def _report(artifact_id: str, text: str) -> None:
        path = report_dir / f"{artifact_id}.txt"
        path.write_text(text + "\n")
        with capsys.disabled():
            print(f"\n--- {artifact_id} ({path}) ---")
            print(text)

    return _report
