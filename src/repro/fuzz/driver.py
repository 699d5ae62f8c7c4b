"""The fuzz campaign driver: generate → run → classify → shrink → write.

One campaign is ``budget`` scenarios, each generated from its own
sub-seed (derived from the campaign seed, so campaigns are reproducible
and individual scenarios can be re-generated in isolation).  Every
failure is shrunk to a minimal reproducer and written as a
self-contained ``.trace.json`` under the failure directory — committing
such a file into ``tests/fuzz/corpus/`` turns the catch into a
permanent regression test.

The driver may also be bounded by wall time (the nightly CI mode): it
stops starting new scenarios once the time budget is spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.fuzz.generator import generate, scenario_seed
from repro.fuzz.runner import DIVERGENCE, RunResult, run_spec
from repro.fuzz.shrink import shrink
from repro.fuzz.spec import ScenarioSpec, SpecError, TraceFile, load_trace, write_trace


@dataclass
class Failure:
    """One caught failure: the original spec and its shrunk reproducer."""

    index: int
    seed: int
    outcome: str
    detail: str
    spec: ScenarioSpec
    shrunk: ScenarioSpec
    shrink_runs: int
    trace_path: Path | None = None


@dataclass
class CampaignStats:
    """What a whole campaign did."""

    seed: int
    cluster: bool
    differential: bool = False
    scenarios: int = 0
    denials: int = 0
    decisions_checked: int = 0
    elapsed_s: float = 0.0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        mode = "cluster" if self.cluster else "core"
        if self.differential:
            mode += ", differential"
        status = (
            "clean" if self.ok else f"{len(self.failures)} failing scenario(s)"
        )
        lines = [
            f"fuzz[{mode}] seed={self.seed}: {self.scenarios} scenarios, "
            f"{self.decisions_checked} decisions checked, "
            f"{self.denials} admission denials, {status} "
            f"({self.elapsed_s:.1f}s)"
        ]
        for failure in self.failures:
            lines.append(
                f"  #{failure.index} seed={failure.seed} {failure.outcome}: "
                f"{len(failure.spec.tasks)} tasks -> "
                f"{len(failure.shrunk.tasks)} after shrinking "
                f"({failure.shrink_runs} shrink runs)"
            )
            if failure.trace_path is not None:
                lines.append(f"    reproducer: {failure.trace_path}")
        return "\n".join(lines)


def _reproducer_name(failure: Failure) -> str:
    slug = failure.outcome.replace(":", "-").replace("/", "-")
    return f"repro-{failure.seed:016x}-{slug}.trace.json"


def run_campaign(
    budget: int,
    seed: int,
    cluster: bool = False,
    inject: str | None = None,
    out_dir: str | Path = "fuzz-failures",
    shrink_failures: bool = True,
    time_budget_s: float | None = None,
    progress: Callable[[str], None] | None = None,
    differential: bool = False,
) -> CampaignStats:
    """Run ``budget`` generated scenarios; shrink and persist failures.

    ``inject`` arms a synthetic bug in every run (self-test mode).
    ``differential`` also runs every core scenario on the reference
    stack, so a disagreement is a failure (``divergence:<field>``).
    ``time_budget_s`` stops the campaign early once the wall-time budget
    is spent (scenario granularity — the in-flight scenario finishes).
    """
    stats = CampaignStats(seed=seed, cluster=cluster, differential=differential)
    started = time.monotonic()
    for index in range(budget):
        if time_budget_s is not None and time.monotonic() - started >= time_budget_s:
            break
        sub_seed = scenario_seed(seed, index, cluster=cluster)
        spec = generate(sub_seed, cluster=cluster)
        result = run_spec(spec, inject=inject, differential=differential)
        stats.scenarios += 1
        stats.denials += len(result.denied)
        stats.decisions_checked += result.decisions_checked
        if result.ok:
            continue
        failure = _handle_failure(
            seed, index, sub_seed, spec, result, inject, out_dir, shrink_failures
        )
        stats.failures.append(failure)
        if progress is not None:
            progress(
                f"fuzz: scenario #{index} (seed {sub_seed}) failed: "
                f"{failure.outcome}"
            )
    stats.elapsed_s = time.monotonic() - started
    return stats


def _handle_failure(
    campaign_seed: int,
    index: int,
    sub_seed: int,
    spec: ScenarioSpec,
    result: RunResult,
    inject: str | None,
    out_dir: str | Path,
    shrink_failures: bool,
) -> Failure:
    if shrink_failures:
        shrunk_result = shrink(spec, result.outcome, inject=inject)
        shrunk, shrink_runs = shrunk_result.spec, shrunk_result.runs
    else:
        shrunk, shrink_runs = spec, 0
    failure = Failure(
        index=index,
        seed=sub_seed,
        outcome=result.outcome,
        detail=result.detail,
        spec=spec,
        shrunk=shrunk,
        shrink_runs=shrink_runs,
    )
    trace = TraceFile(
        spec=shrunk,
        expect=result.outcome,
        inject=inject,
        meta={
            "campaign_seed": campaign_seed,
            "campaign_index": index,
            "original_tasks": len(spec.tasks),
            "shrink_runs": shrink_runs,
            "detail": result.detail[:500],
        },
    )
    failure.trace_path = write_trace(
        Path(out_dir) / _reproducer_name(failure), trace
    )
    return failure


# -- replay -----------------------------------------------------------------


@dataclass
class ReplayResult:
    """One trace replayed against the current code."""

    path: Path
    expect: str
    result: RunResult
    #: Artifact name -> path, when the replay wrote obs artifacts.
    obs_paths: dict | None = None

    @property
    def matches(self) -> bool:
        return self.result.outcome == self.expect

    def summary(self) -> str:
        status = "reproduced" if self.matches else "DIVERGED"
        line = (
            f"replay {self.path.name}: expected {self.expect!r}, "
            f"got {self.result.outcome!r} — {status}"
        )
        if self.obs_paths:
            line += f"\n  obs artifacts: {sorted(self.obs_paths.values())[0].parent}"
        return line


def replay(
    path: Path,
    trace: TraceFile,
    sanitize: str = "strict",
    obs_out: str | Path | None = None,
) -> ReplayResult:
    """Re-run a loaded trace and compare against its expectation.

    For an ``expect: ok`` corpus entry, a match means the invariants
    still hold on that scenario; for a reproducer, a match means the
    recorded failure still reproduces (with its injection re-armed).
    A reproducer that expects ``divergence:<field>`` replays
    differentially.

    ``obs_out`` writes the replay's full obs artifacts there — the
    bridge from a committed reproducer to ``obs report`` / ``obs
    explain``.  ``sanitize`` is a
    :data:`~repro.fuzz.runner.SANITIZE_MODES` mode; ``record`` lets a
    reproducer run to its horizon so the stream covers the aftermath,
    and the run is still named by its first violation.
    """
    session = None
    if obs_out is not None:
        from repro.obs import ObsSession

        session = ObsSession()
    result = run_spec(
        trace.spec,
        inject=trace.inject,
        obs=session,
        sanitize=sanitize,
        differential=trace.expect.startswith(DIVERGENCE),
    )
    replayed = ReplayResult(path=path, expect=trace.expect, result=result)
    if session is not None:
        replayed.obs_paths = session.write(obs_out, result.ticks)
    return replayed


def load_corpus(path: str | Path) -> list[tuple[Path, TraceFile]]:
    """Load one ``.trace.json``, or every one under a directory sorted
    by name, before anything replays; an empty directory is a
    :class:`SpecError`."""
    target = Path(path)
    paths = sorted(target.glob("*.trace.json")) if target.is_dir() else [target]
    if not paths:
        raise SpecError(f"no *.trace.json under {target}")
    return [(trace_path, load_trace(trace_path)) for trace_path in paths]
