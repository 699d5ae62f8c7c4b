"""repro.fuzz: seeded scenario fuzzing, shrinking, and trace replay.

The pipeline, end to end::

    spec   = generate(seed)            # random mix, one seed, replayable
    result = run_spec(spec)            # strict sanitizer as the oracle
    small  = shrink(spec, result.outcome).spec   # minimal reproducer
    write_trace("bug.trace.json", TraceFile(spec=small, expect=result.outcome))
    replay_trace("bug.trace.json")     # reproduces, today and in CI

``run_campaign`` drives the loop at scale (``python -m repro fuzz``),
and :mod:`repro.fuzz.sweep` bisects each mix's empirical admission
threshold (the curve in ``benchmarks/out/fuzz_thresholds.json``).
"""

from repro.fuzz.driver import (
    CampaignStats,
    Failure,
    ReplayResult,
    replay_corpus,
    replay_trace,
    run_campaign,
)
from repro.fuzz.generator import generate, scenario_seed
from repro.fuzz.inject import INJECTIONS
from repro.fuzz.runner import RunResult, run_spec
from repro.fuzz.shrink import ShrinkResult, shrink
from repro.fuzz.spec import (
    TRACE_SCHEMA_VERSION,
    ClusterSpec,
    LevelSpec,
    ScenarioSpec,
    SpecError,
    SporadicSpec,
    TaskSpec,
    TraceFile,
    load_trace,
    write_trace,
)
from repro.fuzz.sweep import admission_threshold, run_sweep

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "INJECTIONS",
    "CampaignStats",
    "ClusterSpec",
    "Failure",
    "LevelSpec",
    "ReplayResult",
    "RunResult",
    "ScenarioSpec",
    "ShrinkResult",
    "SpecError",
    "SporadicSpec",
    "TaskSpec",
    "TraceFile",
    "admission_threshold",
    "generate",
    "load_trace",
    "replay_corpus",
    "replay_trace",
    "run_campaign",
    "run_spec",
    "run_sweep",
    "scenario_seed",
    "shrink",
    "write_trace",
]
