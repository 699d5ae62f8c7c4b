"""repro.obs.analysis: offline + streaming analytics over the event stream.

The :mod:`repro.obs` package *captures* what the Resource Distributor
did; this package answers the questions the paper's evaluation asks of
that record:

* :mod:`repro.obs.analysis.loader` — schema-version-checked decoding of
  ``events.jsonl`` back into typed events;
* :mod:`repro.obs.analysis.timeline` — per-task period timelines with
  grant-delivery ratios and p50/p95/p99 delivery-latency percentiles
  (paper section 6.1's "every period delivered" claim, quantified);
* :mod:`repro.obs.analysis.attribution` — deadline-miss attribution:
  each missed period is tied to the causal events inside its window
  (grant shrinkage, QOS degradation, burned grace periods, involuntary
  preemption storms, migrations, invariant violations);
* :mod:`repro.obs.analysis.episodes` — overload-episode detection from
  the grant-recompute stream (entry/exit ticks, degraded QOS depth,
  denied admissions while overloaded — section 6.3's overload runs);
* :mod:`repro.obs.analysis.overhead` — context-switch and grace-period
  overhead breakdowns per node (section 5.6 / 6.1 accounting);
* :mod:`repro.obs.analysis.slo` — declarative service-level objectives
  over those statistics: TOML specs, offline evaluation, and a
  streaming engine that watches a live bus and emits ``slo-alert``
  events with burn rates;
* :mod:`repro.obs.analysis.report` — the deterministic markdown / JSON
  report behind ``python -m repro obs report``.

Everything here is pure data-in, data-out over sim-tick-stamped
records: analysing the same ``events.jsonl`` twice produces
byte-identical reports, which the CI ``obs-report`` job diffs.
"""

from repro.obs.analysis.attribution import (
    AttributedMiss,
    MissCause,
    attribute_misses,
    top_causes,
)
from repro.obs.analysis.episodes import OverloadEpisode, detect_episodes
from repro.obs.analysis.loader import (
    KNOWN_SCHEMA_VERSIONS,
    SchemaVersionError,
    decode_record,
    load_events,
    load_events_text,
)
from repro.obs.analysis.overhead import OverheadBreakdown, overhead_breakdown
from repro.obs.analysis.report import (
    Analysis,
    analysis_to_json,
    analyze,
    render_markdown,
)
from repro.obs.analysis.slo import (
    SloEngine,
    SloResult,
    SloSpec,
    evaluate_slos,
    load_slo_file,
    parse_slo_toml,
)
from repro.obs.analysis.timeline import (
    PeriodRecord,
    TaskTimeline,
    build_timelines,
    percentile,
)

__all__ = [
    "Analysis",
    "AttributedMiss",
    "KNOWN_SCHEMA_VERSIONS",
    "MissCause",
    "OverheadBreakdown",
    "OverloadEpisode",
    "PeriodRecord",
    "SchemaVersionError",
    "SloEngine",
    "SloResult",
    "SloSpec",
    "TaskTimeline",
    "analysis_to_json",
    "analyze",
    "attribute_misses",
    "build_timelines",
    "decode_record",
    "detect_episodes",
    "evaluate_slos",
    "load_events",
    "load_events_text",
    "load_slo_file",
    "overhead_breakdown",
    "parse_slo_toml",
    "percentile",
    "render_markdown",
    "top_causes",
]
