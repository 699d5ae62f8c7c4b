"""Trace validation: machine-checkable scheduler invariants.

A :class:`TraceValidator` audits a finished run's trace against the
invariants the Resource Distributor promises.  It is used three ways:

* by the fuzzer, as the trace audit every run that ends ``ok`` must pass
  (outcome ``invariant:trace-<rule>``);
* in property-based and integration tests, as the oracle for
  randomized runs;
* by ``repro run``, for the one-line verdict under the run summary.

Violations are collected (not raised) so a single audit reports every
problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.trace import SegmentKind, TraceRecorder


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    rule: str
    time: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] t={self.time}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    checked_segments: int = 0
    checked_deadlines: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, time: int, detail: str) -> None:
        self.violations.append(Violation(rule=rule, time=time, detail=detail))

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"trace audit: {status} "
            f"({self.checked_segments} segments, {self.checked_deadlines} deadlines)"
        ]
        lines.extend(str(v) for v in self.violations[:50])
        if len(self.violations) > 50:
            lines.append(f"... and {len(self.violations) - 50} more")
        return "\n".join(lines)


class TraceValidator:
    """Audits a trace for the Resource Distributor's invariants."""

    def __init__(self, trace: TraceRecorder) -> None:
        self.trace = trace

    def validate(self, end_time: int | None = None) -> ValidationReport:
        """Run every audit; ``end_time`` bounds the conservation check."""
        report = ValidationReport()
        self._check_segment_sanity(report)
        self._check_no_overlap(report)
        self._check_deadline_accounting(report)
        self._check_period_continuity(report)
        if end_time is not None:
            self._check_conservation(report, end_time)
        report.checked_segments = len(self.trace.segments)
        report.checked_deadlines = len(self.trace.deadlines)
        return report

    # -- individual audits ---------------------------------------------------

    def _check_segment_sanity(self, report: ValidationReport) -> None:
        for seg in self.trace.segments:
            if seg.length <= 0:
                report.add("segment-length", seg.start, f"non-positive segment {seg}")
            if seg.kind is SegmentKind.ASSIGNED and seg.charged_to is None:
                report.add(
                    "assigned-charge",
                    seg.start,
                    f"assigned segment without a charged thread: {seg}",
                )

    def _check_no_overlap(self, report: ValidationReport) -> None:
        """A single CPU: at most one thread holds it at any instant."""
        ordered = sorted(self.trace.segments, key=lambda s: (s.start, s.end))
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                report.add(
                    "cpu-overlap",
                    b.start,
                    f"thread {b.thread_id} started at {b.start} while thread "
                    f"{a.thread_id} held the CPU until {a.end}",
                )

    def _check_deadline_accounting(self, report: ValidationReport) -> None:
        """Delivered time must match granted segments, and a missed flag
        must match the arithmetic."""
        # One pass over the segments, so the audit is O(segments + deadlines).
        granted_runs: dict[tuple[int, int], list] = {}
        for seg in self.trace.segments:
            if seg.kind is SegmentKind.GRANTED:
                granted_runs.setdefault((seg.thread_id, seg.period_index), []).append(seg)
        for d in self.trace.deadlines:
            if d.delivered > d.granted:
                report.add(
                    "over-delivery",
                    d.deadline,
                    f"thread {d.thread_id} period {d.period_index}: delivered "
                    f"{d.delivered} > granted {d.granted}",
                )
            if d.missed and d.voided:
                report.add(
                    "miss-and-void",
                    d.deadline,
                    f"thread {d.thread_id} period {d.period_index} flagged both "
                    f"missed and voided",
                )
            if d.missed and d.delivered >= d.granted:
                report.add(
                    "phantom-miss",
                    d.deadline,
                    f"thread {d.thread_id} period {d.period_index} marked missed "
                    f"with full delivery",
                )
            granted_in_window = sum(
                min(seg.end, d.deadline) - max(seg.start, d.period_start)
                for seg in granted_runs.get((d.thread_id, d.period_index), ())
                if seg.start < d.deadline and seg.end > d.period_start
            )
            if granted_in_window > d.granted:
                report.add(
                    "grant-overrun",
                    d.deadline,
                    f"thread {d.thread_id} period {d.period_index}: "
                    f"{granted_in_window} granted ticks recorded against a "
                    f"{d.granted}-tick grant",
                )

    def _check_period_continuity(self, report: ValidationReport) -> None:
        """Period n+1 starts at period n's end (plus any postponement —
        never earlier), and indexes are consecutive per thread."""
        by_thread: dict[int, list] = {}
        for d in self.trace.deadlines:
            by_thread.setdefault(d.thread_id, []).append(d)
        for tid, deadlines in by_thread.items():
            deadlines.sort(key=lambda d: d.period_index)
            for a, b in zip(deadlines, deadlines[1:]):
                if b.period_index != a.period_index + 1:
                    report.add(
                        "period-index-gap",
                        b.period_start,
                        f"thread {tid}: period {a.period_index} followed by "
                        f"{b.period_index}",
                    )
                if b.period_start < a.deadline:
                    report.add(
                        "period-pulled-in",
                        b.period_start,
                        f"thread {tid}: period {b.period_index} starts at "
                        f"{b.period_start}, before the previous deadline "
                        f"{a.deadline} (periods may only be postponed)",
                    )

    def _check_conservation(self, report: ValidationReport, end_time: int) -> None:
        covered = sum(
            min(seg.end, end_time) - seg.start
            for seg in self.trace.segments
            if seg.start < end_time
        )
        if covered != end_time:
            report.add(
                "conservation",
                end_time,
                f"segments cover {covered} of {end_time} ticks "
                f"({'gap' if covered < end_time else 'double-count'} of "
                f"{abs(end_time - covered)})",
            )


def validate_trace(trace: TraceRecorder, end_time: int | None = None) -> ValidationReport:
    """Convenience wrapper: audit ``trace`` and return the report."""
    return TraceValidator(trace).validate(end_time)
