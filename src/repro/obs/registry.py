"""Metrics registry: counters, gauges, and histograms with labels.

A deliberately small, dependency-free subset of the Prometheus data
model.  Metrics are identified by name; a metric with declared label
names holds one child series per label-value tuple.  Histogram buckets
are cumulative (``le`` upper bounds), matching the Prometheus text
exposition rendered by :mod:`repro.obs.prom`.

Everything is deterministic: series are rendered in sorted order and
observations are plain integer/float arithmetic, so the exported
``metrics.prom`` is byte-identical across same-seed runs.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import repeat
from operator import add

from repro.errors import SimulationError


def _label_key(
    label_names: tuple[str, ...], labels: dict[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise SimulationError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Name, help, label names and one series per label key.  An update's
    keyed form (``inc_key``, ...) takes the key — each label value's
    ``str``, in ``label_names`` order — built by a caller that checked
    its label plan once; the keyword forms check theirs on every call.
    An ``*_each`` form applies a run of updates to one key in one call,
    adding them in the order given, so the series ends bit-identical to
    the same updates made one by one."""

    kind = ""

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._series: dict[tuple[str, ...], object] = {}

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        return sorted(self._series.items())

    def value_key(self, key: tuple[str, ...], default: float = 0) -> float:
        """The series at ``key``; ``default`` for one never updated."""
        return self._series.get(key, default)


class Counter(_Metric):
    """A monotonically increasing count, optionally per label set."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        self.inc_key(_label_key(self.label_names, labels), amount)

    def inc_key(self, key: tuple[str, ...], amount: float = 1) -> None:
        if amount < 0:
            raise SimulationError(f"counter {self.name} cannot decrease")
        self._series[key] = self._series.get(key, 0) + amount

    def inc_each(self, key: tuple[str, ...], amounts: list[float]) -> None:
        """``inc_key(key, amount)`` for each of the (non-empty) ``amounts``."""
        if min(amounts) < 0:
            raise SimulationError(f"counter {self.name} cannot decrease")
        self._series[key] = reduce(add, amounts, self._series.get(key, 0))

    def value(self, **labels: str) -> float:
        return self.value_key(_label_key(self.label_names, labels))


class Gauge(_Metric):
    """A value that can go up and down (headroom, weights, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self.set_key(_label_key(self.label_names, labels), value)

    def set_key(self, key: tuple[str, ...], value: float) -> None:
        self._series[key] = value

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, default: float = 0, /, **labels: str) -> float:
        """The series' value; ``default`` for one that was never set."""
        return self.value_key(_label_key(self.label_names, labels), default)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus ``le`` semantics); a
    series is ``[per-bucket counts, +Inf count, sum]``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        label_names: tuple[str, ...] = (),
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise SimulationError(
                f"histogram {name} needs sorted, non-empty buckets, got {buckets}"
            )
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(_label_key(self.label_names, labels), value)

    def observe_key(self, key: tuple[str, ...], value: float) -> None:
        self.observe_each(key, (value,))

    def observe_each(self, key: tuple[str, ...], values) -> None:
        """``observe_key(key, value)`` for each of ``values`` (a sequence
        of numbers, none NaN: a bucket counts the sorted values at or
        below its bound)."""
        if not values:
            return
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [[0] * len(self.buckets), 0, 0.0]
        at_or_below = map(bisect_right, repeat(sorted(values)), self.buckets)
        series[0] = list(map(add, series[0], at_or_below))
        series[1] += len(values)
        series[2] = reduce(add, values, series[2])

    def count(self, **labels: str) -> int:
        series = self._series.get(_label_key(self.label_names, labels))
        return 0 if series is None else series[1]

    def sum(self, **labels: str) -> float:
        series = self._series.get(_label_key(self.label_names, labels))
        return 0.0 if series is None else series[2]


class MetricsRegistry:
    """Owns every metric of one observability session."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _register(self, metric):
        if metric.name in self._metrics:
            raise SimulationError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, label_names: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter(name, help_text, label_names))

    def gauge(
        self, name: str, help_text: str, label_names: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help_text, label_names))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        label_names: tuple[str, ...] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, label_names))

    def get(self, name: str) -> Counter | Gauge | Histogram:
        try:
            return self._metrics[name]
        except KeyError:
            raise SimulationError(f"no metric named {name!r}") from None

    def all_metrics(self) -> list[Counter | Gauge | Histogram]:
        return [self._metrics[name] for name in sorted(self._metrics)]
