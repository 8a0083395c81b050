"""Metric primitives and the registry aggregating them.

A :class:`Family` row declares one exported family (the library's rows
are :data:`repro.obs.families.FAMILIES`); :meth:`MetricsRegistry.register`
builds the instrument its kind names:

* :class:`Counter` — monotonically increasing totals (vectors scanned,
  vectors pruned, prepared-cache hits/misses, queries served);
* :class:`Gauge` — last-set values (per-worker scan speed, overlay
  sizes);
* :class:`Ratio` — a gauge computed when it is read, one counter over
  the sum of others (the live pruning rate backing the paper's >95%
  claim, the cache hit ratio, the partial-result rate);
* :class:`Histogram` — bucketed latency distributions (per-stage span
  durations, whole-batch wall time).

All metrics are label-aware (``counter.inc(5, scanner="fastpq")``) and
thread-safe: the batch executor's workers increment them concurrently.
A :class:`MetricsRegistry` owns one family per metric name and is the
unit the exporters (:mod:`repro.obs.export`) serialize.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple

from ..exceptions import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LabelKey",
    "Metric",
    "MetricsRegistry",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for the sub-millisecond-to-seconds
#: range spanned by partition scans and whole-batch wall times.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelKey = tuple[str, ...]


class Family(NamedTuple):
    """One declared metric family: what the registry builds and exports.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; only a
    histogram reads ``buckets``. A gauge with ``ratio`` is derived: it
    reads the counter ``ratio[0]`` over the sum of the counters
    ``ratio[1:]``, all registered before it.
    """

    name: str
    kind: str
    labels: tuple[str, ...] = ()
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ratio: tuple[str, ...] = ()


class Metric:
    """Base class: name/label validation and per-family locking."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label):
                raise ConfigurationError(
                    f"metric {name}: invalid label name {label!r}"
                )
        self.name = name
        self.help = help
        self.labelnames: tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> LabelKey:
        """Validate ``labels`` against the declared names, return the key."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_dict(self, key: LabelKey) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def samples(self) -> list[Any]:
        """Every labelled series, label-sorted."""
        raise NotImplementedError


class _Scalar(Metric):
    """One float per label set: the storage a counter and a gauge share."""

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelKey, float] = {}

    def value(self, **labels: str) -> float:
        """Current value of the labelled child (0 if never written)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """All (labels, value) children, label-sorted."""
        return [(self._label_dict(key), value) for key, value in self._items()]

    def _items(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Counter(_Scalar):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled child."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Scalar):
    """A value that can go up and down; reports the last set value."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)


class Ratio(Metric):
    """A gauge computed when read: a counter over the sum of counters.

    One sample per label set whose denominator is positive. The
    numerator is read first, so a recorder that counts each denominator
    before its (smaller) numerator never lets a read exceed 1.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        numerator: Counter,
        denominators: Sequence[Counter],
    ) -> None:
        super().__init__(name, help, labelnames)
        self._numerator = numerator
        self._denominators = tuple(denominators)

    def value(self, **labels: str) -> float:
        """The labelled ratio now (0 while its denominator is 0)."""
        return dict(self._ratios()).get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        return [(self._label_dict(key), value) for key, value in self._ratios()]

    def _ratios(self) -> list[tuple[LabelKey, float]]:
        numerator = dict(self._numerator._items())
        totals: dict[LabelKey, float] = {}
        for counter in self._denominators:
            for key, value in counter._items():
                totals[key] = totals.get(key, 0.0) + value
        return [
            (key, numerator.get(key, 0.0) / total)
            for key, total in sorted(totals.items())
            if total > 0
        ]


class _HistogramChild:
    """Bucket counts, sum and count of one labelled histogram series."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        # One slot per finite bucket plus the implicit +Inf bucket.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.total = 0.0
        self.count = 0


class Histogram(Metric):
    """Cumulative-bucket latency histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs >= 1 bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly increasing"
            )
        if any(math.isinf(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name}: +Inf bucket is implicit, do not pass it"
            )
        self.buckets = bounds
        self._children: dict[LabelKey, _HistogramChild] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled series."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _HistogramChild(len(self.buckets))
                self._children[key] = child
            slot = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = i
                    break
            child.bucket_counts[slot] += 1
            child.total += value
            child.count += 1

    def snapshot_child(
        self, **labels: str
    ) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count) of a series."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return [0] * (len(self.buckets) + 1), 0.0, 0
            return self._cumulative(child), child.total, child.count

    def samples(
        self,
    ) -> list[tuple[dict[str, str], list[int], float, int]]:
        """(labels, cumulative counts incl. +Inf, sum, count) per series."""
        with self._lock:
            items = [
                (key, self._cumulative(child), child.total, child.count)
                for key, child in sorted(self._children.items())
            ]
        return [
            (self._label_dict(key), counts, total, count)
            for key, counts, total, count in items
        ]

    def _cumulative(self, child: _HistogramChild) -> list[int]:
        counts: list[int] = []
        running = 0
        for raw in child.bucket_counts:
            running += raw
            counts.append(running)
        return counts


class MetricsRegistry:
    """Get-or-create registry of metric families, keyed by name.

    Registering a name again returns the same instrument, provided the
    row is the one it was built from (a different row raises
    :class:`~repro.exceptions.ConfigurationError` — two call sites
    silently disagreeing about a metric is a bug, not a merge).
    """

    def __init__(self) -> None:
        # name -> (row, instrument); the instrument's class follows the
        # row's kind, which is data, hence ``Any``.
        self._metrics: dict[str, tuple[Family, Any]] = {}
        self._lock = threading.Lock()

    def register(self, family: Family) -> Any:
        """The instrument of ``family`` (a :class:`Counter`, :class:`Gauge`,
        :class:`Ratio` or :class:`Histogram`, as its kind says)."""
        with self._lock:
            if family.name not in self._metrics:
                self._metrics[family.name] = (family, self._build(family))
            declared, metric = self._metrics[family.name]
        if declared != family:
            raise ConfigurationError(
                f"metric {family.name} already registered as {declared}, "
                f"requested {family}"
            )
        return metric

    def collect(self) -> list[Metric]:
        """All registered families, name-sorted."""
        with self._lock:
            return [self._metrics[name][1] for name in sorted(self._metrics)]

    def get(self, name: str) -> Any:
        """The instrument registered under ``name``, if any."""
        with self._lock:
            entry = self._metrics.get(name)
        return None if entry is None else entry[1]

    def snapshot(self) -> dict[str, object]:
        """JSON-safe dump of every family and series, grouped by kind."""
        dump: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.collect():
            if isinstance(metric, Histogram):
                bounds = [repr(bound) for bound in metric.buckets] + ["+Inf"]
                series: list[dict[str, object]] = [
                    {
                        "labels": labels,
                        "buckets": dict(zip(bounds, counts)),
                        "sum": total,
                        "count": count,
                    }
                    for labels, counts, total, count in metric.samples()
                ]
            else:
                series = [
                    {"labels": labels, "value": value}
                    for labels, value in metric.samples()
                ]
            dump[metric.kind + "s"][metric.name] = series
        return dump

    def _build(self, family: Family) -> Metric:
        name, kind, labels, help = family.name, family.kind, family.labels, family.help
        if family.ratio:
            numerator, *denominators = (
                self._metrics[part][1] for part in family.ratio
            )
            return Ratio(name, help, labels, numerator, denominators)
        if kind == "histogram":
            return Histogram(name, help, labels, family.buckets)
        if kind == "counter":
            return Counter(name, help, labels)
        if kind == "gauge":
            return Gauge(name, help, labels)
        raise ConfigurationError(f"metric {name}: unknown kind {kind!r}")
