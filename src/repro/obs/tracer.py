"""Lightweight span tracer for the query pipeline.

A *span* is one timed stage of a query's life: ``route`` (Step 1 coarse
quantization), ``warm`` (grouped-layout preparation), ``tables``
(Step 2 distance-table build), ``scan`` (Step 3 partition scan) and
``merge`` (top-k reduction). The batch engine (:mod:`repro.search`)
wraps each stage in ``with tracer.span("scan"): ...``; the tracer
records the duration into a bounded in-memory ring and — when wired to
a :class:`~repro.obs.metrics.MetricsRegistry` — into the
``repro_stage_latency_seconds`` histogram the exporters publish.

Thread-safety: spans are created and finished on worker threads; the
ring append and histogram observe are lock-guarded. The *disabled* path
(see :class:`repro.obs.Observability`) never reaches this module — it
returns the shared :data:`NULL_SPAN`, a no-op context manager, so
tracing costs one attribute check when off.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from types import TracebackType

from .families import FAMILIES, STAGE_LATENCY_METRIC
from .metrics import Histogram, MetricsRegistry

__all__ = [
    "NULL_SPAN",
    "STAGE_LATENCY_METRIC",
    "SpanRecord",
    "Tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes:
        stage: stage name (``route``/``warm``/``tables``/``scan``/…).
        start_s: :func:`time.perf_counter` timestamp at entry.
        duration_s: wall time spent inside the span.
        thread_name: name of the thread that ran the stage.
    """

    stage: str
    start_s: float
    duration_s: float
    thread_name: str


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager timing one stage; reports back to its tracer."""

    __slots__ = ("_tracer", "_stage", "_start")

    def __init__(self, tracer: "Tracer", stage: str) -> None:
        self._tracer = tracer
        self._stage = stage
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self._tracer._finish(
            self._stage, self._start, time.perf_counter() - self._start
        )
        return False


class Tracer:
    """Records stage spans into a bounded ring and a latency histogram.

    Args:
        registry: metrics registry receiving per-stage latency
            observations (``None`` keeps spans in-memory only).
        max_spans: ring capacity; the oldest spans are dropped first, so
            a long-lived server never grows without bound.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_spans: int = 4096,
    ) -> None:
        self._spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._histogram: Histogram | None = None
        if registry is not None:
            self._histogram = registry.register(FAMILIES[STAGE_LATENCY_METRIC])

    def span(self, stage: str) -> _ActiveSpan:
        """Context manager timing one pipeline stage."""
        return _ActiveSpan(self, stage)

    def spans(self) -> list[SpanRecord]:
        """Finished spans, oldest first (bounded by ``max_spans``)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop all recorded spans."""
        with self._lock:
            self._spans.clear()

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Per-stage ``{count, total_s, max_s}`` over the recorded ring."""
        summary: dict[str, dict[str, float]] = {}
        for record in self.spans():
            entry = summary.setdefault(
                record.stage, {"count": 0.0, "total_s": 0.0, "max_s": 0.0}
            )
            entry["count"] += 1.0
            entry["total_s"] += record.duration_s
            entry["max_s"] = max(entry["max_s"], record.duration_s)
        return summary

    # -- internals ----------------------------------------------------------

    def _finish(self, stage: str, start_s: float, duration_s: float) -> None:
        record = SpanRecord(
            stage=stage,
            start_s=start_s,
            duration_s=duration_s,
            thread_name=threading.current_thread().name,
        )
        with self._lock:
            self._spans.append(record)
        if self._histogram is not None:
            self._histogram.observe(duration_s, stage=stage)
