"""Exporters: registry snapshots as JSON and Prometheus text format.

Two stable wire formats for the metrics collected by
:mod:`repro.obs.metrics`:

* :func:`to_json` — the registry's nested snapshot dict, serialized;
  convenient for embedding in reports (``python -m repro.obs.snapshot
  run`` writes one) and for tests.
* :func:`to_prometheus` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP``/``# TYPE`` headers, one sample per line,
  histograms expanded into cumulative ``_bucket``/``_sum``/``_count``
  series. This is what a ``/metrics`` endpoint would serve.

:func:`parse_prometheus` is the matching minimal reader used by the CI
smoke check ("the export parses and the pruning-rate gauge is
present") and by tests; it is not a general Prometheus client.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exceptions import DatasetError
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "parse_prometheus",
    "to_json",
    "to_prometheus",
    "write_snapshots",
]


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """Serialize the registry snapshot as JSON."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.samples():
                lines.append(
                    f"{metric.name}{_format_labels(labels)} {_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, counts, total, count in metric.samples():
                bounds = [repr(b) for b in metric.buckets] + ["+Inf"]
                for bound, cumulative in zip(bounds, counts):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = bound
                    lines.append(
                        f"{metric.name}_bucket{_format_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} "
                    f"{_format_value(total)}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)} {count}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{sample_name{labels}: value}``.

    Keys keep their label block verbatim (e.g.
    ``repro_pruning_rate{scanner="fastpq"}``); unlabelled samples use the
    bare name. Raises :class:`~repro.exceptions.DatasetError` on any
    malformed line, which is exactly what the CI check wants to detect.
    """
    samples: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        name_part = name_part.strip()
        value_part = value_part.strip()
        if not name_part or not value_part:
            raise DatasetError(
                f"prometheus text line {lineno}: malformed sample {raw!r}"
            )
        if "{" in name_part and not name_part.endswith("}"):
            raise DatasetError(
                f"prometheus text line {lineno}: unterminated labels {raw!r}"
            )
        try:
            value = float(value_part)
        except ValueError as exc:
            raise DatasetError(
                f"prometheus text line {lineno}: bad value {value_part!r}"
            ) from exc
        samples[name_part] = value
    return samples


def write_snapshots(
    registry: MetricsRegistry,
    json_path: str | Path | None = None,
    prom_path: str | Path | None = None,
) -> None:
    """Write the JSON and/or Prometheus snapshot files (parents created)."""
    if json_path is not None:
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(to_json(registry) + "\n")
    if prom_path is not None:
        path = Path(prom_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(to_prometheus(registry))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [
        f'{name}="{_escape_label(value)}"' for name, value in labels.items()
    ]
    return "{" + ",".join(parts) + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
