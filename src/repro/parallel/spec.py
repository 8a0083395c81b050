"""Picklable scanner specifications for worker-process reconstruction.

Worker processes cannot receive live scanner objects: scanners hold the
product quantizer (large codebooks), lazily-built centroid assignments
and prepared-layout caches — none of which should cross a process
boundary by pickling. Instead the parent ships a tiny
:class:`ScannerSpec` (a frozen dataclass of plain configuration values)
and each worker rebuilds an equivalent scanner locally from the pq it
loaded out of the mmapped index artifact.

Equivalence is exact: every scanner in this library is deterministic
given its configuration (assignment clustering is seeded), so a rebuilt
scanner returns byte-identical results to the parent's instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import PQFastScanner, QuantizationOnlyScanner
from ..exceptions import ConfigurationError
from ..pq.product_quantizer import ProductQuantizer
from ..scan import SCANNERS
from ..scan.base import PartitionScanner
from ..scan.quickadc import QuickADCScanner

__all__ = ["ScannerSpec"]


@dataclass(frozen=True)
class ScannerSpec:
    """Plain-data description of a scanner, picklable across processes.

    Attributes:
        kind: scanner kind, spelled as in
            :data:`~repro.engine.SCANNER_KINDS` — a
            :data:`~repro.scan.SCANNERS` key, ``"fastpq"``,
            ``"quickadc"`` or ``"qonly"``.
        keep: keep/sample fraction (fastpq / quickadc / qonly).
        group_components: explicit grouping components (fastpq).
        assignment: assignment mode (fastpq).
        qmax_bound: qmax bound mode (fastpq).
        seed: assignment clustering seed (fastpq).
        chunk: scan chunk size (qonly).
        prepared_cache_size: prepared-layout LRU cap (fastpq / quickadc).
    """

    kind: str
    keep: float = 0.005
    group_components: int | None = None
    assignment: str = "optimized"
    qmax_bound: str = "keep"
    seed: int = 0
    chunk: int = 512
    prepared_cache_size: int | None = 256

    @classmethod
    def for_scanner(cls, scanner: PartitionScanner) -> "ScannerSpec":
        """Extract the spec of a live scanner instance.

        Raises :class:`~repro.exceptions.ConfigurationError` for scanner
        types the worker processes cannot reconstruct (e.g. user-defined
        subclasses carrying state beyond these fields).
        """
        if isinstance(scanner, PQFastScanner):
            return cls(
                kind="fastpq",
                keep=scanner.keep,
                group_components=scanner.group_components,
                assignment=scanner.assignment_mode,
                qmax_bound=scanner.qmax_bound,
                seed=scanner.seed,
                prepared_cache_size=scanner.prepared_cache_size,
            )
        if isinstance(scanner, QuantizationOnlyScanner):
            return cls(
                kind="qonly",
                keep=scanner.keep,
                chunk=scanner.chunk,
            )
        if isinstance(scanner, QuickADCScanner):
            return cls(
                kind="quickadc",
                keep=scanner.keep,
                prepared_cache_size=scanner.prepared_cache_size,
            )
        if type(scanner) is SCANNERS.get(scanner.name):
            return cls(kind=scanner.name)
        raise ConfigurationError(
            f"scanner {type(scanner).__name__!r} cannot be reconstructed in "
            "worker processes; the process backend supports the built-in "
            f"scanners ({', '.join(sorted(SCANNERS))}, fastpq, quickadc, "
            "qonly)"
        )

    def build(self, pq: ProductQuantizer) -> PartitionScanner:
        """Instantiate the described scanner against ``pq``."""
        if self.kind == "fastpq":
            return PQFastScanner(
                pq,
                keep=self.keep,
                group_components=self.group_components,
                assignment=self.assignment,
                qmax_bound=self.qmax_bound,
                seed=self.seed,
                prepared_cache_size=self.prepared_cache_size,
            )
        if self.kind == "qonly":
            return QuantizationOnlyScanner(pq, keep=self.keep, chunk=self.chunk)
        if self.kind == "quickadc":
            return QuickADCScanner(
                pq,
                keep=self.keep,
                prepared_cache_size=self.prepared_cache_size,
            )
        scanner_cls = SCANNERS.get(self.kind)
        if scanner_cls is None:
            raise ConfigurationError(f"unknown scanner kind {self.kind!r}")
        return scanner_cls()
