"""Top-k scoring over compressed columns with small-table bounds (Sec. 6).

The paper: "For top-k queries, it is possible to build small tables
enabling computation of lower or upper bounds. Like in PQ Fast Scan,
lower bounds can then be used to limit L1-cache accesses. To compute
upper bounds instead of lower bounds, maximum tables can be used instead
of minimum tables."

:class:`TopKScoreScanner` scores rows as a weighted sum over several
dictionary-compressed columns (the lookup-table analogue of ADC) and
finds the top-k *highest* scores. Per-column dictionaries are reduced to
16-entry **maximum tables** (dictionary portions → per-portion maxima),
quantized to int8; the saturated sums are upper bounds on scores, pruning
rows that cannot reach the current k-th best score.

Exactness discipline mirrors PQ Fast Scan with all inequalities flipped:
table entries ceil-round (upper bounds never undershoot), the threshold
floor-rounds and compensates the per-column ``qmin`` offset (each of the
``C`` summed entries had ``qmin`` subtracted, so the threshold subtracts
``C * qmin``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..scan.topk import keep_size
from .column import DictionaryColumn

__all__ = ["TopKScoreScanner", "ScoreResult"]

_SATURATION = 127
_N_BINS = 127


@dataclass(frozen=True)
class ScoreResult:
    """Top-k rows by score, with pruning statistics."""

    rows: np.ndarray
    scores: np.ndarray
    n_scanned: int
    n_pruned: int

    @property
    def pruned_fraction(self) -> float:
        if self.n_scanned == 0:
            return 0.0
        return self.n_pruned / self.n_scanned

    def same_rows(self, other: "ScoreResult") -> bool:
        return bool(
            np.array_equal(self.rows, other.rows)
            and np.allclose(self.scores, other.scores)
        )


class TopKScoreScanner:
    """Weighted-sum top-k over dictionary-compressed columns.

    Args:
        columns: the compressed columns contributing to the score.
        weights: one non-negative weight per column (default: all 1.0).
    """

    def __init__(
        self, columns: list[DictionaryColumn], weights: np.ndarray | None = None
    ):
        if not columns:
            raise ConfigurationError("at least one column is required")
        n = len(columns[0])
        if any(len(col) != n for col in columns):
            raise ConfigurationError("columns must have equal length")
        if weights is None:
            weights = np.ones(len(columns))
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(columns):
            raise ConfigurationError("one weight per column required")
        if (weights < 0).any():
            raise ConfigurationError("weights must be non-negative")
        self.columns = columns
        self.weights = weights
        self.n = n

    # -- exact scoring ---------------------------------------------------------

    def exact_scores(self, rows: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Exact (decoded) weighted scores for the selected rows."""
        total = np.zeros(len(self.columns[0].codes[rows]), dtype=np.float64)
        for col, w in zip(self.columns, self.weights):
            total += w * col.dictionary[col.codes[rows]]
        return total

    def scan_exact(self, k: int) -> ScoreResult:
        """Reference scan: exact scores for every row."""
        scores = self.exact_scores()
        rows = _top_rows(scores, k)
        return ScoreResult(
            rows=rows, scores=scores[rows], n_scanned=self.n, n_pruned=0
        )

    # -- fast scan with upper bounds --------------------------------------------

    def scan_fast(
        self, k: int, *, keep: float = 0.01, chunk: int = 2048
    ) -> ScoreResult:
        """Top-k with small-table upper-bound pruning.

        Returns exactly the rows of :meth:`scan_exact` (asserted by the
        test suite), pruning exact score computations for rows whose
        upper bound cannot beat the current k-th best score.
        """
        if not 1 <= k <= self.n:
            raise ConfigurationError(f"k must be in [1, {self.n}]")
        n_cols = len(self.columns)
        n_keep = keep_size(keep, self.n, k)
        prefix = self.exact_scores(slice(0, n_keep))

        # Quantization bounds: qmin at the smallest per-entry value so
        # entries rarely clip; qmax at the largest possible score.
        qmin = min(
            float((w * col.dictionary).min())
            for col, w in zip(self.columns, self.weights)
        )
        qmax = sum(
            float((w * col.dictionary).max())
            for col, w in zip(self.columns, self.weights)
        )
        step = max((qmax - qmin) / _N_BINS, 0.0)

        max_tables = [
            _quantize_up(_maximum_table(w * col.dictionary), qmin, step)
            for col, w in zip(self.columns, self.weights)
        ]

        # Candidate set: k best (score desc, row asc) from the keep phase.
        kept = sorted(
            ((float(s), int(r)) for r, s in enumerate(prefix)),
            key=lambda item: (-item[0], item[1]),
        )[:k]

        n_pruned = 0
        for start in range(n_keep, self.n, chunk):
            stop = min(start + chunk, self.n)
            kth_score = kept[-1][0]
            threshold_q = _quantize_down(kth_score, qmin, step, components=n_cols)
            ub = np.zeros(stop - start, dtype=np.int16)
            for col, table in zip(self.columns, max_tables):
                portion_idx = col.codes[start:stop] >> 4
                ub += table[portion_idx].astype(np.int16)
            np.minimum(ub, _SATURATION, out=ub)
            survivors = np.flatnonzero(ub >= threshold_q)
            n_pruned += (stop - start) - len(survivors)
            if len(survivors) == 0:
                continue
            rows = start + survivors
            scores = self.exact_scores(rows)
            for row, score in zip(rows, scores):
                worst_score, worst_row = kept[-1]
                if (-score, row) < (-worst_score, worst_row):
                    kept[-1] = (float(score), int(row))
                    kept.sort(key=lambda item: (-item[0], item[1]))
        rows = np.array([r for _, r in kept], dtype=np.int64)
        scores = np.array([s for s, _ in kept], dtype=np.float64)
        return ScoreResult(
            rows=rows, scores=scores, n_scanned=self.n, n_pruned=n_pruned
        )


def _top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k highest scores, ties broken by row id."""
    if not 1 <= k <= len(scores):
        raise ConfigurationError(f"k must be in [1, {len(scores)}]")
    part = np.argpartition(scores, len(scores) - k)[-k:]
    kth = scores[part].min()
    candidates = np.flatnonzero(scores >= kth)
    order = np.lexsort((candidates, -scores[candidates]))[:k]
    return candidates[order]


def _maximum_table(dictionary: np.ndarray) -> np.ndarray:
    """Per-portion maxima of a (<=256)-entry dictionary → 16 entries.

    Missing entries (dictionaries shorter than 256) take the dictionary
    minimum so they can never inflate a portion's maximum.
    """
    padded = np.full(256, float(dictionary.min()))
    padded[: len(dictionary)] = dictionary
    return padded.reshape(16, 16).max(axis=1)


def _quantize_up(values: np.ndarray, qmin: float, step: float) -> np.ndarray:
    """Ceil-quantization for upper-bound tables (never undershoots)."""
    if step == 0.0:
        return np.full(len(np.asarray(values)), _SATURATION, dtype=np.int8)
    scaled = np.ceil((np.asarray(values, dtype=np.float64) - qmin) / step)
    return np.clip(scaled, 0, _SATURATION).astype(np.int8)


def _quantize_down(
    value: float, qmin: float, step: float, components: int = 1
) -> int:
    """Floor-quantization for the pruning threshold.

    ``components`` compensates the per-entry ``qmin`` offset: the upper
    bound sums ``components`` quantized entries, each shifted by
    ``-qmin``, so the threshold shifts by ``-components * qmin``.
    """
    if step == 0.0:
        return 0
    code = int(np.floor((value - components * qmin) / step))
    return int(np.clip(code, 0, _SATURATION))
