"""Asymmetric Distance Computation (ADC) between a query and pqcodes.

Equation (1)/(3) of the paper: the distance between query ``y`` and a
database pqcode ``p`` is approximated by summing, for each sub-quantizer
``j``, the pre-computed table entry ``D[j, p[j]]``.

Two entry points are provided:

* :func:`adc_distances` — vectorized over a whole code array; this is the
  numeric workhorse used by scanners and ground-truth checks.
* :func:`adc_distances_batch` — the same sums for a stack of queries'
  tables, with each component's codes gathered once for the stack.
* :func:`adc_distance_single` — the scalar loop of Algorithm 1, kept as a
  direct transliteration of ``pqdistance`` for tests and for the
  instruction-level simulator kernels to validate against.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionMismatchError

__all__ = ["adc_distances", "adc_distances_batch", "adc_distance_single"]


def adc_distances(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """ADC distances for all ``codes``, shape ``(n,)``.

    Args:
        tables: ``(m, k*)`` distance tables from
            :meth:`ProductQuantizer.distance_tables`.
        codes: ``(n, m)`` pqcodes.
    """
    tables = np.asarray(tables, dtype=np.float64)
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != tables.shape[0]:
        raise DimensionMismatchError(
            tables.shape[0], codes.shape[-1] if codes.ndim else 0, what="code"
        )
    total = np.zeros(codes.shape[0], dtype=np.float64)
    for j in range(tables.shape[0]):
        total += tables[j, codes[:, j]]
    return total


def adc_distances_batch(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """ADC distances of ``codes`` for a ``(b, m, k*)`` table stack, ``(b, n)``.

    Each component's codes are gathered once for the whole stack and the
    contributions accumulate in :func:`adc_distances`' left-to-right
    order, so row ``i`` is bit-identical to
    ``adc_distances(tables[i], codes)``.
    """
    tables = np.asarray(tables, dtype=np.float64)
    codes = np.asarray(codes)
    if codes.shape[1] != tables.shape[1]:
        raise DimensionMismatchError(tables.shape[1], codes.shape[1], what="code")
    distances = tables[:, 0, :].take(codes[:, 0], axis=1)
    for j in range(1, tables.shape[1]):
        distances += tables[:, j, :].take(codes[:, j], axis=1)
    return distances


def adc_distance_single(tables: np.ndarray, code: np.ndarray) -> float:
    """Scalar ``pqdistance`` of Algorithm 1 (lines 19-26)."""
    d = 0.0
    for j in range(len(tables)):
        index = int(code[j])
        d += float(tables[j][index])
    return d
