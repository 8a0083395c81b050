"""Quantization of floating-point distances to 8-bit integers (Sec. 4.4).

Small tables must hold 16 elements of 8 bits, so the 32-bit float entries
of distance tables are quantized to *signed* 8-bit integers using only the
non-negative range 0..127 (SSE has no unsigned 8-bit compare). Distances
between ``qmin`` and ``qmax`` map to 127 bins of equal width; everything
at or above ``qmax`` maps to the saturation value 127 (Figure 12).

Bound selection (the paper's scheme):

* ``qmin``  — the minimum value across all distance tables: the smallest
  distance that ever needs representing.
* ``qmax``  — the distance to a *temporary* nearest neighbor found by
  scanning the first ``keep``% of the partition with plain PQ Scan; no
  future candidate distance of interest can exceed it.

Exactness discipline (Section 5 "PQ Fast Scan returns exactly the same
results"): quantized *table entries* round **down** (floor) so the 8-bit
lower bound never overshoots the float value it stands for, while the
quantized *pruning threshold* rounds **up** (ceil), so comparing the two
can only under-prune, never drop a true neighbor. Because all quantized
values are non-negative, a left-fold of saturating adds equals
``min(sum, 127)``, which is how :meth:`quantize_table` consumers combine
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..dtypes import Float64Array, Int8Array
from ..exceptions import ConfigurationError

__all__ = ["DistanceQuantizer", "saturating_add", "SATURATION"]

#: Saturation value: distances >= qmax are represented by this code.
SATURATION = 127

#: Number of quantization bins below the saturation value.
N_BINS = 127


@dataclass(frozen=True)
class DistanceQuantizer:
    """Affine quantizer from float distances to int8 codes 0..127.

    Attributes:
        qmin: lower quantization bound (value of bin 0).
        qmax: upper bound; values >= qmax quantize to 127.
    """

    qmin: float
    qmax: float

    def __post_init__(self) -> None:
        # NaN or infinite bounds would silently poison every bin width
        # and quantized code downstream; reject them at construction.
        if not np.isfinite(self.qmin) or not np.isfinite(self.qmax):
            raise ConfigurationError(
                "quantization bounds must be finite, got "
                f"qmin={self.qmin!r}, qmax={self.qmax!r}"
            )
        if self.qmax < self.qmin:
            raise ConfigurationError(
                f"qmax ({self.qmax}) must be >= qmin ({self.qmin})"
            )

    @property
    def bin_size(self) -> float:
        """Width of one quantization bin, ``(qmax - qmin) / 127``."""
        return max(self.qmax - self.qmin, 0.0) / N_BINS

    # -- quantization --------------------------------------------------------

    def quantize_table(self, values: npt.ArrayLike) -> Int8Array:
        """Floor-quantize table entries (lower-bound safe), int8 0..127."""
        values = np.asarray(values, dtype=np.float64)
        step = self.bin_size
        if step == 0.0:
            codes = np.where(values >= self.qmax, SATURATION, 0)
            return codes.astype(np.int8)
        scaled = np.floor((values - self.qmin) / step)
        codes = np.clip(scaled, 0, N_BINS - 1)
        codes = np.where(values >= self.qmax, SATURATION, codes)
        return codes.astype(np.int8)

    def quantize_threshold(self, value: float, components: int = 1) -> int:
        """Ceil-quantize the pruning threshold (never prunes too much).

        A lower bound is a sum of ``components`` quantized entries, each
        of which had ``qmin`` subtracted before binning. For the 8-bit
        comparison to mirror the float comparison, the threshold must
        subtract ``qmin`` the same number of times: with
        ``components=m``, code ``ceil((value - m*qmin)/step)`` satisfies
        ``sum(entries) <= value  =>  lower_bound_code <= threshold_code``
        (entries floor-round, the threshold ceil-rounds), so pruning can
        only be conservative. ``components=1`` reproduces the naive
        single-offset reading, which wastes ``(m-1)*qmin`` of pruning
        power whenever the tables' global minimum is far from zero.

        Unlike table *entries*, thresholds at or above ``qmax`` are NOT
        forced to the saturation code: right after the keep phase the
        threshold equals ``qmax`` by construction, and the compensated
        formula already yields a safe (and much smaller) code there —
        saturating it instead would disable pruning until the scan first
        improves on the temporary nearest neighbor.
        """
        step = self.bin_size
        if step == 0.0:
            return 0 if value < self.qmax else SATURATION
        # Python-float arithmetic: numpy's scalar ceil/clip would dominate
        # the scan loops' per-refresh call.
        code = math.ceil((float(value) - components * self.qmin) / step)
        return min(max(code, 0), SATURATION)

    def decode(self, codes: npt.ArrayLike) -> Float64Array:
        """Representative float of each code (bin lower edge)."""
        scaled = np.asarray(codes, dtype=np.float64)
        return self.qmin + scaled * self.bin_size

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_tables(
        cls, tables: npt.ArrayLike, qmax: float
    ) -> "DistanceQuantizer":
        """Build with ``qmin`` = global minimum of the distance tables."""
        tables = np.asarray(tables, dtype=np.float64)
        qmin = float(tables.min())
        return cls(qmin=qmin, qmax=max(float(qmax), qmin))

    @classmethod
    def naive_bounds(cls, tables: npt.ArrayLike) -> "DistanceQuantizer":
        """The rejected alternative: qmax = sum of per-table maxima.

        Used by the qmax ablation benchmark to show why the keep-phase
        bound matters (Section 4.4 / Figure 12).
        """
        tables = np.asarray(tables, dtype=np.float64)
        return cls(
            qmin=float(tables.min()),
            qmax=float(tables.max(axis=1).sum()),
        )


def saturating_add(a: Int8Array, b: Int8Array) -> Int8Array:
    """Signed 8-bit saturating addition (``paddsb`` semantics).

    Operates element-wise on int8 arrays; results outside [-128, 127]
    clamp to the range bounds. This is the reference semantic the SIMD
    simulator's ``paddsb`` is tested against.
    """
    wide = a.astype(np.int16) + b.astype(np.int16)
    return np.clip(wide, -128, 127).astype(np.int8)
