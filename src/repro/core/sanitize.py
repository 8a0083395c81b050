"""Runtime sanitizer for the lower-bound exactness invariant.

PQ Fast Scan is exact only because every quantized lower bound
under-estimates the exact ADC distance *in code space*: table entries
floor-quantize, the pruning threshold ceil-quantizes, and int8 sums
saturate downward. If any step of that discipline is broken (a rounding
mode flipped, a threshold compensated with the wrong component count, a
saturating add replaced by a wrapping one), the scanner silently starts
dropping true neighbors.

Setting ``REPRO_SANITIZE=1`` in the environment turns on a per-scan
check between the lower-bound pass and the survivor pass: for every row
of the partition — pruned or not — the sanitizer recomputes the exact
float ADC distance and verifies

    ``bounds_q[i] <= clip(ceil((exact[i] - components*qmin)/step), 0, 127)``

i.e. the quantized lower bound never exceeds the ceil-quantized code of
the exact distance. The right-hand side is exactly
:meth:`~repro.core.quantization.DistanceQuantizer.quantize_threshold`
evaluated at the exact distance, so the check proves no threshold value
could ever prune that candidate wrongly. Violations raise
:class:`~repro.exceptions.InvariantViolation`.

The check computes exact distances for *all* scanned vectors, erasing
the algorithm's speedup — it is a debugging and CI tool, not a
production mode.
"""

from __future__ import annotations

import os

import numpy as np
import numpy.typing as npt

from ..exceptions import InvariantViolation
from .quantization import SATURATION, DistanceQuantizer

__all__ = [
    "sanitizer_enabled",
    "check_lower_bound_invariant",
    "check_nibble_invariant",
    "check_saturation_invariant",
]

#: Environment variable that enables the sanitizer.
ENV_VAR = "REPRO_SANITIZE"


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE=1`` is set in the environment.

    Read per scan (not cached at import time) so tests can toggle the
    variable with ``monkeypatch.setenv``.
    """
    return os.environ.get(ENV_VAR, "") == "1"


def check_lower_bound_invariant(
    bounds_q: npt.ArrayLike,
    exact_distances: npt.ArrayLike,
    quantizer: DistanceQuantizer,
    components: int,
    *,
    context: str = "",
) -> None:
    """Verify quantized lower bounds against exact distances, vectorized.

    Args:
        bounds_q: integer lower-bound codes, one per candidate (int8
            from the fast-scan path or int16 from the quantization-only
            path; any integer dtype is accepted).
        exact_distances: float ADC distances of the same candidates.
        quantizer: the quantizer that produced the bounds.
        components: number of table entries summed into each bound
            (``m`` for full-code bounds) — the same compensation count
            :meth:`DistanceQuantizer.quantize_threshold` uses.
        context: optional scan-location string for the error message.

    Raises:
        InvariantViolation: if any bound exceeds the ceil-quantized code
            of its exact distance.
    """
    bounds = np.asarray(bounds_q, dtype=np.int64)
    exact = np.asarray(exact_distances, dtype=np.float64)
    if bounds.shape != exact.shape:
        raise InvariantViolation(
            f"sanitizer shape mismatch: {bounds.shape} bounds vs "
            f"{exact.shape} exact distances" + (f" ({context})" if context else "")
        )
    step = quantizer.bin_size
    if step == 0.0:
        allowed = np.where(exact < quantizer.qmax, 0, SATURATION)
    else:
        ceiled = np.ceil((exact - components * quantizer.qmin) / step)
        allowed = np.clip(ceiled, 0, SATURATION).astype(np.int64)
    bad = np.flatnonzero(bounds > allowed)
    if len(bad):
        i = int(bad[0])
        where = f" at {context}" if context else ""
        raise InvariantViolation(
            f"quantized lower bound overshoots exact distance{where}: "
            f"{len(bad)} of {len(bounds)} candidates violate the invariant; "
            f"first offender index {i}: bound code {int(bounds[i])} > "
            f"allowed code {int(allowed[i])} (exact distance {exact[i]!r}, "
            f"qmin={quantizer.qmin!r}, qmax={quantizer.qmax!r}, "
            f"components={components})"
        )


def check_nibble_invariant(codes: npt.ArrayLike, *, context: str = "") -> None:
    """Verify every unpacked ``(n, m)`` sub-index is a genuine nibble.

    A value >= 16 would read past its 16-entry register table. The
    Quick ADC scanner runs this once per batch, *before* its exact
    sample phase indexes any float table with the codes: the prepared
    layout validated them when it was built, but may predate in-place
    corruption of the code array.

    Raises:
        InvariantViolation: if any sub-index is outside ``[0, 16)``.
    """
    code_arr = np.asarray(codes, dtype=np.int64)
    bad = np.flatnonzero((code_arr < 0) | (code_arr > 0x0F))
    if len(bad):
        flat = code_arr.reshape(-1)
        i = int(bad[0])
        where = f" at {context}" if context else ""
        raise InvariantViolation(
            f"4-bit sub-index out of nibble range{where}: {len(bad)} of "
            f"{flat.size} indexes outside [0, 16); first offender flat "
            f"index {i}: {int(flat[i])}"
        )


def check_saturation_invariant(q_tables: npt.ArrayLike, *, context: str = "") -> None:
    """Verify every ``(m, 16)`` int8 quantized table entry is 0..127.

    The floor quantizer must *saturate* at ``SATURATION`` rather than
    wrap into int8 negatives: a wrapped entry would make ``paddsb``
    saturate *downward* and turn the lower bound into garbage (and push
    a pair-table sum outside the range its clamp assumes). Checked per
    query, the tables being the query's.

    Raises:
        InvariantViolation: if any entry is outside ``[0, SATURATION]``.
    """
    table_arr = np.asarray(q_tables, dtype=np.int64)
    bad = np.flatnonzero((table_arr < 0) | (table_arr > SATURATION))
    if len(bad):
        flat = table_arr.reshape(-1)
        i = int(bad[0])
        where = f" at {context}" if context else ""
        raise InvariantViolation(
            f"quantized 4-bit table entry wrapped instead of saturating"
            f"{where}: {len(bad)} of {flat.size} entries outside "
            f"[0, {SATURATION}]; first offender flat index {i}: "
            f"{int(flat[i])}"
        )
