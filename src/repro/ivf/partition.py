"""A partition: the pqcodes of one Voronoi cell of the coarse quantizer.

PQ Scan and PQ Fast Scan both operate on a partition (Algorithm 1,
Step 3). A partition stores the ``(n, m)`` pqcode array plus the original
database identifiers of its vectors, so scanners can report global ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DatasetError

__all__ = ["Partition"]


@dataclass(eq=False)
class Partition:
    """Immutable view of one database partition.

    Attributes:
        codes: ``(n, m)`` pqcodes of the partition's vectors.
        ids: ``(n,)`` global database identifiers.
        partition_id: index of this partition within its index.
    """

    codes: np.ndarray
    ids: np.ndarray
    partition_id: int = 0

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.codes.ndim != 2:
            raise DatasetError("partition codes must be a (n, m) array")
        if len(self.ids) != len(self.codes):
            raise DatasetError(
                f"ids ({len(self.ids)}) and codes ({len(self.codes)}) differ"
            )

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def m(self) -> int:
        """Number of sub-quantizer indexes per code."""
        return self.codes.shape[1]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored codes, in bytes."""
        return self.codes.nbytes

    def take(self, n: int) -> "Partition":
        """Prefix sub-partition of the first ``n`` vectors (keep% scan)."""
        return Partition(self.codes[:n], self.ids[:n], self.partition_id)
