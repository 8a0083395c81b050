"""Inverted-file index substrate (Section 2.2 of the paper): the flat
IVFADC of [14], the paper's experimental setup."""

from .inverted_index import IVFADCIndex
from .partition import Partition

__all__ = ["IVFADCIndex", "Partition"]
