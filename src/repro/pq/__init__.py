"""Product-quantization substrate (Section 2 of the paper).

Exports the quantizer-learning stack: Lloyd k-means, the same-size
k-means variant used by the optimized centroid assignment, plain and
product vector quantizers, and ADC.
"""

from .adc import adc_distance_single, adc_distances
from .distance_tables import (
    DistanceTableStats,
    distance_table_bytes,
    pq_configurations_for_bits,
    table_stats,
)
from .kmeans import KMeans, KMeansResult, assign_to_centroids, squared_distances
from .product_quantizer import ProductQuantizer, code_dtype_for_bits
from .quantizer import VectorQuantizer
from .same_size_kmeans import SameSizeKMeans, balanced_labels_to_order

__all__ = [
    "KMeans",
    "KMeansResult",
    "SameSizeKMeans",
    "VectorQuantizer",
    "ProductQuantizer",
    "DistanceTableStats",
    "adc_distances",
    "adc_distance_single",
    "assign_to_centroids",
    "balanced_labels_to_order",
    "code_dtype_for_bits",
    "distance_table_bytes",
    "pq_configurations_for_bits",
    "squared_distances",
    "table_stats",
]
