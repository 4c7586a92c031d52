"""Data-sortedness tooling: the (K,L) metric, adaptive sorting, generators."""

from repro.kernels import (
    count_inversions,
    count_out_of_order,
    longest_nondecreasing_subsequence_length,
    max_displacement,
)
from repro.sortedness.generator import generate_kl_keys, scrambled_keys, sorted_keys
from repro.sortedness.klsort import KLSortStats, kl_sort
from repro.sortedness.metrics import (
    RunningSortednessEstimate,
    SortednessReport,
    measure_sortedness,
)

__all__ = [
    "generate_kl_keys",
    "scrambled_keys",
    "sorted_keys",
    "KLSortStats",
    "kl_sort",
    "RunningSortednessEstimate",
    "SortednessReport",
    "count_inversions",
    "count_out_of_order",
    "longest_nondecreasing_subsequence_length",
    "max_displacement",
    "measure_sortedness",
]
