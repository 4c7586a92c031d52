"""Data-sortedness tooling: the (K,L) metric, adaptive sorting, generators."""

from repro.sortedness.generator import (
    NAMED_DEGREES,
    GeneratedWorkload,
    generate_kl_keys,
    generate_workload,
    scrambled_keys,
    sorted_keys,
    workload_family,
)
from repro.sortedness.klsort import KLSortStats, kl_sort
from repro.sortedness.metrics import (
    RunningSortednessEstimate,
    SortednessReport,
    count_inversions,
    count_out_of_order,
    count_runs,
    exchange_distance,
    longest_nondecreasing_subsequence_length,
    max_displacement,
    measure_sortedness,
    normalized_inversions,
)

__all__ = [
    "NAMED_DEGREES",
    "GeneratedWorkload",
    "generate_kl_keys",
    "generate_workload",
    "scrambled_keys",
    "sorted_keys",
    "workload_family",
    "KLSortStats",
    "kl_sort",
    "RunningSortednessEstimate",
    "SortednessReport",
    "count_inversions",
    "count_out_of_order",
    "count_runs",
    "exchange_distance",
    "longest_nondecreasing_subsequence_length",
    "max_displacement",
    "measure_sortedness",
    "normalized_inversions",
]
