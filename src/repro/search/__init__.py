"""Sorted-sequence search algorithms (interpolation, binary)."""

from repro.search.interpolation import (
    MAX_INTERPOLATION_STEPS,
    binary_search_rightmost,
    interpolation_search,
)

__all__ = [
    "MAX_INTERPOLATION_STEPS",
    "binary_search_rightmost",
    "interpolation_search",
]
