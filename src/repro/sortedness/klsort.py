"""(K,L)-adaptive sorting [Ben-Moshe et al., ICDT 2011].

The algorithm sorts a (K,L)-near sorted collection in two sequential passes:

1. **Split pass** — scan the input once, greedily growing a non-decreasing
   *spine*; every element that undercuts the spine's tail is diverted to a
   side buffer of *outliers*. A one-step backtrack ejects a spine tail that
   itself turns out to be the anomaly (a lone spike would otherwise poison
   the spine and push everything after it into the side buffer).
2. **Merge pass** — sort the (small) side buffer and stably merge it with
   the spine.

For a (K,L)-input the side buffer holds O(K) elements, so the total work is
O(N + K log K) ⊆ O(N log(K+L)) with O(K + L) extra space, matching the
complexity quoted in §II of the paper. The SWARE-buffer runs only the split
pass (:func:`kl_split_fits`), under a meter, with a capacity-bounded side
buffer: overflowing it means the paper's "fails for significantly high
values of K or L", and the buffer bills a general sort instead.

Stability: ties are broken by arrival position, so duplicate keys keep their
relative order — a requirement the paper states explicitly (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class KLSortStats:
    """Operation counts from one kl_sort invocation (used by the cost model
    and by the complexity tests)."""

    n: int = 0
    outliers: int = 0
    backtracks: int = 0
    comparisons: int = 0
    merge_steps: int = 0
    extra: dict = field(default_factory=dict)


def kl_sort(items: Sequence[T], stats: Optional[KLSortStats] = None) -> List[T]:
    """Return ``items`` stably sorted, exploiting near-sortedness.

    ``stats``, if given, collects the operation counts; ``stats.outliers``
    is the side buffer's size, the O(K) bound the paper's memory claim is
    about (:func:`kl_split_fits` tests it against a capacity).
    """
    if stats is None:
        stats = KLSortStats()
    stats.n = len(items)

    # --- Pass 1: split into a non-decreasing spine and an outlier buffer ---
    spine: List[Tuple[T, int]] = []  # (item, arrival)
    outliers: List[Tuple[T, int]] = []
    for arrival, item in enumerate(items):
        if not spine:
            spine.append((item, arrival))
            continue
        stats.comparisons += 1
        if item >= spine[-1][0]:
            spine.append((item, arrival))
            continue
        # One-step backtrack: if the spine's tail is the anomaly (the new
        # element still fits after the element *before* the tail — or the
        # tail is the only spine element), eject the tail instead of the
        # new element. This keeps a lone early spike from poisoning the
        # spine and diverting everything after it.
        stats.comparisons += 1
        if len(spine) == 1 or item >= spine[-2][0]:
            stats.backtracks += 1
            outliers.append(spine.pop())
            spine.append((item, arrival))
        else:
            outliers.append((item, arrival))

    stats.outliers = len(outliers)

    # --- Pass 2: sort the outliers and merge ---
    # (item, arrival) ordering makes the merge stable for duplicates.
    outliers.sort()

    if not outliers:
        return [item for item, _ in spine]

    merged: List[T] = []
    i = j = 0
    n_spine, n_out = len(spine), len(outliers)
    while i < n_spine and j < n_out:
        stats.merge_steps += 1
        if spine[i] <= outliers[j]:
            merged.append(spine[i][0])
            i += 1
        else:
            merged.append(outliers[j][0])
            j += 1
    merged.extend(item for item, _ in spine[i:])
    merged.extend(item for item, _ in outliers[j:])
    return merged


def kl_split_fits(keys: Sequence[int], capacity: int) -> bool:
    """:func:`kl_sort`'s split pass over a bare key column in arrival order:
    False as soon as the outlier side buffer holds more than ``capacity``
    keys, else True. The spine is only ever inspected two
    deep, so it is carried as its tail and the key below it."""
    keys = iter(keys)
    tail = next(keys, None)
    below = None  # spine[-2]; None while the spine holds one element
    outliers = 0
    for key in keys:
        if key >= tail:
            below = tail
        else:
            # One element is diverted either way: the spine's tail (one-step
            # backtrack, the new key takes its place) or the new key itself.
            outliers += 1
            if outliers > capacity:
                return False
            if below is not None and key < below:
                continue
        tail = key
    return True

