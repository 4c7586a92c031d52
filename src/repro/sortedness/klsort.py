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
complexity quoted in §II of the paper. The side buffer is capacity-bounded;
overflowing it raises :class:`~repro.errors.KLSortCapacityError`, mirroring
the paper's observation that the algorithm "fails for significantly high
values of K or L". The SWARE-buffer runs only the split pass
(:func:`kl_split_fits`), under a meter, to choose which sort it bills.

Stability: ties are broken by arrival position, so duplicate keys keep their
relative order — a requirement the paper states explicitly (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import KLSortCapacityError

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


def kl_sort(
    items: Sequence[T],
    key: Optional[Callable[[T], object]] = None,
    capacity: Optional[int] = None,
    stats: Optional[KLSortStats] = None,
) -> List[T]:
    """Return ``items`` stably sorted, exploiting near-sortedness.

    Parameters
    ----------
    items:
        The input sequence (not modified).
    key:
        Sort-key extractor; defaults to the identity.
    capacity:
        Maximum side-buffer size (the paper's O(K+L) memory bound). ``None``
        means unbounded. Exceeding it raises
        :class:`~repro.errors.KLSortCapacityError` *before* doing the merge
        work, so a caller that falls back pays nothing extra.
    stats:
        Optional mutable stats collector.
    """
    if key is None:
        key = lambda item: item  # noqa: E731 - tiny identity adapter
    if stats is None:
        stats = KLSortStats()
    stats.n = len(items)

    # --- Pass 1: split into a non-decreasing spine and an outlier buffer ---
    spine: List[Tuple[object, int, T]] = []  # (key, arrival, item)
    outliers: List[Tuple[object, int, T]] = []

    def divert(entry: Tuple[object, int, T]) -> None:
        outliers.append(entry)
        if capacity is not None and len(outliers) > capacity:
            raise KLSortCapacityError(
                f"(K,L)-sort side buffer exceeded capacity {capacity} "
                f"after {entry[1] + 1}/{stats.n} elements"
            )

    for arrival, item in enumerate(items):
        item_key = key(item)
        if not spine:
            spine.append((item_key, arrival, item))
            continue
        stats.comparisons += 1
        if item_key >= spine[-1][0]:
            spine.append((item_key, arrival, item))
            continue
        # One-step backtrack: if the spine's tail is the anomaly (the new
        # element still fits after the element *before* the tail — or the
        # tail is the only spine element), eject the tail instead of the
        # new element. This keeps a lone early spike from poisoning the
        # spine and diverting everything after it.
        stats.comparisons += 1
        if len(spine) == 1 or item_key >= spine[-2][0]:
            stats.backtracks += 1
            divert(spine.pop())
            spine.append((item_key, arrival, item))
        else:
            divert((item_key, arrival, item))

    stats.outliers = len(outliers)

    # --- Pass 2: sort the outliers and merge ---
    # (key, arrival) ordering makes the merge stable for duplicates.
    outliers.sort(key=lambda entry: (entry[0], entry[1]))

    if not outliers:
        return [item for _, _, item in spine]

    merged: List[T] = []
    i = j = 0
    n_spine, n_out = len(spine), len(outliers)
    while i < n_spine and j < n_out:
        stats.merge_steps += 1
        spine_entry = spine[i]
        out_entry = outliers[j]
        if (spine_entry[0], spine_entry[1]) <= (out_entry[0], out_entry[1]):
            merged.append(spine_entry[2])
            i += 1
        else:
            merged.append(out_entry[2])
            j += 1
    merged.extend(entry[2] for entry in spine[i:])
    merged.extend(entry[2] for entry in outliers[j:])
    return merged


def kl_split_fits(keys: Sequence[int], capacity: int) -> bool:
    """:func:`kl_sort`'s split pass over a bare key column in arrival order:
    False as soon as the outlier side buffer overflows ``capacity`` (where
    ``kl_sort`` raises), else True. The spine is only ever inspected two
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

