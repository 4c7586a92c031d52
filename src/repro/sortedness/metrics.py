"""Quantifying data sortedness with the (K,L) metric.

Following Ben-Moshe et al. [ICDT 2011], a collection is (K,L)-near sorted
when at most ``K`` elements are out of order and no out-of-order element is
displaced by more than ``L`` positions from where it belongs:

* ``K`` — the minimum number of elements whose removal leaves the sequence
  sorted; computed exactly as ``N`` minus the length of the longest
  non-decreasing subsequence (patience sorting, O(N log N)).
* ``L`` — the maximum positional displacement, computed against the stable
  sorted order of the collection.

The report also carries the inversion count (the classic "how unsorted"
measure of Mannila [1985] and the streaming literature the paper cites).
The exact metrics are kernels (:mod:`repro.kernels`); this module holds the
report built from them and the buffer's cheap online estimate.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import List, Sequence

from repro import kernels


@dataclass(frozen=True)
class SortednessReport:
    """Measured sortedness of a collection of ``n`` keys."""

    n: int
    k: int  #: number of out-of-order elements (exact, minimal)
    l: int  #: maximum positional displacement
    inversions: int

    @property
    def k_fraction(self) -> float:
        """K as a fraction of the collection size (the paper's K%)."""
        return self.k / self.n if self.n else 0.0

    @property
    def l_fraction(self) -> float:
        """L as a fraction of the collection size (the paper's L%)."""
        return self.l / self.n if self.n else 0.0

    @property
    def is_sorted(self) -> bool:
        """A collection is completely sorted iff K == 0 (equivalently L == 0)."""
        return self.k == 0

    def degree(self) -> str:
        """Qualitative degree per §II of the paper.

        Near-sorted: low K and L, or one high while the other is low.
        Less-sorted / scrambled: both high.
        """
        kf, lf = self.k_fraction, self.l_fraction
        if self.k == 0:
            return "sorted"
        if kf <= 0.25 or lf <= 0.10:
            return "near-sorted"
        if kf >= 0.9 and lf >= 0.4:
            return "scrambled"
        return "less-sorted"


def measure_sortedness(keys: Sequence[int]) -> SortednessReport:
    """Full sortedness report (K, L, inversions) for a key collection."""
    return SortednessReport(
        n=len(keys),
        k=kernels.count_out_of_order(keys),
        l=kernels.max_displacement(keys),
        inversions=kernels.count_inversions(keys),
    )


class RunningSortednessEstimate:
    """Cheap online (K,L) estimate, as maintained by the SWARE-buffer.

    The buffer cannot afford exact K/L on every insert; it keeps the count of
    appends that broke the running maximum (an upper-ish proxy for K) and the
    largest distance between an out-of-order element's arrival position and
    the position of the first element it undercuts (a proxy for L). These
    estimates drive the sorting-algorithm choice at flush time (§IV-C).
    """

    __slots__ = ("n", "k_estimate", "l_estimate", "_prev_key", "_sorted_keys")

    def __init__(self) -> None:
        self.n = 0
        self.k_estimate = 0
        self.l_estimate = 0
        self._prev_key: int | None = None
        # Sample of keys seen, kept sorted to estimate displacement by rank.
        self._sorted_keys: List[int] = []

    def observe(self, key: int) -> None:
        """Record the next arriving key (:meth:`observe_many` of one)."""
        self.observe_many((key,))

    def observe_many(self, keys: Sequence[int]) -> None:
        """Record a chunk of arriving keys, in one frame; the estimates do
        not depend on how a stream is chunked.

        A *descent* (key smaller than its predecessor) marks an out-of-order
        element; counting descents rather than drops below the running max
        keeps one early spike from branding everything after it as
        out-of-order. The element belongs (roughly) at its rank among the
        keys seen *before* it, and its displacement is how far back that is
        from its arrival — so the chunk is merged key by key (``insort``
        lands near the end on near-sorted arrivals), not sorted in afterwards.
        """
        sorted_keys = self._sorted_keys
        prev = self._prev_key
        descents = 0
        widest = self.l_estimate
        for key in keys:
            if prev is not None and key < prev:
                descents += 1
                displacement = len(sorted_keys) - bisect_right(sorted_keys, key)
                if displacement > widest:
                    widest = displacement
            insort(sorted_keys, key)
            prev = key
        self.n += len(keys)
        self.k_estimate += descents
        self.l_estimate = widest
        self._prev_key = prev

    def reset(self) -> None:
        self.n = 0
        self.k_estimate = 0
        self.l_estimate = 0
        self._prev_key = None
        self._sorted_keys.clear()

    @property
    def k_fraction(self) -> float:
        return self.k_estimate / self.n if self.n else 0.0

    @property
    def l_fraction(self) -> float:
        return self.l_estimate / self.n if self.n else 0.0
