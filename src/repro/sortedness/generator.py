"""BoDS-style (K,L)-near sorted workload generation.

The paper evaluates against collections produced by the *Benchmark on Data
Sortedness* [Raman et al., TPCTC 2022], which takes target values of K (how
many elements are out of order) and L (how far they may travel, both as
fractions of N) and emits a data collection exhibiting that sortedness.

Our generator starts from the fully sorted key sequence and applies random
pairwise swaps: each swap displaces two elements, the swap distance is drawn
up to ``L·N`` (with at least one swap pinned at the maximum distance so the
measured L hits the target), and swapped positions are kept disjoint while
possible so the achieved K tracks the request closely. ``scrambled``
workloads are a uniform shuffle, exactly as in the paper's Fig. 9(f).

Every generated collection can be fed to
:func:`repro.sortedness.metrics.measure_sortedness` — the test-suite asserts
the achieved (K,L) lands near the request.
"""

from __future__ import annotations

import random
from typing import List

def sorted_keys(n: int, start: int = 0, gap: int = 1) -> List[int]:
    """The fully sorted base collection: ``start, start+gap, ...``.

    A gap > 1 leaves key-space holes so that experiments can issue inserts
    or non-member lookups between existing keys.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if gap <= 0:
        raise ValueError("gap must be positive")
    return list(range(start, start + n * gap, gap))


def generate_kl_keys(
    n: int,
    k_fraction: float,
    l_fraction: float,
    seed: int = 0,
    start: int = 0,
    gap: int = 1,
) -> List[int]:
    """A (K,L)-near sorted permutation of the sorted base collection.

    ``k_fraction`` and ``l_fraction`` are the paper's K% and L% expressed in
    [0, 1]. ``k_fraction == 0`` or ``l_fraction == 0`` yields the fully
    sorted collection (a collection is completely sorted iff K=0 or L=0,
    §II).
    """
    if not 0.0 <= k_fraction <= 1.0:
        raise ValueError("k_fraction must be within [0, 1]")
    if not 0.0 <= l_fraction <= 1.0:
        raise ValueError("l_fraction must be within [0, 1]")
    keys = sorted_keys(n, start=start, gap=gap)
    if n < 2 or k_fraction == 0.0 or l_fraction == 0.0:
        return keys

    rng = random.Random(seed)
    max_distance = max(1, int(l_fraction * n))
    target_displaced = int(k_fraction * n)
    if target_displaced < 2:
        return keys

    displaced: set = set()
    n_displaced = 0
    attempts = 0
    max_attempts = 6 * n  # generous; disjointness gets hard near K=100%
    # Pin one swap at the maximum distance so measured L reaches the target.
    if max_distance < n:
        anchor = rng.randrange(0, n - max_distance)
        partner = anchor + max_distance
        keys[anchor], keys[partner] = keys[partner], keys[anchor]
        displaced.update((anchor, partner))
        n_displaced += 2

    while n_displaced < target_displaced and attempts < max_attempts:
        attempts += 1
        p = rng.randrange(n)
        if p in displaced:
            continue
        lo = max(0, p - max_distance)
        hi = min(n - 1, p + max_distance)
        q = rng.randint(lo, hi)
        if q == p or q in displaced:
            continue
        keys[p], keys[q] = keys[q], keys[p]
        displaced.update((p, q))
        n_displaced += 2
    return keys


def scrambled_keys(n: int, seed: int = 0, start: int = 0, gap: int = 1) -> List[int]:
    """A uniformly random permutation of the sorted base collection."""
    keys = sorted_keys(n, start=start, gap=gap)
    random.Random(seed).shuffle(keys)
    return keys
