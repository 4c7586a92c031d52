"""Search algorithms over sorted key sequences.

The paper searches the buffer's sorted section(s) with interpolation search
(§IV-B), and the SWARE meter bills it (the slot itself comes from
``bisect``): expected O(log log n) steps on near-uniform keys, which
the paper calls "a notable upgrade from binary search". For adversarial key
distributions the paper suggests falling back to binary or exponential
search; :func:`interpolation_search` therefore bounds the number of
interpolation steps and degrades to binary search if it has not converged.

All functions operate on a random-access sequence ``keys`` (anything
supporting ``__len__``/``__getitem__``) restricted to ``[lo, hi)`` and return
the index of the **rightmost** occurrence of ``target`` (the most recent
version, given that buffer entries are stably sorted by (key, arrival)), or
``-1`` when absent. Each also reports how many probe steps it took via an
optional mutable ``steps`` list, which the cost model uses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: Interpolation steps allowed before degrading to binary search. log log n
#: for any realistic n is < 6; a skewed distribution shows up as exceeding
#: this budget.
MAX_INTERPOLATION_STEPS = 16


def binary_search_rightmost(
    keys: Sequence[int],
    target: int,
    lo: int = 0,
    hi: Optional[int] = None,
    steps: Optional[List[int]] = None,
) -> int:
    """Index of the rightmost ``target`` in ``keys[lo:hi]``, or -1."""
    if hi is None:
        hi = len(keys)
    n_steps = 0
    left, right = lo, hi
    while left < right:
        n_steps += 1
        mid = (left + right) // 2
        if keys[mid] <= target:
            left = mid + 1
        else:
            right = mid
    if steps is not None:
        steps.append(n_steps)
    idx = left - 1
    if idx >= lo and keys[idx] == target:
        return idx
    return -1


def interpolation_probe(
    keys: Sequence[int], target: int, lo: int = 0, hi: Optional[int] = None
) -> Tuple[int, int]:
    """``(index, steps)``: the rightmost ``target`` in sorted ``keys[lo:hi]``
    (or -1) and the number of interpolation probes it took.

    Runs interpolation probes while the value distribution cooperates and
    falls back to binary search after :data:`MAX_INTERPOLATION_STEPS`.
    """
    if hi is None:
        hi = len(keys)
    left, right = lo, hi - 1
    n_steps = 0
    while left <= right:
        lo_key = keys[left]
        hi_key = keys[right]
        if target < lo_key or target > hi_key:
            return -1, n_steps
        if lo_key == hi_key:
            # Constant run; every slot equals target (since target is within
            # [lo_key, hi_key]). Rightmost occurrence is ``right``.
            return right, n_steps
        n_steps += 1
        if n_steps > MAX_INTERPOLATION_STEPS:
            return binary_search_rightmost(keys, target, left, right + 1), n_steps
        # Interpolate the probe position (lo_key <= target <= hi_key keeps it
        # inside [left, right]); bias towards the right end so that with
        # duplicates we converge on the rightmost occurrence.
        pos = left + (target - lo_key) * (right - left) // (hi_key - lo_key)
        probe = keys[pos]
        if probe <= target:
            # Check whether pos is already the rightmost occurrence.
            if probe == target and (pos == right or keys[pos + 1] > target):
                return pos, n_steps
            left = pos + 1
        else:
            right = pos - 1
    # left > right: the window is empty and every probe ruled the target
    # out, so it is absent (a probe equal to the target would have returned
    # its rightmost occurrence before shrinking the window past it).
    return -1, n_steps


def interpolation_search(
    keys: Sequence[int],
    target: int,
    lo: int = 0,
    hi: Optional[int] = None,
    steps: Optional[List[int]] = None,
) -> int:
    """:func:`interpolation_probe` with the module's ``steps``-list protocol."""
    idx, n_steps = interpolation_probe(keys, target, lo, hi)
    if steps is not None:
        steps.append(n_steps)
    return idx

