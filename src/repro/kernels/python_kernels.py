"""Pure-Python reference kernels.

Every function here is the *semantic definition* of a kernel: the NumPy
backend (:mod:`repro.kernels.numpy_kernels`) must reproduce these results
bit for bit (Bloom bit patterns, sort orders, metric values), a contract
pinned by ``tests/test_kernels_equivalence.py``. Several bodies are the
hot-path loops that previously lived inline in ``filters.bloom``,
``core.buffer``, ``btree.btree`` and ``sortedness.metrics``; they moved
here unchanged so both backends sit behind one dispatch point.

This module must stay import-light (no numpy, no repro.core/*): it is the
fallback that keeps the library dependency-free.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import itemgetter, lt
from typing import List, Optional, Sequence, Tuple

from repro.filters.hashing import murmur3_64, rotate64, shared_bases as _shared_bases

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Chunk width (bytes) for the incremental popcount — large enough that the
#: per-chunk ``int.from_bytes`` overhead amortizes, small enough that no
#: single bignum conversion dominates (the previous implementation built one
#: bignum for the whole filter on every call).
_POPCOUNT_CHUNK = 4096


# ----------------------------------------------------------------------
# hashing / Bloom filters
# ----------------------------------------------------------------------
def shared_bases(keys: Sequence[int], family: str = "splitmix64", seed: int = 0):
    """One 64-bit base hash per key (batch hash sharing)."""
    return _shared_bases(keys, family, seed)


def splitmix64_many(keys: Sequence[int], seed: int = 0) -> List[int]:
    """Vectorizable alias for the splitmix64 batch hash."""
    return _shared_bases(keys, "splitmix64", seed)


def murmur3_64_many(keys: Sequence[int], seed: int = 0) -> List[int]:
    return [murmur3_64(key, seed) for key in keys]


def bloom_add_many(
    bits: bytearray,
    bases: Sequence[int],
    n_probes: int,
    n_bits: int,
    rotation: int = 0,
) -> None:
    """Set the Kirsch–Mitzenmacher probe bits for every base hash."""
    probes = range(n_probes)
    for base in bases:
        if rotation:
            base = rotate64(base, rotation)
        h1 = base & _MASK32
        h2 = (base >> 32) | 1
        for i in probes:
            pos = (h1 + i * h2) % n_bits
            bits[pos >> 3] |= 1 << (pos & 7)


def bloom_contains_many(
    bits: bytearray,
    bases: Sequence[int],
    n_probes: int,
    n_bits: int,
    rotation: int = 0,
) -> List[bool]:
    """One membership verdict per base hash (early exit per key)."""
    out: List[bool] = []
    append = out.append
    for base in bases:
        if rotation:
            base = rotate64(base, rotation)
        h1 = base & _MASK32
        h2 = (base >> 32) | 1
        hit = True
        for i in range(n_probes):
            pos = (h1 + i * h2) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                hit = False
                break
        append(hit)
    return out


def popcount_bytes(buf) -> int:
    """Total set bits in a byte buffer, converted in bounded chunks."""
    view = memoryview(buf)
    total = 0
    for start in range(0, len(view), _POPCOUNT_CHUNK):
        chunk = int.from_bytes(view[start : start + _POPCOUNT_CHUNK], "little")
        try:
            total += chunk.bit_count()
        except AttributeError:  # pragma: no cover - Python 3.9 only
            total += bin(chunk).count("1")
    return total


# ----------------------------------------------------------------------
# buffer primitives
# ----------------------------------------------------------------------
def nondecreasing_prefix_len(keys: Sequence[int], last: Optional[int]) -> int:
    """Length of the longest prefix continuing an in-order run.

    ``last`` is the previous maximum (``None`` when the run is empty); the
    prefix ends at the first key that undercuts its predecessor.
    """
    split = 0
    n = len(keys)
    while split < n and (last is None or keys[split] >= last):
        last = keys[split]
        split += 1
    return split


def stable_argsort(keys) -> List[int]:
    """Positions of ``keys`` in ascending order, ties by position.

    The buffer's tail sort and every merge of its sorted components: a
    component sequence is concatenated oldest first, so ordering ties by
    position is ordering by ``(key, seq)``.
    """
    return sorted(range(len(keys)), key=keys.__getitem__)


def gather(column, order) -> list:
    """``column`` (keys, seqs or values) permuted by ``order``, as a list."""
    if len(order) < 2:
        return [column[i] for i in order]
    return list(itemgetter(*order)(column))


def key_array(keys):
    """A key or seq sequence as the backend's column type (here a list)."""
    return list(keys)


def as_list(column) -> list:
    """A key or seq column as a list of Python ints (arrays unboxed)."""
    return column if type(column) is list else column.tolist()


def concat_columns(columns) -> list:
    """Key or seq columns joined end to end, as a list."""
    out: list = []
    for column in columns:
        out.extend(as_list(column))
    return out


def dedup_last(keys, values):
    """Keep the last slot of every run of equal keys in a sorted column
    pair — the newest version, the only one the tree needs to see."""
    keep = [i for i in range(len(keys) - 1) if keys[i] != keys[i + 1]]
    if len(keep) + 1 >= len(keys):
        return keys, values
    keep.append(len(keys) - 1)
    return gather(keys, keep), gather(values, keep)


class ItemColumns:
    """A key column and a value list offered as a sequence of ``(key,
    value)`` pairs: what a flush hands ``bulk_load_append``, so a backend
    that wants the columns takes them and any other iterates the pairs."""

    __slots__ = ("keys", "values")

    def __init__(self, keys, values: list):
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ItemColumns(self.keys[index], self.values[index])
        return int(self.keys[index]), self.values[index]

    def __iter__(self):
        return zip(as_list(self.keys), self.values)


# ----------------------------------------------------------------------
# B+-tree batch pre-pass
# ----------------------------------------------------------------------
def sort_items_by_key(items: Sequence[Tuple[int, object]]) -> List[Tuple[int, object]]:
    """Stable sort of ``(key, value)`` pairs by key (later duplicate last)."""
    return sorted(items, key=itemgetter(0))


def keys_strictly_increasing(batch: Sequence[Tuple[int, object]]) -> bool:
    """True when the (sorted) batch has strictly increasing keys."""
    return all(batch[i - 1][0] < batch[i][0] for i in range(1, len(batch)))


def column_strictly_increasing(col) -> bool:
    """True when the sorted key column has strictly increasing keys."""
    return all(map(lt, col, islice(col, 1, None)))


# ----------------------------------------------------------------------
# sortedness metrics
# ----------------------------------------------------------------------
def longest_nondecreasing_subsequence_length(keys: Sequence[int]) -> int:
    """Length of the longest non-decreasing subsequence (patience sorting)."""
    tails: List[int] = []  # tails[i] = smallest tail of a subsequence of len i+1
    for key in keys:
        pos = bisect_right(tails, key)
        if pos == len(tails):
            tails.append(key)
        else:
            tails[pos] = key
    return len(tails)


def count_out_of_order(keys: Sequence[int]) -> int:
    """Exact K: minimum removals that leave the sequence non-decreasing."""
    return len(keys) - longest_nondecreasing_subsequence_length(keys)


def max_displacement(keys: Sequence[int]) -> int:
    """Exact L: max |i - sorted_position(i)| under a stable sort."""
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    worst = 0
    for sorted_pos, original_pos in enumerate(order):
        displacement = abs(sorted_pos - original_pos)
        if displacement > worst:
            worst = displacement
    return worst


def count_inversions(keys: Sequence[int]) -> int:
    """Number of pairs (i, j) with i < j and keys[i] > keys[j].

    Merge-count implementation, O(N log N); duplicates do not count as
    inversions.
    """
    arr = list(keys)
    temp = [0] * len(arr)

    def merge_count(lo: int, hi: int) -> int:
        if hi - lo <= 1:
            return 0
        mid = (lo + hi) // 2
        inv = merge_count(lo, mid) + merge_count(mid, hi)
        i, j, k = lo, mid, lo
        while i < mid and j < hi:
            if arr[i] <= arr[j]:
                temp[k] = arr[i]
                i += 1
            else:
                temp[k] = arr[j]
                inv += mid - i
                j += 1
            k += 1
        while i < mid:
            temp[k] = arr[i]
            i += 1
            k += 1
        while j < hi:
            temp[k] = arr[j]
            j += 1
            k += 1
        arr[lo:hi] = temp[lo:hi]
        return inv

    return merge_count(0, len(arr))


def count_runs(keys: Sequence[int]) -> int:
    """Mannila's *Runs* measure: number of maximal non-decreasing runs."""
    if not keys:
        return 0
    runs = 1
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            runs += 1
    return runs


# ----------------------------------------------------------------------
# piecewise-linear approximation (PGM/FITing-tree style learned index)
# ----------------------------------------------------------------------
def pla_fit_segments(keys: Sequence[int], epsilon: int):
    """Greedy shrinking-cone PLA fit over a sorted, unique key column.

    Returns ``(first_keys, slopes, starts)``: segment ``i`` covers the index
    range ``starts[i]:starts[i+1]`` (the last segment runs to ``len(keys)``)
    and predicts ``pos ~= starts[i] + slopes[i] * (key - first_keys[i])``
    with absolute error at most ``epsilon`` for every fitted key.

    The cone is the classic feasible-slope interval: each new point
    intersects ``[slope_lo, slope_hi]`` with the slopes that keep it within
    +/- epsilon of the segment origin; an empty intersection closes the
    segment with the midpoint slope and opens a new one at the point.
    """
    n = len(keys)
    first_keys: list = []
    slopes: list = []
    starts: list = []
    if n == 0:
        return first_keys, slopes, starts
    eps = float(epsilon)
    x0 = keys[0]
    y0 = 0
    slope_lo = 0.0
    slope_hi = float("inf")
    starts.append(0)
    first_keys.append(x0)
    for i in range(1, n):
        dx = float(keys[i] - x0)
        dy = float(i - y0)
        hi = (dy + eps) / dx
        lo = (dy - eps) / dx
        new_lo = lo if lo > slope_lo else slope_lo
        new_hi = hi if hi < slope_hi else slope_hi
        if new_lo > new_hi:
            slopes.append(_cone_slope(slope_lo, slope_hi))
            x0 = keys[i]
            y0 = i
            slope_lo = 0.0
            slope_hi = float("inf")
            starts.append(i)
            first_keys.append(x0)
        else:
            slope_lo = new_lo
            slope_hi = new_hi
    slopes.append(_cone_slope(slope_lo, slope_hi))
    return first_keys, slopes, starts


def _cone_slope(slope_lo: float, slope_hi: float) -> float:
    """The representative slope of a closed cone (midpoint; 0 for a point)."""
    if slope_hi == float("inf"):
        # Single-point segment: any slope fits; 0 keeps predictions pinned.
        return 0.0
    return (slope_lo + slope_hi) / 2.0


def pla_predict_many(first_keys, slopes, starts, keys):
    """Predicted data-layer position per query key, one ``int`` per key.

    ``first_keys``/``slopes``/``starts`` are the columns produced by
    :func:`pla_fit_segments`. Keys below the first segment clamp to segment
    0. Predictions are raw (not clamped to the data bounds) — the caller
    owns clamping and the epsilon search window.
    """
    from bisect import bisect_right

    out = []
    for key in keys:
        seg = bisect_right(first_keys, key) - 1
        if seg < 0:
            seg = 0
        out.append(starts[seg] + int(slopes[seg] * float(key - first_keys[seg])))
    return out


# ----------------------------------------------------------------------
# delta-compressed key columns (compressed leaf pages / rebuild runs)
# ----------------------------------------------------------------------
def delta_pack(keys: Sequence[int]) -> Tuple[int, int, bytes]:
    """Delta-encode an int64 key column: ``(anchor, width, packed)``.

    ``anchor`` is the first key; the remaining ``len(keys) - 1`` keys are
    stored as successive differences reduced mod 2**64 and bit-packed at a
    uniform ``width`` (the widest delta's bit length), LSB-first into a
    little-endian byte string — bit ``j`` of delta ``i`` lands at overall
    bit position ``i*width + j``, i.e. byte ``(i*width + j) >> 3``, bit
    ``(i*width + j) & 7``.

    Sorted columns produce small deltas and therefore small widths; the
    mod-2**64 reduction makes the encoding *correct* for any int64 column
    (a descending pair wraps to a ~64-bit delta — no compression, never
    corruption). ``width == 0`` means every key equals the anchor.
    """
    n = len(keys)
    if n == 0:
        return 0, 0, b""
    anchor = keys[0]
    if n == 1:
        return anchor, 0, b""
    width = 0
    deltas: List[int] = []
    previous = anchor
    for key in keys[1:]:
        delta = (key - previous) & _MASK64
        deltas.append(delta)
        bits = delta.bit_length()
        if bits > width:
            width = bits
        previous = key
    if width == 0:
        return anchor, 0, b""
    accumulator = 0
    shift = 0
    for delta in deltas:
        accumulator |= delta << shift
        shift += width
    return anchor, width, accumulator.to_bytes((shift + 7) // 8, "little")


def delta_unpack(anchor: int, width: int, count: int, packed: bytes) -> List[int]:
    """Inverse of :func:`delta_pack`: the original int64 key column.

    ``count`` is the total number of keys including the anchor. All
    arithmetic happens in the unsigned mod-2**64 domain and is folded back
    to signed int64 at the end, matching the encoder's reduction.
    """
    if count <= 0:
        return []
    if width == 0:
        return [anchor] * count
    accumulator = int.from_bytes(packed, "little")
    mask = (1 << width) - 1
    keys = [anchor]
    unsigned = anchor & _MASK64
    shift = 0
    for _ in range(count - 1):
        unsigned = (unsigned + ((accumulator >> shift) & mask)) & _MASK64
        shift += width
        keys.append(unsigned - (1 << 64) if unsigned >= (1 << 63) else unsigned)
    return keys
