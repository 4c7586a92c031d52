"""``repro.kernels`` — whole-column primitives for the library's hot paths.

Bloom probe generation, the buffer's tail sort and run merge, sortedness
metrics, batch-insert pre-checks and delta-packed key columns are expressed
as *kernels*: functions over a whole column, vectorized with NumPy (a
required dependency). A kernel picks its path from its input, not from a
setting:

* an int64 ``ndarray`` column takes the vector path;
* a ``list`` column — a buffer column demoted by a key outside int64 —
  takes a Python path that returns the same values;
* hash input that no NumPy integer dtype holds (keys past uint64) is hashed
  by the scalar functions of :mod:`repro.filters.hashing`, which give the
  same 64-bit words.

Sequential algorithms (the in-order prefix scan, patience sorting) have
one Python body: no whole-column pass beats them. Cost-model charges never
live in kernels — meters bill the *algorithm* of the paper, not the
implementation. A scalar search is not a kernel: a B+-tree node bisects
its own key list (:mod:`repro.btree.node`).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import itemgetter, lt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.filters import hashing

__all__ = [
    "active_backend",
    "set_backend",
    # kernels
    "shared_bases",
    "bloom_add_many",
    "popcount_bytes",
    "nondecreasing_prefix_len",
    "stable_argsort",
    "gather",
    "concat_columns",
    "dedup_last",
    "ItemColumns",
    "as_list",
    "sort_items_by_key",
    "column_strictly_increasing",
    "key_array",
    "longest_nondecreasing_subsequence_length",
    "count_out_of_order",
    "max_displacement",
    "count_inversions",
    "delta_pack",
    "delta_unpack",
]

_M32 = np.uint64(0xFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_ONE, _S27, _S30, _S31, _S32 = (np.uint64(v) for v in (1, 27, 30, 31, 32))

#: What building an integer array from Python values raises when they do
#: not fit one (bignums; ``[1, 2**63]``, which NumPy would round to float).
_NOT_INT = (OverflowError, TypeError, ValueError)


def active_backend() -> str:
    """The kernel implementation reports are stamped with: ``"numpy"``."""
    return "numpy"


def set_backend(name: Optional[str]) -> None:
    """Pin the kernel implementation: ``"numpy"`` (the only one) or ``None``.

    Any other name raises :class:`~repro.errors.ConfigError`, so a caller
    that asks for an implementation this build lacks finds out at once.
    """
    if name not in (None, "numpy"):
        raise ConfigError(f"unknown kernel backend {name!r}; the only one is 'numpy'")


def _int_array(values) -> np.ndarray:
    """``values`` as an integer ndarray; raises one of :data:`_NOT_INT`."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"not an integer column: {arr.dtype}")
    return arr


def _ordered(keys) -> np.ndarray:
    """``keys`` as an array NumPy orders exactly: an integer dtype when they
    fit one, else Python objects (bignums compare as ints, never as floats)."""
    try:
        return _int_array(keys)
    except _NOT_INT:
        return np.asarray(keys, dtype=object)


# ----------------------------------------------------------------------
# hashing / Bloom filters
# ----------------------------------------------------------------------
def _splitmix64_arr(keys: np.ndarray) -> np.ndarray:
    z = keys + np.uint64(_GOLDEN)
    z ^= z >> _S30  # in place from here on: ``z`` is this call's own array
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def shared_bases(keys: Sequence[int]):
    """One 64-bit base hash per key (batch hash sharing).

    A uint64 array — ``astype(uint64)`` on signed keys is the same two's-
    complement ``key & MASK64`` the scalar hashes apply — or, for keys no
    NumPy integer dtype holds, the list of equal words the scalar hashes
    compute.
    """
    try:
        arr = _int_array(keys).astype(np.uint64, copy=False)
    except _NOT_INT:
        return hashing.shared_bases(keys)
    return _splitmix64_arr(arr)


def _probe_matrix(bases, n_probes: int, n_bits: int, rotation: int) -> np.ndarray:
    """Kirsch–Mitzenmacher probe positions, shape ``(n_keys, n_probes)``.

    ``h1 + i*h2`` stays far below 2**64 (h1, h2 < 2**32, i small), so the
    uint64 arithmetic is exact — no wraparound before the modulo, exactly
    like the arbitrary-precision scalar path.
    """
    bases = np.asarray(bases, dtype=np.uint64)
    if rotation:
        r = np.uint64(rotation & 63)
        bases = (bases << r) | (bases >> (np.uint64(64) - r))
    h2 = bases >> _S32
    h2 |= _ONE
    pos = h2[:, None] * np.arange(n_probes, dtype=np.uint64)
    pos += (bases & _M32)[:, None]
    pos %= np.uint64(n_bits)
    return pos


def bloom_add_many(
    bits: bytearray,
    bases: Sequence[int],
    n_probes: int,
    n_bits: int,
    rotation: int = 0,
) -> None:
    """Set the Kirsch–Mitzenmacher probe bits for every base hash."""
    if len(bases) == 0:
        return
    pos = _probe_matrix(bases, n_probes, n_bits, rotation)
    # Mark probe positions in a bool scratch (duplicate positions are plain
    # overwrites, no ufunc.at needed), pack little-endian — bit p lands in
    # byte p>>3 at bit p&7, the byte path's exact layout — and OR the packed
    # block into the store in one vector op.
    scratch = np.zeros(len(bits) * 8, dtype=bool)
    scratch[pos.ravel().astype(np.intp)] = True
    view = np.frombuffer(bits, dtype=np.uint8)
    view |= np.packbits(scratch, bitorder="little")


def popcount_bytes(buf) -> int:
    """Total set bits in a byte buffer."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return int(np.bitwise_count(arr).sum(dtype=np.int64))
    return int(np.unpackbits(arr).sum(dtype=np.int64))  # pragma: no cover


# ----------------------------------------------------------------------
# buffer primitives
# ----------------------------------------------------------------------
def nondecreasing_prefix_len(keys: Sequence[int], last: Optional[int]) -> int:
    """Length of the longest prefix continuing an in-order run.

    ``last`` is the previous maximum (``None`` when the run is empty); the
    prefix ends at the first key that undercuts its predecessor. The scan
    stops there — a handful of keys into a near-sorted chunk — which no
    whole-column pass can beat.
    """
    split = 0
    n = len(keys)
    while split < n and (last is None or keys[split] >= last):
        last = keys[split]
        split += 1
    return split


def key_array(keys):
    """Keys or seqs as an int64 column when every one fits, else a list."""
    if type(keys) is not list:
        keys = list(keys)
    try:
        return np.asarray(keys, dtype=np.int64)
    except _NOT_INT:
        return keys


def as_list(column) -> list:
    """A key or seq column as a list of Python ints (arrays unboxed)."""
    return column if type(column) is list else column.tolist()


def stable_argsort(keys):
    """Positions of ``keys`` in ascending order, ties by position.

    The buffer's tail sort and every merge of its sorted components: a
    component sequence is concatenated oldest first, so ordering ties by
    position is ordering by ``(key, seq)``.
    """
    if isinstance(keys, np.ndarray):
        return np.argsort(keys, kind="stable")  # timsort: near-linear on sorted runs
    return sorted(range(len(keys)), key=keys.__getitem__)


def gather(column, order):
    """``column`` (keys, seqs or values) permuted by ``order``; an array
    column stays an array, any other comes back as a list."""
    if isinstance(column, np.ndarray):
        return column[order]
    if isinstance(order, np.ndarray):
        order = order.tolist()
    if len(order) < 2:
        return [column[i] for i in order]
    return list(itemgetter(*order)(column))


def concat_columns(columns):
    """Key or seq columns joined end to end: an array when every one is an
    array, else a list."""
    if columns and all(isinstance(column, np.ndarray) for column in columns):
        return np.concatenate(columns)
    out: list = []
    for column in columns:
        out.extend(as_list(column))
    return out


def dedup_last(keys, values):
    """Keep the last slot of every run of equal keys in a sorted column
    pair — the newest version, the only one the tree needs to see."""
    n = len(keys)
    if isinstance(keys, np.ndarray) and n >= 2:
        keep = np.empty(n, dtype=bool)
        keep[-1] = True
        np.not_equal(keys[:-1], keys[1:], out=keep[:-1])
        if keep.all():
            return keys, values
        idx = np.flatnonzero(keep)
        return keys[idx], gather(values, idx)
    keep = [i for i in range(n - 1) if keys[i] != keys[i + 1]]
    if len(keep) + 1 >= n:
        return keys, values
    keep.append(n - 1)
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
    """Stable sort of ``(key, value)`` pairs by key (later duplicate last).

    Timsort on the tuple list beats extract-argsort-rebuild at every batch
    size we ship (2.7x on near-sorted batches, 1.3x on shuffled ones): the
    listcomps around argsort cost more than the sort itself, and timsort
    exploits presortedness that argsort's introsort cannot.
    """
    return sorted(items, key=itemgetter(0))


def column_strictly_increasing(col) -> bool:
    """True when the sorted key column has strictly increasing keys."""
    if isinstance(col, np.ndarray):
        return bool(np.all(col[:-1] < col[1:]))
    return all(map(lt, col, islice(col, 1, None)))


# ----------------------------------------------------------------------
# sortedness metrics
# ----------------------------------------------------------------------
def longest_nondecreasing_subsequence_length(keys: Sequence[int]) -> int:
    """Length of the longest non-decreasing subsequence (patience sorting).

    A sequential dependence chain — each key lands on a pile determined by
    all previous piles — so per-key NumPy calls would lose to ``bisect``.
    """
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
    if len(keys) < 2:
        return 0
    order = np.argsort(_ordered(keys), kind="stable")
    return int(np.abs(order - np.arange(len(keys))).max())


def count_inversions(keys: Sequence[int]) -> int:
    """Number of pairs (i, j) with i < j and keys[i] > keys[j].

    Stable ranks turn the input into a permutation with the same inversion
    count (equal keys get increasing ranks, so ties add no pairs), then a
    bottom-up merge-count runs every row of each level in one vector op:
    per-row offsets of P separate the rows' value ranges so one global
    searchsorted counts "left-half elements below y" for every y at once.
    """
    n = len(keys)
    if n < 2:
        return 0
    order = np.argsort(_ordered(keys), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    p = 1 << (n - 1).bit_length()
    # Pad with ascending sentinels above every rank: zero extra inversions.
    a = np.concatenate([rank, np.arange(n, p, dtype=np.int64)])
    total = 0
    width = 1
    while width < p:
        m = a.reshape(-1, 2 * width)
        nrows = m.shape[0]
        offsets = np.arange(nrows, dtype=np.int64)[:, None] * p
        left = (m[:, :width] + offsets).ravel()
        right = (m[:, width:] + offsets).ravel()
        below = np.searchsorted(left, right)
        row_base = np.repeat(np.arange(nrows, dtype=np.int64) * width, width)
        total += int((width - (below - row_base)).sum(dtype=np.int64))
        a = np.sort(m, axis=1).ravel()
        width *= 2
    return total


# ----------------------------------------------------------------------
# delta-compressed int64 columns (the key and value blocks of v2 pages)
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
    if len(keys) == 0:
        return 0, 0, b""
    arr = np.asarray(keys, dtype=np.int64)
    anchor = int(arr[0])
    # Two's-complement reinterpret, then wraparound uint64 differences:
    # ``(key - prev) & MASK64``.
    unsigned = arr.view(np.uint64)
    deltas = unsigned[1:] - unsigned[:-1]
    width = int(deltas.max()).bit_length() if deltas.size else 0
    if width == 0:
        return anchor, 0, b""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((deltas[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return anchor, width, np.packbits(bits.ravel(), bitorder="little").tobytes()


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
    n_deltas = count - 1
    raw = np.frombuffer(packed, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little", count=n_deltas * width)
    bits = bits.reshape(n_deltas, width).astype(np.uint64)
    deltas = np.bitwise_or.reduce(bits << np.arange(width, dtype=np.uint64), axis=1)
    keys = np.empty(count, dtype=np.uint64)
    keys[0] = np.uint64(anchor & _MASK64)
    # uint64 cumsum wraps mod 2**64, matching the scalar reduction.
    np.cumsum(deltas, dtype=np.uint64, out=keys[1:])
    keys[1:] += keys[0]
    return keys.view(np.int64).tolist()
