"""``repro.kernels`` — whole-column primitives for the library's hot paths.

Bloom probe generation, the buffer's tail sort and run merge, sortedness
metrics, batch-insert pre-checks and delta-packed key columns are expressed
as *kernels*: functions over a whole column, vectorized with NumPy (a
required dependency). Keys are int64 (every write refuses any other), so a
key column is an int64 ``ndarray``; the few kernels the B+-tree's batch
insert also calls with a list of Python ints (:func:`gather`,
:func:`dedup_last`, :func:`column_strictly_increasing`) take a Python path
for it that returns the same values.

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
    "delta_unpack_blocks",
]

_M32 = np.uint64(0xFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_ONE, _S27, _S30, _S31, _S32, _S63 = (np.uint64(v) for v in (1, 27, 30, 31, 32, 63))


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


def shared_bases(keys: Sequence[int]) -> np.ndarray:
    """One 64-bit base hash per key (batch hash sharing), as a uint64 array:
    the int64 keys viewed as uint64 are the same two's-complement
    ``key & MASK64`` the scalar hashes apply."""
    return _splitmix64_arr(key_array(keys).view(np.uint64))


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


def key_array(keys) -> np.ndarray:
    """Keys or seqs as an int64 column."""
    return np.asarray(keys, dtype=np.int64)


def as_list(column) -> list:
    """A key or seq column as a list of Python ints (arrays unboxed)."""
    return column if type(column) is list else column.tolist()


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Positions of ``keys`` in ascending order, ties by position.

    The buffer's tail sort and every merge of its sorted components: a
    component sequence is concatenated oldest first, so ordering ties by
    position is ordering by ``(key, seq)``.
    """
    return np.argsort(keys, kind="stable")  # timsort: near-linear on sorted runs


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


def concat_columns(columns) -> np.ndarray:
    """Key or seq columns joined end to end."""
    return np.concatenate(columns)


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
    order = np.argsort(key_array(keys), kind="stable")
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
    order = np.argsort(key_array(keys), kind="stable")
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


def delta_unpack_blocks(blocks: Sequence[Tuple[int, int, int, bytes]]) -> List[List[int]]:
    """Inverse of :func:`delta_pack` over many ``(anchor, width, count, packed)``
    blocks at once: the original int64 column of each block, in order.
    ``count`` is a block's number of keys, its anchor included. One block
    decodes as a batch of one.

    Blocks may differ in width and count. Their payloads are laid end to
    end in one buffer, and delta ``i`` of a block whose payload starts at
    byte ``o`` is the ``width`` bits at bit ``8 * o + i * width``: an
    unaligned little-endian 64-bit word read at that bit's byte, shifted
    down, topped up from the ninth byte (a delta over 57 bits can span
    nine, so only a batch holding such a width reads it) and masked. One
    cumulative sum runs over every delta of the batch; a block's keys are
    its anchor, then its anchor plus the sum since the block began. All
    arithmetic happens in the unsigned mod-2**64 domain and is folded back
    to signed int64 at the end, matching the encoder's reduction.

    Raises ``ValueError`` for a width over 64 or a payload shorter than
    its ``(count - 1) * width`` bits.
    """
    heads: List[Tuple[Optional[int], int]] = []  # (anchor as int64, deltas) per block
    anchors, firsts, bases, widths, n_deltas, masks, payloads = [], [], [], [], [], [], []
    n_bits = offset = 0
    for anchor, width, count, packed in blocks:
        if count <= 0:
            heads.append((None, 0))
            continue
        if not 0 <= width <= 64:
            raise ValueError(f"delta width {width} outside 0..64")
        if 8 * len(packed) < (count - 1) * width:
            raise ValueError(f"{len(packed)} bytes hold fewer than {count - 1} deltas")
        anchor &= _MASK64
        heads.append((anchor - (1 << 64) if anchor >> 63 else anchor, count - 1))
        anchors.append(anchor)
        firsts.append(n_bits)
        payloads.append(packed)
        # Delta j of the batch (j = n_bits + i) starts at bit base + j * width.
        bases.append(8 * offset - n_bits * width)
        widths.append(width)
        n_deltas.append(count - 1)
        masks.append((1 << width) - 1)
        n_bits += count - 1
        offset += len(packed)
    buffer = b"".join(payloads) + bytes(9)
    block = np.arange(len(anchors)).repeat(n_deltas)  # each delta's block
    bit = np.array(bases, dtype=np.int64)[block]
    bit += np.arange(n_bits, dtype=np.int64) * np.array(widths, dtype=np.int64)[block]
    byte = bit >> 3
    shift = (bit & 7).astype(np.uint64)
    words = np.ndarray((len(buffer) - 8,), dtype="<u8", buffer=buffer, strides=(1,))
    deltas = words[byte] >> shift
    if max(widths, default=0) > 57:
        ninth = np.frombuffer(buffer, dtype=np.uint8)[byte + 8].astype(np.uint64)
        deltas |= (ninth << (_S63 - shift)) << _ONE
    deltas &= np.array(masks, dtype=np.uint64)[block]
    # uint64 sums wrap mod 2**64, matching the scalar reduction.
    total = np.zeros(n_bits + 1, dtype=np.uint64)
    np.add.accumulate(deltas, out=total[1:])
    before = total[np.array(firsts, dtype=np.int64)] - np.array(anchors, dtype=np.uint64)
    rest = (total[1:] - before[block]).view(np.int64).tolist()
    columns: List[List[int]] = []
    stop = 0
    for head, n in heads:
        start, stop = stop, stop + n
        columns.append([] if head is None else [head, *rest[start:stop]])
    return columns
