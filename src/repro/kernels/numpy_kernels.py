"""NumPy-vectorized kernels.

Drop-in replacements for :mod:`repro.kernels.python_kernels` that operate on
whole arrays instead of per-element Python loops. Every function returns
*bit-identical* results to its pure-Python twin (same Bloom bit patterns,
same stable sort orders, same metric values) — only the wall-clock changes.
The equivalence contract is enforced by ``tests/test_kernels_equivalence.py``.

All 64-bit hash arithmetic runs on ``uint64`` arrays, where NumPy's
wraparound multiplication/addition is exactly the ``& 0xFFFF...FFFF`` masking
the scalar implementations perform. Inputs that do not fit a NumPy integer
dtype (arbitrary-precision Python ints, mixed objects) make each kernel fall
back to the pure-Python implementation for that call, so behaviour never
depends on value ranges.

This module must only be imported through :mod:`repro.kernels`, which guards
the ``import numpy`` behind availability checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import python_kernels as _py

_M32 = np.uint64(0xFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_ONE, _S27, _S30, _S31, _S32 = (np.uint64(v) for v in (1, 27, 30, 31, 32))

#: Raised internally when an input cannot be represented as a NumPy integer
#: array; the public kernels catch it and delegate to the Python backend.
class _Fallback(Exception):
    pass


_FALLBACK_ERRORS = (_Fallback, OverflowError, TypeError, ValueError)


def _int_array(values) -> np.ndarray:
    """``values`` as an integer ndarray, or :class:`_Fallback`."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise _Fallback
    return arr


def _u64_array(values) -> np.ndarray:
    """``values`` reduced mod 2**64 as a uint64 ndarray, or :class:`_Fallback`.

    ``astype(uint64)`` on a signed array is two's-complement wraparound —
    the same ``key & _MASK64`` the scalar hashes apply to negative keys.
    """
    return _int_array(values).astype(np.uint64, copy=False)


# ----------------------------------------------------------------------
# hashing / Bloom filters
# ----------------------------------------------------------------------
def _splitmix64_arr(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    z = keys + np.uint64((seed * _GOLDEN + _GOLDEN) & _MASK64)
    z ^= z >> _S30  # in place from here on: ``z`` is this call's own array
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _murmur3_32_block8(lo32: np.ndarray, hi32: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized murmur3_32 over 8-byte keys split into two LE 32-bit blocks.

    Mirrors ``hashing.murmur3_32`` specialised to ``len(data) == 8``: two
    block rounds, no tail bytes, then the finalization mix. Work happens in
    uint64 lanes masked back to 32 bits after every step, matching the
    scalar code's ``& _MASK32``.
    """
    c1 = np.uint64(0xCC9E2D51)
    c2 = np.uint64(0x1B873593)
    h = np.full(lo32.shape, np.uint64(seed & 0xFFFFFFFF), dtype=np.uint64)
    for block in (lo32, hi32):
        k = (block * c1) & _M32
        k = ((k << np.uint64(15)) | (k >> np.uint64(17))) & _M32
        k = (k * c2) & _M32
        h = h ^ k
        h = ((h << np.uint64(13)) | (h >> np.uint64(19))) & _M32
        h = (h * np.uint64(5) + np.uint64(0xE6546B64)) & _M32
    h = h ^ np.uint64(8)  # ^= length
    h = h ^ (h >> np.uint64(16))
    h = (h * np.uint64(0x85EBCA6B)) & _M32
    h = h ^ (h >> np.uint64(13))
    h = (h * np.uint64(0xC2B2AE35)) & _M32
    return h ^ (h >> np.uint64(16))


def _murmur3_64_arr(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    lo32 = keys & _M32
    hi32 = keys >> np.uint64(32)
    lo = _murmur3_32_block8(lo32, hi32, seed)
    hi = _murmur3_32_block8(lo32, hi32, seed ^ 0x9E3779B9)
    return (hi << np.uint64(32)) | lo


def shared_bases(keys: Sequence[int], family: str = "splitmix64", seed: int = 0):
    """One 64-bit base hash per key, as a uint64 array."""
    try:
        arr = _u64_array(keys)
    except _FALLBACK_ERRORS:
        return _py.shared_bases(keys, family, seed)
    if family == "splitmix64":
        return _splitmix64_arr(arr, seed)
    if family == "murmur3":
        return _murmur3_64_arr(arr, seed)
    raise ValueError(f"unknown hash family: {family!r}")


def splitmix64_many(keys: Sequence[int], seed: int = 0):
    try:
        arr = _u64_array(keys)
    except _FALLBACK_ERRORS:
        return _py.splitmix64_many(keys, seed)
    return _splitmix64_arr(arr, seed)


def murmur3_64_many(keys: Sequence[int], seed: int = 0):
    try:
        arr = _u64_array(keys)
    except _FALLBACK_ERRORS:
        return _py.murmur3_64_many(keys, seed)
    return _murmur3_64_arr(arr, seed)


def _probe_matrix(bases: np.ndarray, n_probes: int, n_bits: int, rotation: int) -> np.ndarray:
    """Kirsch–Mitzenmacher probe positions, shape ``(n_keys, n_probes)``.

    ``h1 + i*h2`` stays far below 2**64 (h1, h2 < 2**32, i small), so the
    uint64 arithmetic is exact — no wraparound before the modulo, exactly
    like the arbitrary-precision scalar path.
    """
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
    try:
        base_arr = _u64_array(bases)
    except _FALLBACK_ERRORS:
        _py.bloom_add_many(bits, bases, n_probes, n_bits, rotation)
        return
    if base_arr.size == 0:
        return
    pos = _probe_matrix(base_arr, n_probes, n_bits, rotation)
    # Mark probe positions in a bool scratch (duplicate positions are plain
    # overwrites, no ufunc.at needed), pack little-endian — bit p lands in
    # byte p>>3 at bit p&7, the byte path's exact layout — and OR the packed
    # block into the store in one vector op.
    scratch = np.zeros(len(bits) * 8, dtype=bool)
    scratch[pos.ravel().astype(np.intp)] = True
    packed = np.packbits(scratch, bitorder="little")
    view = np.frombuffer(bits, dtype=np.uint8)
    view |= packed


def bloom_contains_many(
    bits: bytearray,
    bases: Sequence[int],
    n_probes: int,
    n_bits: int,
    rotation: int = 0,
) -> List[bool]:
    try:
        base_arr = _u64_array(bases)
    except _FALLBACK_ERRORS:
        return _py.bloom_contains_many(bits, bases, n_probes, n_bits, rotation)
    if base_arr.size == 0:
        return []
    pos = _probe_matrix(base_arr, n_probes, n_bits, rotation)
    byte_view = np.frombuffer(bits, dtype=np.uint8)
    byte_idx = (pos >> np.uint64(3)).astype(np.intp)
    shift = (pos & np.uint64(7)).astype(np.uint8)
    probe_hits = (byte_view[byte_idx] >> shift) & np.uint8(1)
    return probe_hits.all(axis=1).tolist()


def popcount_bytes(buf) -> int:
    arr = np.frombuffer(buf, dtype=np.uint8)
    if arr.size == 0:
        return 0
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return int(np.bitwise_count(arr).sum(dtype=np.int64))
    return int(np.unpackbits(arr).sum(dtype=np.int64))  # pragma: no cover


# ----------------------------------------------------------------------
# buffer primitives
# ----------------------------------------------------------------------
def nondecreasing_prefix_len(keys: Sequence[int], last: Optional[int]) -> int:
    # The scan stops at the first descent — a handful of keys into a
    # near-sorted chunk — which no whole-column pass can beat.
    return _py.nondecreasing_prefix_len(keys, last)


def stable_argsort(keys):
    try:
        arr = _int_array(keys)
    except _FALLBACK_ERRORS:
        return _py.stable_argsort(keys)
    return np.argsort(arr, kind="stable")  # timsort: near-linear on sorted runs


def gather(column, order):
    if isinstance(column, np.ndarray):
        return column[order]
    return _py.gather(column, order.tolist() if isinstance(order, np.ndarray) else order)


def key_array(keys):
    """Keys or seqs as an int64 column when every one fits, else a list."""
    if type(keys) is not list:
        keys = list(keys)
    try:
        return np.asarray(keys, dtype=np.int64)
    except _FALLBACK_ERRORS:
        return keys


def concat_columns(columns):
    if columns and all(isinstance(column, np.ndarray) for column in columns):
        return np.concatenate(columns)
    return _py.concat_columns(columns)


def dedup_last(keys, values):
    n = len(keys)
    if n < 2 or not isinstance(keys, np.ndarray):
        return _py.dedup_last(keys, values)
    keep = np.empty(n, dtype=bool)
    keep[-1] = True
    np.not_equal(keys[:-1], keys[1:], out=keep[:-1])
    if keep.all():
        return keys, values
    idx = np.flatnonzero(keep)
    return keys[idx], _py.gather(values, idx.tolist())


# ----------------------------------------------------------------------
# B+-tree batch pre-pass
# ----------------------------------------------------------------------
def sort_items_by_key(items: Sequence[Tuple[int, object]]) -> List[Tuple[int, object]]:
    # Timsort on the tuple list beats extract-argsort-rebuild at every batch
    # size we ship (2.7x on near-sorted batches, 1.3x on shuffled ones): the
    # listcomps around argsort cost more than the sort itself, and timsort
    # exploits presortedness that argsort's introsort cannot.
    return _py.sort_items_by_key(items)


def keys_strictly_increasing(batch: Sequence[Tuple[int, object]]) -> bool:
    if len(batch) < 2:
        return True
    try:
        keys = _int_array([key for key, _value in batch])
    except _FALLBACK_ERRORS:
        return _py.keys_strictly_increasing(batch)
    return bool(np.all(keys[1:] > keys[:-1]))


def column_strictly_increasing(col) -> bool:
    if not isinstance(col, np.ndarray):
        return _py.column_strictly_increasing(col)
    if len(col) < 2:
        return True
    return bool(np.all(col[:-1] < col[1:]))


# ----------------------------------------------------------------------
# sortedness metrics
# ----------------------------------------------------------------------
def longest_nondecreasing_subsequence_length(keys: Sequence[int]) -> int:
    # Patience sorting is a sequential dependence chain (each element lands
    # on a pile determined by all previous piles) — per-element np calls are
    # slower than bisect, so K deliberately stays on the Python kernel.
    return _py.longest_nondecreasing_subsequence_length(keys)


def count_out_of_order(keys: Sequence[int]) -> int:
    return _py.count_out_of_order(keys)


def max_displacement(keys: Sequence[int]) -> int:
    if len(keys) < 2:
        return 0
    try:
        arr = _int_array(keys)
    except _FALLBACK_ERRORS:
        return _py.max_displacement(keys)
    order = np.argsort(arr, kind="stable")
    return int(np.abs(order - np.arange(len(keys))).max())


def count_inversions(keys: Sequence[int]) -> int:
    n = len(keys)
    if n < 2:
        return 0
    try:
        arr = _int_array(keys)
    except _FALLBACK_ERRORS:
        return _py.count_inversions(keys)
    # Stable ranks turn the input into a permutation with the same inversion
    # count (equal keys get increasing ranks, so ties add no pairs), then a
    # bottom-up merge-count runs every row of each level in one vector op:
    # per-row offsets of P separate the rows' value ranges so one global
    # searchsorted counts "left-half elements below y" for every y at once.
    order = np.argsort(arr, kind="stable")
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


def count_runs(keys: Sequence[int]) -> int:
    n = len(keys)
    if n == 0:
        return 0
    if n == 1:
        return 1
    try:
        arr = _int_array(keys)
    except _FALLBACK_ERRORS:
        return _py.count_runs(keys)
    return 1 + int(np.count_nonzero(arr[1:] < arr[:-1]))


# ----------------------------------------------------------------------
# piecewise-linear approximation (PGM/FITing-tree style learned index)
# ----------------------------------------------------------------------
def pla_fit_segments(keys, epsilon: int):
    # The shrinking-cone fit is inherently sequential (each point updates
    # the feasible interval of the *current* segment); delegating to the
    # scalar twin keeps the float arithmetic — and therefore the segment
    # boundaries — bit-identical across backends. Fits happen once per
    # rebuild, never on the per-query hot path.
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    return _py.pla_fit_segments(keys, epsilon)


def pla_predict_many(first_keys, slopes, starts, keys):
    try:
        qs = _int_array(keys).astype(np.int64, copy=False)
        fk = _int_array(first_keys).astype(np.int64, copy=False)
    except _FALLBACK_ERRORS:
        return _py.pla_predict_many(first_keys, slopes, starts, keys)
    if fk.size == 0:
        return []
    seg = np.searchsorted(fk, qs, side="right") - 1
    np.clip(seg, 0, None, out=seg)
    sl = np.asarray(slopes, dtype=np.float64)[seg]
    st = np.asarray(starts, dtype=np.int64)[seg]
    # float64 multiply + truncation toward zero matches the scalar
    # ``int(slope * float(delta))`` exactly.
    pred = st + (sl * (qs - fk[seg]).astype(np.float64)).astype(np.int64)
    return pred.tolist()


# ----------------------------------------------------------------------
# delta-compressed key columns (compressed leaf pages / rebuild runs)
# ----------------------------------------------------------------------
def delta_pack(keys) -> Tuple[int, int, bytes]:
    n = len(keys)
    if n < 2:
        return _py.delta_pack(keys)
    try:
        arr = _int_array(keys).astype(np.int64, copy=False)
    except _FALLBACK_ERRORS:
        return _py.delta_pack(keys)
    # Two's-complement reinterpret, then wraparound uint64 differences —
    # exactly the scalar ``(key - prev) & MASK64`` reduction.
    unsigned = arr.view(np.uint64)
    deltas = unsigned[1:] - unsigned[:-1]
    anchor = int(arr[0])
    max_delta = int(deltas.max())
    width = max_delta.bit_length()
    if width == 0:
        return anchor, 0, b""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((deltas[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    packed = np.packbits(bits.ravel(), bitorder="little").tobytes()
    return anchor, width, packed


def delta_unpack(anchor: int, width: int, count: int, packed: bytes) -> List[int]:
    if count <= 0 or width == 0:
        return _py.delta_unpack(anchor, width, count, packed)
    if width > 64:
        return _py.delta_unpack(anchor, width, count, packed)
    n_deltas = count - 1
    raw = np.frombuffer(packed, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little", count=n_deltas * width)
    bits = bits.reshape(n_deltas, width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    deltas = np.bitwise_or.reduce(bits << shifts, axis=1)
    keys = np.empty(count, dtype=np.uint64)
    keys[0] = np.uint64(anchor & _MASK64)
    # uint64 cumsum wraps mod 2**64, matching the scalar reduction.
    np.cumsum(deltas, dtype=np.uint64, out=keys[1:])
    keys[1:] += keys[0]
    return keys.view(np.int64).tolist()
