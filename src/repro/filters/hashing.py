"""Hash functions used by the Bloom filters.

The paper uses MurmurHash [Appleby 2011] combined with *hash sharing* and
*bit rotation* [Zhu et al., DAMON 2021] so that one expensive hash invocation
feeds every probe of a multi-hash Bloom filter. We implement:

* ``murmur3_32`` — a faithful MurmurHash3 x86 32-bit port (tested against the
  reference vectors), the paper's choice;
* ``splitmix64`` — a cheap high-quality 64-bit mixer used as the *default*
  family, because a per-key pure-Python murmur is roughly an order of
  magnitude slower without changing false-positive behaviour (documented as
  substitution #4 in DESIGN.md);
* ``shared_base`` — hash sharing: one 64-bit base hash per key, which a
  Bloom filter splits into two 32-bit halves ``(h1, h2)``, deriving its
  *i*-th probe as ``h1 + i * h2`` (Kirsch–Mitzenmacher double hashing);
* ``rotate64`` — bit rotation used to derive a distinct per-page hash stream
  from the same shared base hash, so per-page filters do not need a second
  hash computation.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit of ``data`` with the given ``seed``.

    Returns an unsigned 32-bit integer. Matches the reference implementation
    (e.g. ``murmur3_32(b"hello", 0) == 0x248BFA47``).
    """
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    h = seed & _MASK32
    length = len(data)
    n_blocks = length // 4

    for i in range(n_blocks):
        k = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k = (k * c1) & _MASK32
        k = ((k << 15) | (k >> 17)) & _MASK32
        k = (k * c2) & _MASK32
        h ^= k
        h = ((h << 13) | (h >> 19)) & _MASK32
        h = (h * 5 + 0xE6546B64) & _MASK32

    # Tail bytes.
    tail = data[4 * n_blocks :]
    k = 0
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & _MASK32
        k = ((k << 15) | (k >> 17)) & _MASK32
        k = (k * c2) & _MASK32
        h ^= k

    # Finalization mix.
    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def murmur3_64(key: int, seed: int = 0) -> int:
    """A 64-bit hash of an integer key built from two murmur3_32 calls.

    The two halves use distinct seeds so they behave as independent hash
    functions for double hashing.
    """
    data = (key & _MASK64).to_bytes(8, "little", signed=False)
    lo = murmur3_32(data, seed)
    hi = murmur3_32(data, seed ^ 0x9E3779B9)
    return (hi << 32) | lo


def splitmix64(key: int, seed: int = 0) -> int:
    """SplitMix64 finalizer — a fast, well-mixed 64-bit integer hash."""
    z = (key + seed * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def rotate64(value: int, bits: int) -> int:
    """Rotate a 64-bit value left by ``bits`` (mod 64)."""
    bits &= 63
    if bits == 0:
        return value & _MASK64
    return ((value << bits) | (value >> (64 - bits))) & _MASK64


def shared_base(key: int, family: str = "splitmix64", seed: int = 0) -> int:
    """The 64-bit base hash every probe of ``key`` is derived from."""
    if family == "splitmix64":
        return splitmix64(key, seed)
    if family == "murmur3":
        return murmur3_64(key, seed)
    raise ValueError(f"unknown hash family: {family!r}")


def shared_bases(keys, family: str = "splitmix64", seed: int = 0):
    """One 64-bit base hash per key — the batch form of hash sharing.

    The returned integers are exactly the bases :func:`shared_base` computes
    key by key, so batch and per-key Bloom paths set identical bits.
    The splitmix64 family is inlined (no per-key object construction), which
    is where batch ingestion recovers most of its hashing cost.
    """
    if family == "splitmix64":
        offset = (seed * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64
        bases = []
        append = bases.append
        for key in keys:
            z = (key + offset) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            append(z ^ (z >> 31))
        return bases
    if family == "murmur3":
        return [murmur3_64(key, seed) for key in keys]
    raise ValueError(f"unknown hash family: {family!r}")
