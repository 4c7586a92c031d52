"""Hash functions used by the Bloom filters.

The paper uses MurmurHash [Appleby 2011] combined with *hash sharing* and
*bit rotation* [Zhu et al., DAMON 2021] so that one expensive hash invocation
feeds every probe of a multi-hash Bloom filter. We implement:

* ``splitmix64`` — a cheap high-quality 64-bit mixer in place of MurmurHash,
  because a per-key pure-Python murmur is roughly an order of magnitude
  slower without changing false-positive behaviour (substitution #4 in
  DESIGN.md);
* ``shared_base`` — hash sharing: one 64-bit base hash per key, which a
  Bloom filter splits into two 32-bit halves ``(h1, h2)``, deriving its
  *i*-th probe as ``h1 + i * h2`` (Kirsch–Mitzenmacher double hashing);
* ``rotate64`` — bit rotation used to derive a distinct per-page hash stream
  from the same shared base hash, so per-page filters do not need a second
  hash computation.
"""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF


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


def shared_base(key: int, seed: int = 0) -> int:
    """The 64-bit base hash every probe of ``key`` is derived from."""
    return splitmix64(key, seed)


def shared_bases(keys, seed: int = 0):
    """One 64-bit base hash per key — the batch form of hash sharing.

    The returned integers are exactly the bases :func:`shared_base` computes
    key by key, so batch and per-key Bloom paths set identical bits.
    splitmix64 is inlined (no per-key object construction), which is where
    batch ingestion recovers most of its hashing cost.
    """
    offset = (seed * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64
    bases = []
    append = bases.append
    for key in keys:
        z = (key + offset) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        append(z ^ (z >> 31))
    return bases
