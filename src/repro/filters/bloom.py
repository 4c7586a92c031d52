"""Bloom filters for the SWARE-buffer.

The SWARE-buffer maintains (i) one *global* Bloom filter over its unsorted
section and (ii) one small Bloom filter per buffer page (§IV-B of the paper).
Both are configured at 10 bits per entry of their covered capacity, which
gives roughly a 0.8% false-positive rate with the optimal number of probe
functions.

Filters here are sized once at construction (the paper pre-allocates them for
the buffer's capacity) and support ``clear()`` for reuse across flush cycles.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro import kernels
from repro.errors import ConfigError
from repro.filters.hashing import rotate64, shared_base, shared_bases


#: Keys from which :meth:`BloomFilter.add_many` pays for the batch kernels;
#: below it their fixed cost exceeds the scalar loop (table in EXPERIMENTS.md).
_KERNEL_MIN = 12


def optimal_num_probes(bits_per_entry: float) -> int:
    """The FPR-optimal probe count ``k = bits_per_entry * ln 2``, at least 1."""
    return max(1, round(bits_per_entry * math.log(2)))


def theoretical_fpr(capacity: int, bits_per_entry: float, n_added: int) -> float:
    """False-positive rate of a filter of this geometry holding ``n_added``
    keys, in theory; no filter need exist."""
    if n_added == 0:
        return 0.0
    k = optimal_num_probes(bits_per_entry)
    return (1.0 - math.exp(-k * n_added / max(8, int(capacity * bits_per_entry)))) ** k


class BloomFilter:
    """A classic Bloom filter over integer keys.

    Parameters
    ----------
    capacity:
        Number of distinct entries the filter is provisioned for.
    bits_per_entry:
        Space budget; the paper uses 10.
    rotation:
        Bit-rotation applied to the shared base hash, used to give per-page
        filters an independent probe stream without a second hash call.
    """

    __slots__ = (
        "capacity",
        "bits_per_entry",
        "n_bits",
        "n_probes",
        "rotation",
        "_bits",
        "n_added",
        "probe_count",
    )

    def __init__(
        self,
        capacity: int,
        bits_per_entry: float = 10.0,
        rotation: int = 0,
    ):
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        if bits_per_entry <= 0:
            raise ConfigError("bits_per_entry must be positive")
        self.capacity = capacity
        self.bits_per_entry = bits_per_entry
        self.n_bits = max(8, int(capacity * bits_per_entry))
        self.n_probes = optimal_num_probes(bits_per_entry)
        self.rotation = rotation
        # Padded to a whole number of 64-bit words so the kernels can view
        # the store as uint64 without copying; probe positions are all
        # < n_bits, so the padding bits are never set and the single-key
        # byte-path bit patterns are unchanged.
        self._bits = bytearray(((self.n_bits + 63) // 64) * 8)
        self.n_added = 0
        self.probe_count = 0

    def add(self, key: int) -> None:
        """Insert ``key``; afterwards ``may_contain(key)`` is always True."""
        self.add_bases((shared_base(key),))

    def add_bases(self, bases: Sequence[int]) -> None:
        """Insert by precomputed base hashes on the scalar path: :meth:`add`,
        and :meth:`add_many` for batches too small to pay for a kernel."""
        bits = self._bits
        n_bits = self.n_bits
        probes = range(self.n_probes)
        for base in bases:
            if self.rotation:
                base = rotate64(base, self.rotation)
            h1 = base & 0xFFFFFFFF
            h2 = (base >> 32) | 1
            for i in probes:
                pos = (h1 + i * h2) % n_bits
                bits[pos >> 3] |= 1 << (pos & 7)
        self.n_added += len(bases)

    def may_contain_base(self, base: int) -> bool:
        """Membership probe by precomputed base hash (hash sharing)."""
        self.probe_count += 1
        if self.rotation:
            base = rotate64(base, self.rotation)
        bits = self._bits
        n_bits = self.n_bits
        h1 = base & 0xFFFFFFFF
        h2 = (base >> 32) | 1
        for i in range(self.n_probes):
            pos = (h1 + i * h2) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def may_contain(self, key: int) -> bool:
        """False ⇒ definitely absent; True ⇒ probably present."""
        return self.may_contain_base(shared_base(key))

    def add_many(self, keys: Sequence[int]) -> None:
        """Batch insert with one hash pass. Probe positions are the same
        Kirsch–Mitzenmacher sequence as :meth:`add`, so the bit pattern is
        identical to adding the keys one by one — by the kernels, or by the
        scalar loop when the batch is too small to pay for them.
        """
        if len(keys) < _KERNEL_MIN:
            self.add_bases(shared_bases(keys))
            return
        bases = kernels.shared_bases(keys)
        kernels.bloom_add_many(self._bits, bases, self.n_probes, self.n_bits, self.rotation)
        self.n_added += len(keys)

    def clear(self) -> None:
        """Reset to the empty filter (used after every buffer flush)."""
        self._bits = bytearray(len(self._bits))
        self.n_added = 0

    @property
    def saturation(self) -> float:
        """Fraction of bits set — a cheap health metric for tests and obs.

        Counted by the vectorized popcount kernel; obs reads it once per
        flush cycle.
        """
        return kernels.popcount_bytes(self._bits) / self.n_bits

    def __contains__(self, key: int) -> bool:
        return self.may_contain(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(capacity={self.capacity}, bits={self.n_bits}, "
            f"probes={self.n_probes}, added={self.n_added})"
        )
