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
from typing import List, Optional, Sequence

from repro import kernels
from repro.filters.hashing import SharedHash


def optimal_num_probes(bits_per_entry: float) -> int:
    """The FPR-optimal probe count ``k = bits_per_entry * ln 2``, at least 1."""
    return max(1, round(bits_per_entry * math.log(2)))


class BloomFilter:
    """A classic Bloom filter over integer keys.

    Parameters
    ----------
    capacity:
        Number of distinct entries the filter is provisioned for.
    bits_per_entry:
        Space budget; the paper uses 10.
    hash_family:
        ``"splitmix64"`` (default, fast) or ``"murmur3"`` (paper's choice).
    rotation:
        Bit-rotation applied to the shared base hash, used to give per-page
        filters an independent probe stream without a second hash call.
    """

    __slots__ = (
        "capacity",
        "bits_per_entry",
        "n_bits",
        "n_probes",
        "hash_family",
        "rotation",
        "_bits",
        "n_added",
        "probe_count",
    )

    def __init__(
        self,
        capacity: int,
        bits_per_entry: float = 10.0,
        hash_family: str = "splitmix64",
        rotation: int = 0,
        n_probes: Optional[int] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if bits_per_entry <= 0:
            raise ValueError("bits_per_entry must be positive")
        self.capacity = capacity
        self.bits_per_entry = bits_per_entry
        self.n_bits = max(8, int(capacity * bits_per_entry))
        self.n_probes = n_probes if n_probes is not None else optimal_num_probes(bits_per_entry)
        self.hash_family = hash_family
        self.rotation = rotation
        # Padded to a whole number of 64-bit words so the numpy backend can
        # view the store as uint64 without copying; probe positions are all
        # < n_bits, so the padding bits are never set and the single-key
        # byte-path bit patterns are unchanged.
        self._bits = bytearray(((self.n_bits + 63) // 64) * 8)
        self.n_added = 0
        self.probe_count = 0

    def _positions(self, key: int):
        shared = SharedHash(key, self.hash_family)
        if self.rotation:
            shared = shared.rotated(self.rotation)
        return shared.probes(self.n_probes, self.n_bits)

    def add(self, key: int) -> None:
        """Insert ``key``; afterwards ``may_contain(key)`` is always True."""
        bits = self._bits
        for pos in self._positions(key):
            bits[pos >> 3] |= 1 << (pos & 7)
        self.n_added += 1

    def add_shared(self, shared: SharedHash) -> None:
        """Insert using a pre-computed shared hash (hash sharing)."""
        probe_source = shared.rotated(self.rotation) if self.rotation else shared
        bits = self._bits
        for pos in probe_source.probes(self.n_probes, self.n_bits):
            bits[pos >> 3] |= 1 << (pos & 7)
        self.n_added += 1

    def may_contain(self, key: int) -> bool:
        """False ⇒ definitely absent; True ⇒ probably present."""
        self.probe_count += 1
        bits = self._bits
        for pos in self._positions(key):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def add_many(self, keys: Sequence[int], bases: Optional[Sequence[int]] = None) -> None:
        """Batch insert with one hash pass and word-level bit setting.

        ``bases`` lets callers share one batch of base hashes across several
        filters (the batch form of ``add_shared``). Probe positions are the
        same Kirsch–Mitzenmacher sequence as :meth:`add`, so the resulting
        bit pattern is identical to adding the keys one by one. The bit
        setting itself is a kernel: word-accumulated on the python backend,
        ``np.bitwise_or.at`` over the uint64 view on the numpy backend.
        """
        if not keys:
            return
        if bases is None:
            bases = kernels.shared_bases(keys, self.hash_family)
        kernels.bloom_add_many(self._bits, bases, self.n_probes, self.n_bits, self.rotation)
        self.n_added += len(keys)

    def may_contain_many(
        self, keys: Sequence[int], bases: Optional[Sequence[int]] = None
    ) -> List[bool]:
        """Batch membership probes (one hash pass over the whole batch).

        ``probe_count`` accounting stays here, outside the kernels, so the
        counters agree with a :meth:`may_contain` loop over the same keys on
        either backend.
        """
        if not keys:
            return []
        if bases is None:
            bases = kernels.shared_bases(keys, self.hash_family)
        out = kernels.bloom_contains_many(
            self._bits, bases, self.n_probes, self.n_bits, self.rotation
        )
        self.probe_count += len(keys)
        return out

    def may_contain_shared(self, shared: SharedHash) -> bool:
        """Membership probe using a pre-computed shared hash."""
        self.probe_count += 1
        probe_source = shared.rotated(self.rotation) if self.rotation else shared
        bits = self._bits
        for pos in probe_source.probes(self.n_probes, self.n_bits):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def clear(self) -> None:
        """Reset to the empty filter (used after every buffer flush)."""
        self._bits = bytearray(len(self._bits))
        self.n_added = 0

    @property
    def saturation(self) -> float:
        """Fraction of bits set — a cheap health metric for tests and obs.

        Counted in bounded chunks (or vectorized) by the popcount kernel;
        the old implementation converted the whole bit array into a single
        bignum on every call, which obs hits once per flush cycle.
        """
        return kernels.popcount_bytes(self._bits) / self.n_bits

    def expected_fpr(self, n_added: Optional[int] = None) -> float:
        """Theoretical false-positive rate at the current load, or at ``n_added``."""
        n_added = self.n_added if n_added is None else n_added
        if n_added == 0:
            return 0.0
        exponent = -self.n_probes * n_added / self.n_bits
        return (1.0 - math.exp(exponent)) ** self.n_probes

    def __contains__(self, key: int) -> bool:
        return self.may_contain(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(capacity={self.capacity}, bits={self.n_bits}, "
            f"probes={self.n_probes}, added={self.n_added})"
        )
