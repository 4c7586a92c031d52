"""Sorted runs — the on-disk unit of the LSM-tree substrate.

A run is an immutable sorted array of entries with a min/max Zonemap and a
Bloom filter, exactly the per-run metadata real LSM engines (RocksDB et
al.) attach to SSTables. Runs never overlap *within* a level.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.core.zonemap import Zonemap
from repro.filters.bloom import BloomFilter

#: Entry = (key, seq, value, is_tombstone) — same shape as the SWARE buffer.
Entry = Tuple[int, int, object, bool]

#: Bloom-filter budget of every run.
BITS_PER_ENTRY = 10.0


class SortedRun:
    """An immutable sorted run with Zonemap + Bloom filter."""

    __slots__ = ("entries", "keys", "zonemap", "bloom", "run_id")

    _next_id = 0

    def __init__(self, entries: List[Entry]):
        if any(
            entries[i - 1][0] > entries[i][0] for i in range(1, len(entries))
        ):  # pragma: no cover - construction precondition
            raise ValueError("run entries must be sorted by key")
        self.entries = entries
        self.keys = [entry[0] for entry in entries]
        self.zonemap = Zonemap()
        self.bloom: Optional[BloomFilter] = None
        if entries:
            self.zonemap.update(entries[0][0])
            self.zonemap.update(entries[-1][0])
            self.bloom = BloomFilter(max(1, len(entries)), BITS_PER_ENTRY)
            for key in self.keys:
                self.bloom.add(key)
        SortedRun._next_id += 1
        self.run_id = SortedRun._next_id

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def min_key(self) -> Optional[int]:
        return self.zonemap.min_key

    @property
    def max_key(self) -> Optional[int]:
        return self.zonemap.max_key

    def overlaps(self, other: "SortedRun") -> bool:
        if not self.entries or not other.entries:
            return False
        return self.zonemap.overlaps(other.min_key, other.max_key)

    def get(self, key: int) -> Optional[Entry]:
        """Newest entry for ``key`` in this run, or None."""
        if not self.entries or not self.zonemap.may_contain(key):
            return None
        if self.bloom is not None and not self.bloom.may_contain(key):
            return None
        idx = bisect_right(self.keys, key) - 1
        if idx >= 0 and self.keys[idx] == key:
            return self.entries[idx]
        return None

    def slice(self, lo: int, hi: int) -> List[Entry]:
        """Entries with lo <= key <= hi."""
        left = bisect_left(self.keys, lo)
        right = bisect_right(self.keys, hi)
        return self.entries[left:right]
