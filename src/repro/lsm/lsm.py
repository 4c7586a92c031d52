"""An LSM-tree substrate, with an optional sortedness-aware compaction.

§VI of the paper observes that "most LSM-designs are completely agnostic to
data sortedness and perform the same amount of merging and (re-)writing of
the data on disk even when the data arrive fully sorted", and that the LSM
design "can be optimized to better handle near-sorted data ingestion". This
module implements both sides of that observation as an extension of the
reproduction:

* a classical leveled LSM-tree — memtable, sorted runs with Bloom filters
  and Zonemaps, one run per level, size ratio T;
* ``sortedness_aware=True`` adds *skip-merge* compaction: when the incoming
  run does not overlap the resident data (which is exactly what happens
  when ingestion is sorted or near-sorted), the run is installed by a
  trivial move — a metadata operation — instead of a full rewrite, so write
  amplification collapses toward 1 as sortedness rises.

The class satisfies the :class:`~repro.core.sware.TreeBackend` protocol, so
``SortednessAwareIndex`` can wrap an LSM-tree exactly as it wraps the
B+-tree and the Bε-tree (bulk loads become directly installed runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as heap_merge
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import BulkLoadError, ConfigError
from repro.lsm.run import Entry, SortedRun
from repro.obs import DEFAULT_SIZE_BUCKETS, NULL_OBS, current_obs
from repro.storage.costmodel import NULL_METER, Meter
from repro.storage.pages import check_keys


@dataclass(frozen=True)
class LSMConfig:
    """Tuning knobs for :class:`LSMTree`."""

    memtable_capacity: int = 256
    size_ratio: int = 4
    sortedness_aware: bool = False

    def __post_init__(self) -> None:
        if self.memtable_capacity < 2:
            raise ConfigError("memtable_capacity must be >= 2")
        if self.size_ratio < 2:
            raise ConfigError("size_ratio must be >= 2")

    def level_capacity(self, level: int) -> int:
        """Entry budget of ``level`` (level 0 holds one memtable flush)."""
        return self.memtable_capacity * (self.size_ratio ** (level + 1))


class LSMTree:
    """See module docstring."""

    def __init__(
        self,
        config: Optional[LSMConfig] = None,
        meter: Optional[Meter] = None,
    ):
        self.config = config or LSMConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.obs = current_obs()
        self._memtable: Dict[int, Entry] = {}
        self._levels: List[List[SortedRun]] = []  # newest run first per level
        self._seq = 0
        self._max_key: Optional[int] = None
        self._min_key: Optional[int] = None
        # Statistics.
        self.flushes = 0
        self.merges = 0
        self.trivial_moves = 0
        self.entries_written = 0  # every entry (re-)written to a run
        self.inserts = 0
        if self.obs is not NULL_OBS:
            self.obs.register_collector("lsm", self._obs_snapshot)

    def _obs_snapshot(self) -> dict:
        return {
            "flushes": self.flushes,
            "merges": self.merges,
            "trivial_moves": self.trivial_moves,
            "entries_written": self.entries_written,
            "inserts": self.inserts,
            "n_runs": self.n_runs(),
            "write_amplification": self.write_amplification,
        }

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> None:
        check_keys(key, key)
        self._put(key, value, tombstone=False)
        self.inserts += 1
        if self._max_key is None or key > self._max_key:
            self._max_key = key
        if self._min_key is None or key < self._min_key:
            self._min_key = key

    def delete(self, key: int) -> None:
        check_keys(key, key)
        self.meter.charge("tombstone")
        self._put(key, None, tombstone=True)

    def _put(self, key: int, value: object, tombstone: bool) -> None:
        self._seq += 1
        self.meter.charge("buffer_append")
        self._memtable[key] = (key, self._seq, value, tombstone)
        if len(self._memtable) >= self.config.memtable_capacity:
            self._flush_memtable()

    def _flush_memtable(self) -> None:
        self.flushes += 1
        entries = sorted(self._memtable.values(), key=lambda e: (e[0], e[1]))
        n = len(entries)
        self.meter.charge("sort_comparison", n * max(1, n.bit_length()))
        if self.obs.enabled:
            self.obs.event("lsm.memtable_flush", entries=n)
        self.obs.observe_hist("lsm_flush_entries", n, buckets=DEFAULT_SIZE_BUCKETS)
        self._memtable.clear()
        run = SortedRun(entries)
        self._charge_write(len(run))  # the flush itself writes the run once
        self._install_run(run, level=0)

    def _install_run(self, run: SortedRun, level: int) -> None:
        """Install an (already written) run at ``level``, compacting down.

        Write accounting: a run is charged where it *materializes* — at the
        memtable flush, at a merge, or at a bulk load. Installing an
        existing run without merging (a trivial move) rewrites
        nothing and charges nothing; that asymmetry is the entire benefit
        of sortedness-aware skip-merge.
        """
        while len(self._levels) <= level:
            self._levels.append([])
        if not len(run):
            return
        resident = self._levels[level]

        if self.config.sortedness_aware and all(
            not run.overlaps(existing) for existing in resident
        ):
            # Skip-merge: the new run is disjoint from everything resident —
            # a metadata-only trivial move, no rewriting.
            self.trivial_moves += 1
            if self.obs.enabled:
                self.obs.event("lsm.trivial_move", level=level, entries=len(run))
            resident.insert(0, run)
        elif resident:
            merged = self._merge_runs([run] + resident)
            self.merges += 1
            self._levels[level] = [merged] if len(merged) else []
        else:
            self._levels[level] = [run]

        self._maybe_cascade(level)

    def _charge_write(self, n_entries: int) -> None:
        self.entries_written += n_entries
        self.meter.charge("run_write", n_entries)

    def _level_size(self, level: int) -> int:
        return sum(len(run) for run in self._levels[level])

    def _maybe_cascade(self, level: int) -> None:
        while level < len(self._levels) and self._level_size(level) > self.config.level_capacity(level):
            runs = self._levels[level]
            self._levels[level] = []
            # Move runs down one by one, oldest first, so each gets its own
            # skip-merge chance at the next level (and recency order within
            # that level is preserved). Without skip-merge a level holds one
            # run.
            for run in reversed(runs):
                self._install_run(run, level + 1)
            level += 1

    def _merge_runs(self, runs: List[SortedRun]) -> SortedRun:
        """Sort-merge runs, newest first; newest version per key wins and
        tombstones compact away older versions (kept unless merging into
        the bottom is provable, so we conservatively keep tombstones)."""
        streams = [run.entries for run in runs if len(run)]
        if not streams:
            return SortedRun([])
        total = sum(len(stream) for stream in streams)
        self.meter.charge("merge_step", total)
        if self.obs.enabled:
            self.obs.event("lsm.merge", runs=len(streams), entries=total)
        merged_sorted = heap_merge(*streams, key=lambda e: (e[0], e[1]))
        deduped: List[Entry] = []
        for entry in merged_sorted:
            if deduped and deduped[-1][0] == entry[0]:
                deduped[-1] = entry  # later seq = newer
            else:
                deduped.append(entry)
        self._charge_write(len(deduped))  # the merge output is written once
        return SortedRun(deduped)

    # ------------------------------------------------------------------
    # bulk loading (used when SWARE wraps the LSM-tree)
    # ------------------------------------------------------------------
    def bulk_load_append(self, items: List[Tuple[int, object]]) -> None:
        """Install a sorted batch of keys > max_key as a run directly."""
        if not items:
            return
        previous = None
        for key, _ in items:
            if previous is not None and key <= previous:
                raise BulkLoadError("bulk batch must be strictly increasing")
            previous = key
        check_keys(items[0][0], items[-1][0])
        if self._max_key is not None and items[0][0] <= self._max_key:
            raise BulkLoadError(
                f"bulk batch starts at {items[0][0]} but tree max is {self._max_key}"
            )
        if self._memtable and any(key in self._memtable for key, _ in items):
            # The memtable can hold tombstones for keys beyond max_key
            # (deletes never raise the watermark). A bulk run bypasses the
            # memtable, so installing it would leave an older memtable entry
            # shadowing the newer run version on the point-lookup path, which
            # trusts the memtable as strictly newest. Flush first to keep
            # that invariant.
            self._flush_memtable()
        entries: List[Entry] = []
        for key, value in items:
            self._seq += 1
            entries.append((key, self._seq, value, False))
        self.meter.charge("bulk_entry", len(entries))
        run = SortedRun(entries)
        self._charge_write(len(run))
        self._install_run(run, level=0)
        self._max_key = items[-1][0]
        if self._min_key is None:
            self._min_key = items[0][0]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _iter_runs(self) -> Iterator[SortedRun]:
        """All runs, newest first (level order; within a level newest first)."""
        for level in self._levels:
            yield from level

    def get(self, key: int) -> Optional[object]:
        entry = self._memtable.get(key)
        if entry is not None:
            self.meter.charge("scan_entry")
            return None if entry[3] else entry[2]
        for run in self._iter_runs():
            self.meter.charge("zonemap_check")
            if not run.zonemap.may_contain(key):
                continue
            self.meter.charge("bf_probe")
            hit = run.get(key)
            if hit is not None:
                self.meter.charge("interp_step", max(1, len(run).bit_length()))
                return None if hit[3] else hit[2]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        if lo > hi:
            return []
        resolved: Dict[int, Entry] = {}
        # Oldest first so newer versions overwrite.
        for run in reversed(list(self._iter_runs())):
            chunk = run.slice(lo, hi)
            self.meter.charge("scan_entry", len(chunk))
            for entry in chunk:
                existing = resolved.get(entry[0])
                if existing is None or entry[1] > existing[1]:
                    resolved[entry[0]] = entry
        for key, entry in self._memtable.items():
            if lo <= key <= hi:
                existing = resolved.get(key)
                if existing is None or entry[1] > existing[1]:
                    resolved[key] = entry
        return [
            (key, entry[2])
            for key, entry in sorted(resolved.items())
            if not entry[3]
        ]

    def iter_items(self) -> Iterator[Tuple[int, object]]:
        """All live entries (test helper, uncharged)."""
        meter, self.meter = self.meter, NULL_METER
        try:
            lo = self._min_key if self._min_key is not None else 0
            hi = self._max_key if self._max_key is not None else -1
            return iter(self.range_query(lo, hi))
        finally:
            self.meter = meter

    def __len__(self) -> int:
        return len(list(self.iter_items()))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def max_key(self) -> Optional[int]:
        return self._max_key

    @property
    def min_key(self) -> Optional[int]:
        return self._min_key

    @property
    def write_amplification(self) -> float:
        """Entries (re-)written to runs per ingested entry."""
        return self.entries_written / self.inserts if self.inserts else 0.0

    def n_runs(self) -> int:
        return sum(len(level) for level in self._levels)

    def check_invariants(self) -> None:
        from repro.errors import InvariantViolation

        for depth, level in enumerate(self._levels):
            for run in level:
                for i in range(1, len(run.keys)):
                    if run.keys[i - 1] > run.keys[i]:
                        raise InvariantViolation(f"run at level {depth} unsorted")
            if not self.config.sortedness_aware and len(level) > 1:
                raise InvariantViolation(
                    f"leveling keeps one run per level, found {len(level)}"
                )
            # Within a level, runs must be pairwise disjoint (that is the
            # property skip-merge relies on).
            for i, a in enumerate(level):
                for b in level[i + 1 :]:
                    if a.overlaps(b):
                        raise InvariantViolation("overlapping runs in a level")
