"""Database cracking: an index that builds itself as a side effect of queries.

The classic adaptive-indexing design (Idreos et al., and the multi-core
follow-ups in PAPERS.md): data sits in one unsorted column, and every query
*cracks* the piece its bounds fall into — a two-way partition pass that
leaves the column a little more ordered and records the new boundary in the
cracker index (a sorted pivot -> position map). Query-heavy regions converge
toward sorted order; regions nobody queries never pay for sorting.

Updates use the same delta-overlay dynamization as
:class:`~repro.learned.index.LearnedIndex`: point inserts and tombstones
live in a sorted overlay that wins on reads and folds back into the column
on a size threshold. A fold rewrites the column and **resets the cracker
index** — adaptivity restarts, which is the textbook trade-off of cracking
under updates. Append-only bulk loads (the SWARE flush path) extend the
column in place and keep all pivots at or below the append point.

Meter charges model the algorithm: a partition pass charges one
``sort_comparison`` per element examined and ``entry_move`` per swapped
pair, range output sorting charges comparison-sort cost on the slice, folds
charge ``merge_step``/``bulk_entry``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.errors import BulkLoadError, ConfigError
from repro.obs import NULL_OBS, Observability, current_obs
from repro.storage.costmodel import NULL_METER, Meter

#: Delta-overlay marker for "deleted in the column".
_TOMBSTONE = object()
_MISSING = object()


@dataclass(frozen=True)
class CrackingIndexConfig:
    """Tuning knobs for :class:`CrackingIndex`.

    ``delta_capacity``/``merge_divisor`` shape the overlay-fold threshold
    exactly as in :class:`~repro.learned.index.LearnedIndexConfig`.
    """

    delta_capacity: int = 256
    merge_divisor: int = 16

    def __post_init__(self) -> None:
        if self.delta_capacity < 1:
            raise ConfigError("delta_capacity must be >= 1")
        if self.merge_divisor < 1:
            raise ConfigError("merge_divisor must be >= 1")


class CrackingIndex:
    """See module docstring."""

    def __init__(
        self,
        config: Optional[CrackingIndexConfig] = None,
        meter: Optional[Meter] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or CrackingIndexConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.obs = obs if obs is not None else current_obs()
        # The cracked column: unsorted unique keys + parallel values, plus
        # the membership set that stands in for a scan when deciding
        # presence (charged as a zonemap-class check).
        self._keys: List[int] = []
        self._vals: List[object] = []
        self._present: set = set()
        # Cracker index: sorted pivot values and their partition positions.
        # Invariant: keys[i] < pivot for i < position, keys[i] >= pivot
        # for i >= position.
        self._pivots: List[int] = []
        self._positions: List[int] = []
        # Sorted delta overlay (dict for O(1) hit checks, sorted key list
        # for range merges).
        self._delta: Dict[int, object] = {}
        self._dkeys: List[int] = []
        self._min_key: Optional[int] = None
        self._max_key: Optional[int] = None
        self.n_entries = 0
        self.cracks = 0
        self.folds = 0
        if self.obs is not NULL_OBS:
            self.obs.register_collector("cracking", self._obs_snapshot)

    def _obs_snapshot(self) -> dict:
        return {
            "n_entries": self.n_entries,
            "column_entries": len(self._keys),
            "delta_entries": len(self._dkeys),
            "pieces": len(self._pivots) + 1,
            "cracks": self.cracks,
            "folds": self.folds,
        }

    # ------------------------------------------------------------------
    # cracking core
    # ------------------------------------------------------------------
    def _crack(self, pivot: int) -> int:
        """Partition position of ``pivot``, cracking its piece if needed.

        After the call every column index >= the returned position holds a
        key >= ``pivot`` and every smaller index a key < ``pivot``; the
        boundary is memoized in the cracker index.
        """
        pivots, positions = self._pivots, self._positions
        at = bisect_left(pivots, pivot)
        if at < len(pivots) and pivots[at] == pivot:
            return positions[at]
        keys, vals = self._keys, self._vals
        plo = positions[at - 1] if at > 0 else 0
        phi = positions[at] if at < len(positions) else len(keys)
        a, b = plo, phi - 1
        swaps = 0
        while a <= b:
            if keys[a] < pivot:
                a += 1
            elif keys[b] >= pivot:
                b -= 1
            else:
                keys[a], keys[b] = keys[b], keys[a]
                vals[a], vals[b] = vals[b], vals[a]
                swaps += 1
                a += 1
                b -= 1
        self.meter.charge("sort_comparison", max(phi - plo, 0))
        if swaps:
            self.meter.charge("entry_move", 2 * swaps)
        pivots.insert(at, pivot)
        positions.insert(at, a)
        self.cracks += 1
        if self.obs.enabled:
            self.obs.event("cracking.crack", pivot=pivot, piece=phi - plo)
        return a

    def _fold_threshold(self) -> int:
        return max(
            self.config.delta_capacity, len(self._keys) // self.config.merge_divisor
        )

    def _fold(self) -> None:
        """Reconcile the delta overlay into the column; cracks reset."""
        keys, vals = self._keys, self._vals
        delta = self._delta
        new_keys: List[int] = []
        new_vals: List[object] = []
        for key, value in zip(keys, vals):
            d = delta.get(key, _MISSING)
            if d is _MISSING:
                new_keys.append(key)
                new_vals.append(value)
            elif d is not _TOMBSTONE:
                new_keys.append(key)
                new_vals.append(d)
        appended = 0
        present = self._present
        for key in self._dkeys:
            if key not in present:
                d = delta[key]
                if d is not _TOMBSTONE:
                    new_keys.append(key)
                    new_vals.append(d)
                    appended += 1
        self.meter.charge("merge_step", len(keys) + len(self._dkeys))
        self.meter.charge("bulk_entry", appended)
        self._keys, self._vals = new_keys, new_vals
        self._present = set(new_keys)
        self._pivots, self._positions = [], []
        self._delta, self._dkeys = {}, []
        self.folds += 1
        if self.obs.enabled:
            self.obs.event("cracking.fold", entries=len(new_keys))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> bool:
        """Insert or update; returns True if a new entry was created."""
        self.meter.charge("node_access")
        delta = self._delta
        prior = delta.get(key, _MISSING)
        if prior is not _MISSING:
            delta[key] = value
            created = prior is _TOMBSTONE
            if created:
                self.n_entries += 1
            self._bump_watermarks(key)
            return created
        delta[key] = value
        at = bisect_left(self._dkeys, key)
        self._dkeys.insert(at, key)
        self.meter.charge("entry_move", len(self._dkeys) - at)
        self.meter.charge("zonemap_check")
        created = key not in self._present
        if created:
            self.n_entries += 1
        self._bump_watermarks(key)
        if len(self._dkeys) > self._fold_threshold():
            self._fold()
        return created

    def delete(self, key: int) -> bool:
        """Remove ``key`` if present (tombstone over the cracked column)."""
        self.meter.charge("node_access")
        delta = self._delta
        prior = delta.get(key, _MISSING)
        if prior is not _MISSING:
            if prior is _TOMBSTONE:
                return False
            self.meter.charge("zonemap_check")
            if key in self._present:
                delta[key] = _TOMBSTONE
            else:
                del delta[key]
                at = bisect_left(self._dkeys, key)
                self._dkeys.pop(at)
                self.meter.charge("entry_move", len(self._dkeys) - at + 1)
            self.n_entries -= 1
            return True
        self.meter.charge("zonemap_check")
        if key not in self._present:
            return False
        delta[key] = _TOMBSTONE
        at = bisect_left(self._dkeys, key)
        self._dkeys.insert(at, key)
        self.meter.charge("entry_move", len(self._dkeys) - at)
        self.n_entries -= 1
        if len(self._dkeys) > self._fold_threshold():
            self._fold()
        return True

    def bulk_load_append(self, items: Sequence[Tuple[int, object]]) -> None:
        """Append a sorted batch of strictly increasing keys > max_key.

        Appending above every existing key (and every delta key — the
        watermark covers both) keeps all partition boundaries valid except
        pivots *above* the append point, which sit at the column's end and
        are dropped before the extend.
        """
        if not items:
            return
        if not kernels.keys_strictly_increasing(items):
            raise BulkLoadError("bulk batch must be strictly increasing")
        first = items[0][0]
        if self._max_key is not None and first <= self._max_key:
            raise BulkLoadError(
                f"bulk batch starts at {first} but index max is {self._max_key}"
            )
        while self._pivots and self._pivots[-1] > first:
            self._pivots.pop()
            self._positions.pop()
        for key, value in items:
            self._keys.append(key)
            self._vals.append(value)
            self._present.add(key)
        self.meter.charge("bulk_entry", len(items))
        self.n_entries += len(items)
        self._bump_watermarks(first)
        self._bump_watermarks(items[-1][0])

    def _bump_watermarks(self, key: int) -> None:
        if self._max_key is None or key > self._max_key:
            self._max_key = key
        if self._min_key is None or key < self._min_key:
            self._min_key = key

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[object]:
        """Point lookup; cracks around the key (lookups adapt the column
        exactly as ranges do in the cracking literature)."""
        self.meter.charge("node_access")
        prior = self._delta.get(key, _MISSING)
        if prior is not _MISSING:
            return None if prior is _TOMBSTONE else prior
        self.meter.charge("zonemap_check")
        if key not in self._present:
            return None
        p1 = self._crack(key)
        p2 = self._crack(key + 1)
        self.meter.charge("scan_entry", p2 - p1)
        keys = self._keys
        for i in range(p1, p2):
            if keys[i] == key:
                return self._vals[i]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All (key, value) with lo <= key <= hi, in key order.

        Cracks at both bounds, so the matching column region is exactly
        ``[crack(lo), crack(hi+1))``; the slice is sorted for output (the
        piece interior stays unsorted — cracking guarantees partitioning,
        not order) and merged with the delta overlay.
        """
        if lo > hi:
            return []
        main: List[Tuple[int, object]] = []
        if self._keys:
            p1 = self._crack(lo)
            p2 = self._crack(hi + 1)
            m = p2 - p1
            if m:
                keys, vals = self._keys, self._vals
                main = sorted(
                    (keys[i], vals[i]) for i in range(p1, p2)
                )
                self.meter.charge("scan_entry", m)
                self.meter.charge("sort_comparison", m * max(1, m.bit_length() - 1))
        dkeys = self._dkeys
        dlo = bisect_left(dkeys, lo)
        dhi = bisect_right(dkeys, hi)
        if dlo == dhi:
            return main
        delta = self._delta
        self.meter.charge("merge_step", dhi - dlo)
        out: List[Tuple[int, object]] = []
        i, j = 0, dlo
        n = len(main)
        while i < n and j < dhi:
            mkey = main[i][0]
            dkey = dkeys[j]
            if mkey < dkey:
                out.append(main[i])
                i += 1
            elif mkey > dkey:
                d = delta[dkey]
                if d is not _TOMBSTONE:
                    out.append((dkey, d))
                j += 1
            else:
                d = delta[dkey]
                if d is not _TOMBSTONE:
                    out.append((mkey, d))
                i += 1
                j += 1
        out.extend(main[i:])
        while j < dhi:
            d = delta[dkeys[j]]
            if d is not _TOMBSTONE:
                out.append((dkeys[j], d))
            j += 1
        return out

    def iter_items(self):
        """All entries in key order (test/debug helper)."""
        if self._min_key is None and not self._dkeys:
            return iter(())
        lo = self._min_key if self._min_key is not None else self._dkeys[0]
        hi = self._max_key if self._max_key is not None else self._dkeys[-1]
        return iter(self.range_query(lo, hi))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def max_key(self) -> Optional[int]:
        """High-watermark upper bound (never shrinks on deletes)."""
        return self._max_key

    @property
    def min_key(self) -> Optional[int]:
        """Low-watermark lower bound (never grows on deletes)."""
        return self._min_key

    def __len__(self) -> int:
        return self.n_entries

    def space_stats(self) -> dict:
        """Adaptive-indexing report: how cracked the column has become."""
        pieces = len(self._pivots) + 1
        n = len(self._keys)
        return {
            "entries": self.n_entries,
            "column_entries": n,
            "delta_entries": len(self._dkeys),
            "pieces": pieces,
            "avg_piece": (n / pieces) if pieces else 0.0,
            "cracks": self.cracks,
            "folds": self.folds,
        }

    def check_invariants(self) -> None:
        """Validate the cracker-index invariant over the whole column."""
        from repro.errors import InvariantViolation

        if len(self._keys) != len(self._vals):
            raise InvariantViolation("column key/value length mismatch")
        if len(set(self._keys)) != len(self._keys):
            raise InvariantViolation("column keys not unique")
        if self._present != set(self._keys):
            raise InvariantViolation("membership set out of sync with column")
        for i in range(1, len(self._pivots)):
            if self._pivots[i - 1] >= self._pivots[i]:
                raise InvariantViolation("pivots not strictly sorted")
            if self._positions[i - 1] > self._positions[i]:
                raise InvariantViolation("pivot positions not monotone")
        for pivot, position in zip(self._pivots, self._positions):
            for i, key in enumerate(self._keys):
                if i < position and key >= pivot:
                    raise InvariantViolation(
                        f"key {key} at {i} >= pivot {pivot} before position {position}"
                    )
                if i >= position and key < pivot:
                    raise InvariantViolation(
                        f"key {key} at {i} < pivot {pivot} at/after position {position}"
                    )
