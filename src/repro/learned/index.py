"""A PGM/FITing-tree style piecewise-linear learned index.

The structure follows the one-level dynamic PGM recipe the SOSD benchmark
popularised:

* **data layer** — one sorted key column with parallel values;
* **model layer** — an epsilon-bounded piecewise-linear approximation of the
  key -> position function, fitted with the greedy shrinking-cone algorithm
  (:func:`repro.kernels.pla_fit_segments`). A lookup picks its segment with
  one binary search over segment boundaries, predicts a position, and
  finishes with a bounded search inside the +/- epsilon window;
* **delta buffer** — inserts and tombstones land in a small sorted overlay
  (learned structures cannot absorb point inserts in place); when it
  outgrows its threshold the overlay merges into the data layer and the
  model is refitted.

Cost accounting mirrors the tree backends: the model probe charges one
``node_access`` (the segment table is one cache-resident node), every
binary-search halving charges ``interp_step``, merges charge ``merge_step``
and rebuild writes ``bulk_entry``, so ``repro experiment sosd`` compares SWARE
and the learned family under a single cost model. The index takes one
operation at a time, as the SOSD-style experiment drives it; SWARE loops a
batch's buffer misses over :meth:`LearnedIndex.get`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import kernels
from repro.errors import BulkLoadError, ConfigError
from repro.obs import NULL_OBS, Observability, current_obs
from repro.storage.costmodel import NULL_METER, Meter

#: Delta-buffer marker for "deleted in the data layer".
_TOMBSTONE = object()
_MISSING = object()


@dataclass(frozen=True)
class LearnedIndexConfig:
    """Tuning knobs for :class:`LearnedIndex`.

    ``epsilon`` is the PLA error bound: larger values mean fewer segments
    but a wider final search window (the classic PGM space/latency dial).
    ``delta_capacity`` is the floor of the overlay-merge threshold; the
    effective threshold grows with the data layer (``max(delta_capacity,
    n / merge_divisor)``) so rebuild cost stays amortized O(1) per insert.
    """

    epsilon: int = 32
    delta_capacity: int = 256
    merge_divisor: int = 16

    def __post_init__(self) -> None:
        if self.epsilon < 1:
            raise ConfigError("epsilon must be >= 1")
        if self.delta_capacity < 1:
            raise ConfigError("delta_capacity must be >= 1")
        if self.merge_divisor < 1:
            raise ConfigError("merge_divisor must be >= 1")


class LearnedIndex:
    """See module docstring."""

    def __init__(
        self,
        config: Optional[LearnedIndexConfig] = None,
        meter: Optional[Meter] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or LearnedIndexConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.obs = obs if obs is not None else current_obs()
        self._keys: List[int] = []
        self._vals: List[object] = []
        # Model columns (parallel): segment first key, slope, start index.
        self._seg_first: List[int] = []
        self._seg_slope: List[float] = []
        self._seg_start: List[int] = []
        # Sorted delta overlay (parallel key/value lists; _TOMBSTONE values
        # mark deletions of data-layer keys).
        self._dkeys: List[int] = []
        self._dvals: List[object] = []
        self._min_key: Optional[int] = None
        self._max_key: Optional[int] = None
        self.n_entries = 0
        self.rebuilds = 0
        self.model_misses = 0
        if self.obs is not NULL_OBS:
            self.obs.register_collector("learned", self._obs_snapshot)

    def _obs_snapshot(self) -> dict:
        return {
            "n_entries": self.n_entries,
            "data_entries": len(self._keys),
            "delta_entries": len(self._dkeys),
            "segments": len(self._seg_first),
            "epsilon": self.config.epsilon,
            "rebuilds": self.rebuilds,
            "model_misses": self.model_misses,
        }

    # ------------------------------------------------------------------
    # model
    # ------------------------------------------------------------------
    def _fit(self) -> None:
        """Refit the whole model; charges one pass over the data layer."""
        first, slopes, starts = kernels.pla_fit_segments(
            self._keys, self.config.epsilon
        )
        self._seg_first = list(first)
        self._seg_slope = list(slopes)
        self._seg_start = list(starts)
        self.meter.charge("sort_comparison", len(self._keys))

    def _fold_threshold(self) -> int:
        return max(
            self.config.delta_capacity, len(self._keys) // self.config.merge_divisor
        )

    def _predict(self, key: int) -> Tuple[int, int]:
        """The epsilon window ``[wlo, whi)`` the model puts ``key`` in."""
        seg = bisect_right(self._seg_first, key) - 1
        if seg < 0:
            seg = 0
        start = self._seg_start[seg]
        pos = start + int(self._seg_slope[seg] * float(key - self._seg_first[seg]))
        n = len(self._keys)
        if pos < 0:
            pos = 0
        elif pos >= n:
            pos = n - 1
        # +/- epsilon covers fitted keys; one extra slot each side covers
        # queries that fall between fitted keys.
        eps = self.config.epsilon + 1
        wlo = pos - eps
        if wlo < 0:
            wlo = 0
        whi = pos + eps + 1
        if whi > n:
            whi = n
        return wlo, whi

    def _search_main(self, key: int) -> Tuple[int, bool]:
        """Data-layer insertion point for ``key`` and whether it is present.

        One ``node_access`` for the model probe, ``interp_step`` per halving
        of the epsilon window. A window miss (possible only for keys the
        model never fitted) falls back to a charged full binary search.
        """
        keys = self._keys
        n = len(keys)
        if n == 0:
            return 0, False
        self.meter.charge("node_access")
        wlo, whi = self._predict(key)
        self.meter.charge("interp_step", (whi - wlo).bit_length())
        pos = bisect_left(keys, key, wlo, whi)
        if (pos == wlo and wlo > 0 and keys[wlo - 1] >= key) or (
            pos == whi and whi < n and keys[whi] < key
        ):
            self.model_misses += 1
            self.meter.charge("interp_step", n.bit_length())
            pos = bisect_left(keys, key)
        return pos, pos < n and keys[pos] == key

    # ------------------------------------------------------------------
    # delta overlay
    # ------------------------------------------------------------------
    def _delta_pos(self, key: int) -> Tuple[int, bool]:
        dkeys = self._dkeys
        if dkeys:
            self.meter.charge("interp_step", len(dkeys).bit_length())
        pos = bisect_left(dkeys, key)
        return pos, pos < len(dkeys) and dkeys[pos] == key

    def _rebuild(self) -> None:
        """Merge the delta overlay into the data layer and refit the model."""
        keys, vals = self._keys, self._vals
        dkeys, dvals = self._dkeys, self._dvals
        merged_keys: List[int] = []
        merged_vals: List[object] = []
        i = j = 0
        n, d = len(keys), len(dkeys)
        while i < n and j < d:
            if keys[i] < dkeys[j]:
                merged_keys.append(keys[i])
                merged_vals.append(vals[i])
                i += 1
            elif keys[i] > dkeys[j]:
                if dvals[j] is not _TOMBSTONE:
                    merged_keys.append(dkeys[j])
                    merged_vals.append(dvals[j])
                j += 1
            else:
                if dvals[j] is not _TOMBSTONE:
                    merged_keys.append(keys[i])
                    merged_vals.append(dvals[j])
                i += 1
                j += 1
        while i < n:
            merged_keys.append(keys[i])
            merged_vals.append(vals[i])
            i += 1
        while j < d:
            if dvals[j] is not _TOMBSTONE:
                merged_keys.append(dkeys[j])
                merged_vals.append(dvals[j])
            j += 1
        self.meter.charge("merge_step", n + d)
        self.meter.charge("bulk_entry", len(merged_keys))
        self._keys, self._vals = merged_keys, merged_vals
        self._dkeys, self._dvals = [], []
        self._fit()
        self.rebuilds += 1
        if self.obs.enabled:
            self.obs.event(
                "learned.rebuild",
                entries=len(merged_keys),
                segments=len(self._seg_first),
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> bool:
        """Insert or update; returns True if a new entry was created."""
        dpos, dhit = self._delta_pos(key)
        if dhit:
            created = self._dvals[dpos] is _TOMBSTONE
            self._dvals[dpos] = value
            if created:
                self.n_entries += 1
            self._bump_watermarks(key)
            return created
        _pos, in_main = self._search_main(key)
        self._dkeys.insert(dpos, key)
        self._dvals.insert(dpos, value)
        self.meter.charge("entry_move", len(self._dkeys) - dpos)
        created = not in_main
        if created:
            self.n_entries += 1
        self._bump_watermarks(key)
        if len(self._dkeys) > self._fold_threshold():
            self._rebuild()
        return created

    def delete(self, key: int) -> bool:
        """Remove ``key`` if present (delta tombstone over the data layer)."""
        dpos, dhit = self._delta_pos(key)
        if dhit:
            if self._dvals[dpos] is _TOMBSTONE:
                return False
            _pos, in_main = self._search_main(key)
            if in_main:
                self._dvals[dpos] = _TOMBSTONE
            else:
                self._dkeys.pop(dpos)
                self._dvals.pop(dpos)
                self.meter.charge("entry_move", len(self._dkeys) - dpos + 1)
            self.n_entries -= 1
            return True
        _pos, in_main = self._search_main(key)
        if not in_main:
            return False
        self._dkeys.insert(dpos, key)
        self._dvals.insert(dpos, _TOMBSTONE)
        self.meter.charge("entry_move", len(self._dkeys) - dpos)
        self.n_entries -= 1
        if len(self._dkeys) > self._fold_threshold():
            self._rebuild()
        return True

    def bulk_load_append(self, items: Sequence[Tuple[int, object]]) -> None:
        """Append a sorted batch of strictly increasing keys > max_key.

        The data layer extends in place and the appended region is fitted
        as fresh segments — O(appended), no global refit.
        """
        if not items:
            return
        if not kernels.keys_strictly_increasing(items):
            raise BulkLoadError("bulk batch must be strictly increasing")
        if self._max_key is not None and items[0][0] <= self._max_key:
            raise BulkLoadError(
                f"bulk batch starts at {items[0][0]} but index max is {self._max_key}"
            )
        old_n = len(self._keys)
        appended = [key for key, _value in items]
        self._keys.extend(appended)
        self._vals.extend(value for _key, value in items)
        self.meter.charge("bulk_entry", len(items))
        first, slopes, starts = kernels.pla_fit_segments(appended, self.config.epsilon)
        self._seg_first.extend(first)
        self._seg_slope.extend(slopes)
        self._seg_start.extend(start + old_n for start in starts)
        self.meter.charge("sort_comparison", len(appended))
        self.n_entries += len(items)
        self._bump_watermarks(items[0][0])
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
        """Point lookup; returns the value or None."""
        dpos, dhit = self._delta_pos(key)
        if dhit:
            value = self._dvals[dpos]
            return None if value is _TOMBSTONE else value
        pos, found = self._search_main(key)
        return self._vals[pos] if found else None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All (key, value) with lo <= key <= hi, in key order."""
        if lo > hi:
            return []
        keys, vals = self._keys, self._vals
        start, _found = self._search_main(lo) if keys else (0, False)
        dkeys, dvals = self._dkeys, self._dvals
        dlo = bisect_left(dkeys, lo)
        dhi = bisect_right(dkeys, hi)
        self.meter.charge("merge_step", dhi - dlo)
        out: List[Tuple[int, object]] = []
        i, j = start, dlo
        n = len(keys)
        scanned = 0
        while i < n and keys[i] <= hi and j < dhi:
            if keys[i] < dkeys[j]:
                out.append((keys[i], vals[i]))
                scanned += 1
                i += 1
            elif keys[i] > dkeys[j]:
                if dvals[j] is not _TOMBSTONE:
                    out.append((dkeys[j], dvals[j]))
                j += 1
            else:
                if dvals[j] is not _TOMBSTONE:
                    out.append((keys[i], dvals[j]))
                scanned += 1
                i += 1
                j += 1
        while i < n and keys[i] <= hi:
            out.append((keys[i], vals[i]))
            scanned += 1
            i += 1
        while j < dhi:
            if dvals[j] is not _TOMBSTONE:
                out.append((dkeys[j], dvals[j]))
            j += 1
        self.meter.charge("scan_entry", scanned)
        return out

    def iter_items(self):
        """All entries in key order (no cost charged: test/debug helper)."""
        if self._min_key is None:
            return iter(())
        return iter(self.range_query(self._min_key, self._max_key))

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
        """Model/layout report: PGM's headline is index size vs the data."""
        n = len(self._keys)
        segments = len(self._seg_first)
        return {
            "entries": self.n_entries,
            "data_entries": n,
            "delta_entries": len(self._dkeys),
            "segments": segments,
            "epsilon": self.config.epsilon,
            "keys_per_segment": (n / segments) if segments else 0.0,
            "rebuilds": self.rebuilds,
            "model_misses": self.model_misses,
        }

    def check_invariants(self) -> None:
        """Validate structural invariants (used by the equivalence suite)."""
        from repro.errors import InvariantViolation

        keys = self._keys
        for i in range(1, len(keys)):
            if keys[i - 1] >= keys[i]:
                raise InvariantViolation("data layer not strictly sorted")
        dkeys = self._dkeys
        for i in range(1, len(dkeys)):
            if dkeys[i - 1] >= dkeys[i]:
                raise InvariantViolation("delta overlay not strictly sorted")
        if len(self._dkeys) != len(self._dvals):
            raise InvariantViolation("delta key/value column length mismatch")
        if self._seg_start and self._seg_start[0] != 0:
            raise InvariantViolation("first segment must start at 0")
        for i in range(1, len(self._seg_start)):
            if self._seg_start[i - 1] >= self._seg_start[i]:
                raise InvariantViolation("segment starts not increasing")
        # Every fitted key must be found through the model path.
        for i in range(0, len(keys), max(1, len(keys) // 64)):
            pos, found = self._search_main(keys[i])
            if not found or pos != i:
                raise InvariantViolation(
                    f"model lookup failed for fitted key {keys[i]} at {i}"
                )
