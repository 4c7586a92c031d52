"""An in-memory B+-tree with the paper's tuning knobs.

This is the baseline index of the paper (inspired by the STX B+-tree) plus
the hooks SWARE needs (§III design elements):

* **configurable split factor** — on overflow the left node keeps
  ``split_factor`` of the entries (80:20 by default for SWARE trees, the
  textbook 50:50 for the baseline);
* **tail-leaf fast path** — an optional pointer to the right-most leaf so an
  in-order insert costs O(1) node accesses instead of a root-to-leaf walk;
* **append-only bulk loading** — a sorted batch of keys strictly above the
  current maximum is loaded leaf-at-a-time, filling each leaf to
  ``bulk_fill_factor`` (95% by default) and pushing separators up the right
  spine, amortizing to O(1) per entry;
* **gapped node layout** — each node is a fixed-capacity page whose free
  slots are its gaps (:mod:`repro.btree.node`); keys are sorted lists of
  Python ints searched with ``bisect``. ``insert_many`` absorbs whole runs
  into a leaf's gaps in one merge — or *fissions* the leaf into several
  bulk-filled pieces when a run overflows it, instead of one split per
  overflowing key — and ``get_many`` pushes its sorted keys down the tree
  one level at a time. ``tests/test_oracle.py`` checks the tree against a
  dict model, on int64 keys and keys beyond int64.

Semantics: unique keys with upsert on conflict; deletes are *lazy* (the
entry is removed, underfull/empty leaves stay in the structure and are
skipped by scans) — the paper's workloads exercise deletes only through
SWARE tombstone propagation, where lazy deletion is the standard choice.

Every structural operation is charged to a :class:`~repro.storage.Meter`,
and node touches are mirrored to an optional
:class:`~repro.storage.BufferPool` so the §V-E on-disk experiments can count
page I/O.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import kernels
from repro.errors import BulkLoadError, ConfigError, InvariantViolation
from repro.btree.node import GappedInternal, GappedLeaf
from repro.obs import DEFAULT_SIZE_BUCKETS, NULL_OBS, Observability, current_obs
from repro.storage.bufferpool import BufferPool, PageIdAllocator
from repro.storage.costmodel import NULL_METER, Meter


@dataclass(frozen=True)
class BPlusTreeConfig:
    """Tuning knobs for :class:`BPlusTree`.

    ``leaf_capacity``/``internal_capacity`` are in entries/pivots per node
    (the paper's 4 KB pages hold 512 8-byte entries; we default to 64 to keep
    reduced-scale trees a realistic height). ``split_factor`` is the fraction
    kept on the left node at a split. ``bulk_fill_factor`` is how full bulk
    loading packs a leaf, leaving headroom for later top-inserts (§IV-C).
    A leaf splits (scalar insert) or fissions (batch insert) when it would
    hold more than ``leaf_capacity`` entries.
    """

    leaf_capacity: int = 64
    internal_capacity: int = 64
    split_factor: float = 0.5
    bulk_fill_factor: float = 0.95
    tail_leaf_optimization: bool = False

    def __post_init__(self) -> None:
        if self.leaf_capacity < 2:
            raise ConfigError("leaf_capacity must be >= 2")
        if self.internal_capacity < 2:
            raise ConfigError("internal_capacity must be >= 2")
        if not 0.1 <= self.split_factor <= 0.9:
            raise ConfigError("split_factor must be within [0.1, 0.9]")
        if not 0.1 <= self.bulk_fill_factor <= 1.0:
            raise ConfigError("bulk_fill_factor must be within [0.1, 1.0]")


class BPlusTree:
    """See module docstring."""

    def __init__(
        self,
        config: Optional[BPlusTreeConfig] = None,
        meter: Optional[Meter] = None,
        pool: Optional[BufferPool] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or BPlusTreeConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.obs = obs if obs is not None else current_obs()
        self.pool = pool
        # A leaf page has one spare slot, so an insert may overflow
        # transiently before the split; space accounting counts it.
        self._leaf_physical = self.config.leaf_capacity + 1
        self._pages = PageIdAllocator()
        self._root: Optional[object] = None
        self._tail_leaf: Optional[GappedLeaf] = None
        self._head_leaf: Optional[GappedLeaf] = None
        self._tail_path: List[GappedInternal] = []
        self.n_entries = 0
        self.height = 0
        self.leaf_count = 0
        self.internal_count = 0
        # Statistic counters mirrored by the paper's figures.
        self.leaf_splits = 0
        self.internal_splits = 0
        self.leaf_fissions = 0
        self.top_inserts = 0
        self.fastpath_inserts = 0
        self.bulk_loaded_entries = 0
        self._max_key: Optional[int] = None
        self._min_key: Optional[int] = None
        if self.obs is not NULL_OBS:
            self.obs.register_collector("btree", self._obs_snapshot)

    def _obs_snapshot(self) -> dict:
        return {
            "n_entries": self.n_entries,
            "height": self.height,
            "leaf_count": self.leaf_count,
            "internal_count": self.internal_count,
            "leaf_splits": self.leaf_splits,
            "internal_splits": self.internal_splits,
            "leaf_fissions": self.leaf_fissions,
            "gap_slots": self._gap_slots(),
            "top_inserts": self.top_inserts,
            "fastpath_inserts": self.fastpath_inserts,
            "bulk_loaded_entries": self.bulk_loaded_entries,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _touch(self, node, dirty: bool = False) -> None:
        self.meter.charge("node_access")
        if self.pool is not None:
            self.pool.access(node.page_id, dirty=dirty)

    def _new_leaf(self) -> GappedLeaf:
        leaf = GappedLeaf(self._pages.allocate())
        self.leaf_count += 1
        if self.pool is not None:
            self.pool.create(leaf.page_id)
        return leaf

    def _new_internal(self) -> GappedInternal:
        node = GappedInternal(self._pages.allocate())
        self.internal_count += 1
        if self.pool is not None:
            self.pool.create(node.page_id)
        return node

    def _ensure_root(self) -> None:
        if self._root is None:
            leaf = self._new_leaf()
            self._root = leaf
            self._tail_leaf = leaf
            self._head_leaf = leaf
            self._tail_path = []
            self.height = 1

    def _descend_to_leaf(
        self, key: int, dirty: bool = False
    ) -> Tuple[GappedLeaf, List[GappedInternal]]:
        """Walk root->leaf for ``key``; returns (leaf, internal path). Every
        visited node is charged and pool-touched exactly as :meth:`_touch`
        does, with the attribute loads hoisted out of the level loop."""
        node = self._root
        path: List[GappedInternal] = []
        charge = self.meter.charge
        pool = self.pool
        while not node.is_leaf:
            charge("node_access")
            if pool is not None:
                pool.access(node.page_id)
            path.append(node)
            node = node.children[node.child_index(key)]
        charge("node_access")
        if pool is not None:
            pool.access(node.page_id, dirty=dirty)
        return node, path

    def _recompute_tail_path(self) -> None:
        """Refresh the cached right-most path (bookkeeping, not charged)."""
        node = self._root
        path: List[GappedInternal] = []
        while node is not None and not node.is_leaf:
            path.append(node)
            node = node.children[-1]
        self._tail_path = path
        self._tail_leaf = node

    def _descend_to_leaf_bounded(
        self, key: int, dirty: bool = False
    ) -> Tuple[GappedLeaf, List[GappedInternal], Optional[int]]:
        """Like :meth:`_descend_to_leaf`, also returning the leaf's upper
        separator (``None`` on the right-most path) so batch walks know how
        long the current leaf stays valid for ascending keys."""
        node = self._root
        path: List[GappedInternal] = []
        hi: Optional[int] = None
        charge = self.meter.charge
        pool = self.pool
        while not node.is_leaf:
            charge("node_access")
            if pool is not None:
                pool.access(node.page_id)
            path.append(node)
            idx = node.child_index(key)
            if idx < node.n:
                hi = node.ks[idx]
            node = node.children[idx]
        charge("node_access")
        if pool is not None:
            pool.access(node.page_id, dirty=dirty)
        return node, path, hi

    # ------------------------------------------------------------------
    # inserts
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> bool:
        """Insert or update; returns True if a new entry was created.

        Finds the slot, shifts the dense prefix into the gap region, and
        splits the leaf once it holds more than ``leaf_capacity`` entries.
        """
        self._ensure_root()
        self.top_inserts += 1
        tail = self._tail_leaf
        if (
            self.config.tail_leaf_optimization
            and tail is not None
            and tail.n
            and key >= tail.first_key()
        ):
            # Right-most leaf insertion (§III, Fig. 3a): one node access.
            self.fastpath_inserts += 1
            self._touch(tail, dirty=True)
            leaf, path = tail, self._tail_path
        else:
            leaf, path = self._descend_to_leaf(key, dirty=True)

        idx = leaf.search_left(key)
        if leaf.has_key_at(idx, key):
            leaf.set_value(idx, value)
            return False
        leaf.insert_at(idx, key, value)
        self.meter.charge("entry_move", leaf.n - idx)
        self.n_entries += 1
        if self._max_key is None or key > self._max_key:
            self._max_key = key
        if self._min_key is None or key < self._min_key:
            self._min_key = key
        if leaf.n > self.config.leaf_capacity:
            self._split_leaf(leaf, path)
        return True

    def insert_many(self, items: Sequence[Tuple[int, object]]) -> int:
        """Batch upsert with sort-then-walk amortization; returns the number
        of new entries created.

        The batch is stable-sorted by key (later duplicates win, matching a
        sequential loop of upserts) and applied with one leaf descent per run
        of keys landing in the same leaf. A batch that is strictly increasing
        and entirely above ``max_key`` — the common case under sorted
        ingestion — short-circuits into :meth:`bulk_load_append`. Every run
        starts from a fresh descent, so correctness never depends on paths
        patched up after a fission.
        """
        if not items:
            return 0
        batch = kernels.sort_items_by_key(items)
        keys = [key for key, _value in batch]
        values = [value for _key, value in batch]
        first_key = keys[0]
        if self._max_key is None or first_key > self._max_key:
            if kernels.column_strictly_increasing(keys):
                before = self.n_entries
                self.bulk_load_append(kernels.ItemColumns(keys, values))
                return self.n_entries - before
        self._ensure_root()
        # A sequential upsert replay would make the later duplicate
        # overwrite the earlier one in place, so dropping all but the
        # last version of a key before the walk changes neither the
        # final tree, the created count, nor the entry_move charges —
        # the batch still bills len(batch) top-inserts because that is
        # how many operations it stands for.
        self.top_inserts += len(batch)
        keys, values = kernels.dedup_last(keys, values)
        return self._insert_many(keys, values)

    def _insert_many(self, keys: List[int], values: List[object]) -> int:
        """Batch descent + gap-absorbing merges for sorted unique ``keys``.

        One bounded descent per run of keys sharing a leaf; the whole run is
        merged into the leaf in a single pass. A run that fits within
        ``leaf_capacity`` is absorbed with zero structural work; one that
        does not *fissions* the leaf into bulk-filled pieces (one structural
        event for the run, vs one split per ``leaf_capacity`` keys under
        key-at-a-time insertion).
        """
        nb = len(keys)
        created = 0
        entry_moves = 0
        i = 0
        while i < nb:
            leaf, path, hi = self._descend_to_leaf_bounded(keys[i], dirty=True)
            j = bisect_left(keys, hi, i) if hi is not None else nb
            c, moves = self._merge_run(leaf, keys, values, i, j)
            created += c
            entry_moves += moves
            i = j
        if entry_moves:
            self.meter.charge("entry_move", entry_moves)
        self.n_entries += created
        first_key, last_key = keys[0], keys[-1]
        if self._max_key is None or last_key > self._max_key:
            self._max_key = last_key
        if self._min_key is None or first_key < self._min_key:
            self._min_key = first_key
        return created

    def _merge_run(
        self, leaf: GappedLeaf, keys: List[int], values: List[object], i: int, j: int
    ) -> Tuple[int, int]:
        """Merge sorted unique ``keys[i:j]`` (with ``values[i:j]``) into
        ``leaf`` in one pass; returns (created, entry moves)."""
        ks, vs, n0 = leaf.ks, leaf.vs, leaf.n
        first = p = bisect_left(ks, keys[i])
        merged_keys = ks[:first]
        merged_vals = vs[:first]
        created = 0
        for t in range(i, j):
            key = keys[t]
            pos = bisect_left(ks, key, p)
            if pos > p:
                merged_keys += ks[p:pos]
                merged_vals += vs[p:pos]
            merged_keys.append(key)
            merged_vals.append(values[t])
            if pos < n0 and ks[pos] == key:
                p = pos + 1  # an overwrite consumes the existing slot
            else:
                p = pos
                created += 1
        merged_keys += ks[p:]
        merged_vals += vs[p:]
        if len(merged_keys) > self.config.leaf_capacity:
            self._fission_leaf(leaf, merged_keys, merged_vals)
            return created, 0
        # Gap absorption: the run disappears into the leaf's holes. Pure
        # overwrites move no key.
        leaf.adopt(merged_keys, merged_vals)
        return created, (n0 - first) + created if created else 0

    def _fission_leaf(
        self, leaf: GappedLeaf, merged_keys: List[int], merged_vals: List[object]
    ) -> None:
        """Rebuild an overflowing leaf as several bulk-filled leaves.

        The merged run is cut into pieces of ``bulk_fill_factor * capacity``
        entries; the first piece reuses ``leaf``, each further piece becomes
        a fresh leaf spliced into the chain and registered with its parent
        via a fresh descent (splits invalidate cached paths, so every
        separator insertion re-walks — one O(height) walk per piece).
        """
        total = len(merged_keys)
        target = max(1, int(self.config.leaf_capacity * self.config.bulk_fill_factor))
        self.leaf_fissions += 1
        self.meter.charge("leaf_fission")
        self.meter.charge("entry_move", total)
        if self.obs.enabled:
            self.obs.event(
                "btree.leaf_fission",
                entries=total,
                pieces=(total + target - 1) // target,
            )
        was_tail = leaf is self._tail_leaf
        leaf.adopt(merged_keys[:target], merged_vals[:target])
        prev = leaf
        pos = target
        while pos < total:
            take = min(target, total - pos)
            piece = self._new_leaf()
            piece.adopt(merged_keys[pos : pos + take], merged_vals[pos : pos + take])
            piece.next_leaf = prev.next_leaf
            prev.next_leaf = piece
            if was_tail and piece.next_leaf is None:
                self._tail_leaf = piece
            sep = piece.first_key()
            # sep still routes to ``prev`` (its separator is not in any
            # parent yet), so this walk yields prev's current parent path.
            _, spath = self._descend_to_leaf(sep)
            self._insert_into_parent(prev, sep, piece, spath)
            prev = piece
            pos += take

    def _split_point(self, total: int) -> int:
        point = round(total * self.config.split_factor)
        return max(1, min(point, total - 1))

    def _split_leaf(self, leaf: GappedLeaf, path: List[GappedInternal]) -> None:
        self.leaf_splits += 1
        self.meter.charge("leaf_split")
        if self.obs.enabled:
            self.obs.event("btree.leaf_split", entries=len(leaf), depth=len(path))
        split = self._split_point(len(leaf))
        right = self._new_leaf()
        leaf.split_into(right, split)
        self.meter.charge("entry_move", right.n)
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        if leaf is self._tail_leaf:
            self._tail_leaf = right
        self._insert_into_parent(leaf, right.first_key(), right, path)

    def _split_internal(self, node: GappedInternal, path: List[GappedInternal]) -> None:
        self.internal_splits += 1
        self.meter.charge("internal_split")
        if self.obs.enabled:
            self.obs.event("btree.internal_split", pivots=len(node), depth=len(path))
        split = self._split_point(len(node))
        right = self._new_internal()
        promoted = node.split_into(right, split)
        self.meter.charge("entry_move", right.n + 1)
        self._insert_into_parent(node, promoted, right, path)

    def _insert_into_parent(
        self, left, promoted_key: int, right, path: List[GappedInternal]
    ) -> None:
        if not path:
            # Splitting the root: grow the tree by one level.
            new_root = self._new_internal()
            new_root.children = [left]
            new_root.insert_pivot(0, promoted_key, right)
            self._root = new_root
            self.height += 1
            self._recompute_tail_path()
            return
        parent = path[-1]
        self._touch(parent, dirty=True)
        idx = parent.child_index(promoted_key)
        parent.insert_pivot(idx, promoted_key, right)
        self.meter.charge("entry_move", parent.n - idx)
        if parent.n > self.config.internal_capacity:
            self._split_internal(parent, path[:-1])
        else:
            self._recompute_tail_path()

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load_append(self, items: Sequence[Tuple[int, object]]) -> None:
        """Append a sorted batch of strictly increasing keys > max_key.

        ``items`` is ``(key, value)`` pairs or an ``ItemColumns`` (a SWARE
        flush) whose keys may be an int64 column; they become Python ints
        once, here. Fills each leaf to ``bulk_fill_factor`` and pushes
        separators up the right spine (Fig. 3b); cost is O(1) amortized per
        entry.
        """
        total = len(items)
        if not total:
            return
        if isinstance(items, kernels.ItemColumns):
            col, values = items.keys, items.values
        else:
            col = [key for key, _value in items]
            values = [value for _key, value in items]
        if not kernels.column_strictly_increasing(col):
            raise BulkLoadError("bulk batch must be strictly increasing")
        keys = kernels.as_list(col)
        first, last = keys[0], keys[-1]
        if self._max_key is not None and first <= self._max_key:
            raise BulkLoadError(
                f"bulk batch starts at {first} but tree max is {self._max_key}"
            )
        self._ensure_root()
        fill = max(1, int(self.config.leaf_capacity * self.config.bulk_fill_factor))
        self.meter.charge("bulk_entry", total)
        if self.obs.enabled:
            self.obs.event("btree.bulk_load", entries=total)
        self.obs.observe_hist(
            "btree_bulk_load_entries", total, buckets=DEFAULT_SIZE_BUCKETS
        )

        pos = 0
        tail = self._tail_leaf
        # Chunked fills: one list slice per leaf instead of a per-key append
        # loop. The current tail leaf is topped off first so it reaches the
        # fill target.
        if tail.n < fill:
            take = min(fill - tail.n, total)
            self._touch(tail, dirty=True)
            tail.extend(keys[:take], values[:take])
            pos = take
        while pos < total:
            take = min(fill, total - pos)
            leaf = self._new_leaf()
            leaf.adopt(keys[pos : pos + take], values[pos : pos + take])
            pos += take
            self._append_leaf(leaf)

        self.n_entries += total
        self.bulk_loaded_entries += total
        self._max_key = last if self._max_key is None else max(self._max_key, last)
        if self._min_key is None:
            self._min_key = first

    def _append_leaf(self, leaf: GappedLeaf) -> None:
        """Attach a freshly built leaf at the right edge of the tree."""
        tail = self._tail_leaf
        leaf.next_leaf = tail.next_leaf
        tail.next_leaf = leaf
        self._tail_leaf = leaf
        separator = leaf.first_key()
        if self._root is tail:
            # Root was a lone leaf: create the first internal level.
            new_root = self._new_internal()
            new_root.children = [tail]
            new_root.insert_pivot(0, separator, leaf)
            self._root = new_root
            self.height += 1
            self._recompute_tail_path()
            return
        parent = self._tail_path[-1]
        self._touch(parent, dirty=True)
        parent.insert_pivot(parent.n, separator, leaf)
        if parent.n > self.config.internal_capacity:
            self._split_internal(parent, self._tail_path[:-1])
        # No path recompute needed otherwise: parent chain unchanged.

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[object]:
        """Point lookup; returns the value or None."""
        if self._root is None:
            return None
        leaf, _ = self._descend_to_leaf(key)
        idx = leaf.search_left(key)
        if leaf.has_key_at(idx, key):
            return leaf.vs[idx]
        return None

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """Batch point lookups, one value-or-``None`` per key in input order.

        Batch descent: the sorted distinct keys are partitioned across
        children one level at a time (one ``bisect`` per child run), then
        each leaf resolves its segment with ``bisect`` calls that resume
        where the previous key landed. Each visited node is touched — and
        charged — exactly once per batch instead of once per key; without a
        pool the charges are aggregated into a single meter call (with a
        pool each node is touched individually to keep eviction order
        honest).
        """
        n = len(keys)
        if self._root is None or n == 0:
            return [None] * n
        skeys = sorted(set(keys))
        found: dict = {}
        pool = self.pool
        node_visits = 0
        stack = [(self._root, 0, len(skeys))]
        while stack:
            node, lo, hi = stack.pop()
            node_visits += 1
            if pool is not None:
                self._touch(node)
            ks = node.ks
            if node.is_leaf:
                vs = node.vs
                pos = 0
                for t in range(lo, hi):
                    key = skeys[t]
                    pos = bisect_left(ks, key, pos)
                    if pos < node.n and ks[pos] == key:
                        found[key] = vs[pos]
                continue
            children = node.children
            while lo < hi:
                child = bisect_right(ks, skeys[lo])
                stop = bisect_left(skeys, ks[child], lo, hi) if child < node.n else hi
                stack.append((children[child], lo, stop))
                lo = stop
        if pool is None:
            self.meter.charge("node_access", node_visits)
        return [found.get(key) for key in keys]

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All (key, value) with lo <= key <= hi, in key order."""
        results: List[Tuple[int, object]] = []
        if self._root is None or lo > hi:
            return results
        leaf, _ = self._descend_to_leaf(lo)
        self._scan(leaf, lo, hi, results)
        return results

    def _scan(self, leaf, lo: int, hi: int, out: List[Tuple[int, object]]):
        """Collect [lo, hi] walking the chain from ``leaf`` (already
        touched); returns the last leaf visited so batch callers can resume
        the walk instead of re-descending."""
        last = leaf
        interior = False  # past the first leaf every key is above ``lo``
        while leaf is not None:
            last = leaf
            n = leaf.n
            if n:
                if leaf.first_key() > hi:
                    break
                if interior and leaf.last_key() <= hi:
                    start, stop = 0, n  # wholly inside: no searches
                else:
                    start, stop = leaf.range_bounds(lo, hi)
                self.meter.charge("scan_entry", max(stop - start, 0))
                if stop > start:
                    out.extend(leaf.live_items(start, stop))
                if stop < n:
                    break
            leaf = leaf.next_leaf
            interior = True
            if leaf is not None:
                self._touch(leaf)
        return last

    def range_many(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> List[List[Tuple[int, object]]]:
        """Batch range queries: one result list per ``(lo, hi)`` pair.

        The ranges are visited in ascending-``lo`` order and each scan
        resumes from the leaf where the previous one stopped when it can
        (bounded chain walk), falling back to a fresh descent — overlapping
        or adjacent ranges touch each leaf once per batch instead of once
        per range.
        """
        if self._root is None or len(ranges) < 2:
            return [self.range_query(lo, hi) for lo, hi in ranges]
        results: List[List[Tuple[int, object]]] = [[] for _ in ranges]
        order = sorted(range(len(ranges)), key=lambda i: ranges[i][0])
        cursor = None
        walk_budget = self.height + 2
        for ridx in order:
            lo, hi = ranges[ridx]
            if lo > hi:
                continue
            leaf = None
            if cursor is not None and cursor.n and lo >= cursor.first_key():
                # Try to reach lo's leaf along the chain before paying a
                # root-to-leaf walk: ascending los make this amortized O(1).
                node = cursor
                hops = 0
                while node is not None and hops <= walk_budget:
                    if node.n and node.last_key() >= lo:
                        leaf = node
                        break
                    node = node.next_leaf
                    hops += 1
                    if node is not None:
                        self._touch(node)
                if leaf is None and node is not None and node.n and node.last_key() >= lo:
                    leaf = node
            if leaf is None:
                leaf, _ = self._descend_to_leaf(lo)
            cursor = self._scan(leaf, lo, hi, results[ridx])
        return results

    def iter_items(self) -> Iterator[Tuple[int, object]]:
        """All entries in key order (no cost charged: test/debug helper)."""
        leaf = self._head_leaf
        while leaf is not None:
            yield from leaf.iter_live()
            leaf = leaf.next_leaf

    # ------------------------------------------------------------------
    # deletes
    # ------------------------------------------------------------------
    def delete(self, key: int) -> bool:
        """Remove ``key`` if present (lazy: no rebalancing).

        ``min_key``/``max_key`` are *watermark* bounds: they never shrink on
        deletes. A stale bound only costs a wasted lookup for a key outside
        the live range — whereas shrinking ``max_key`` below the right-most
        separator would let a later bulk load append keys that belong left
        of that separator into the tail leaf.
        """
        if self._root is None:
            return False
        leaf, _ = self._descend_to_leaf(key, dirty=True)
        idx = leaf.search_left(key)
        if not leaf.has_key_at(idx, key):
            return False
        leaf.delete_at(idx)
        self.meter.charge("entry_move", leaf.n - idx + 1)
        self.n_entries -= 1
        return True

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

    def _gap_slots(self) -> int:
        """Allocated-but-empty leaf key slots (each leaf's spare slot counts);
        the one definition behind ``space_stats()`` and the obs collector."""
        return self.leaf_count * self._leaf_physical - self.n_entries

    def space_stats(self) -> dict:
        """Space-utilization report (intro claim: up to 48% reduction).

        ``leaf_slots``/``avg_leaf_fill``/``slot_overhead`` are *logical*
        figures (capacity-based). A leaf is a page of ``capacity + 1`` slots
        whether or not they are filled, so the report carries explicit
        physical accounting — ``physical_slots`` counts every page slot
        (including the per-leaf spare), ``gap_slots`` the currently empty
        ones — and the space bench cannot silently flatter the layout by
        ignoring a page's unused slots.
        """
        leaf_slots = self.leaf_count * self.config.leaf_capacity
        used = self.n_entries
        fills: List[float] = []
        leaf = self._head_leaf
        while leaf is not None:
            fills.append(len(leaf) / self.config.leaf_capacity)
            leaf = leaf.next_leaf
        avg_fill = sum(fills) / len(fills) if fills else 0.0
        physical_slots = self.leaf_count * self._leaf_physical
        return {
            "leaf_count": self.leaf_count,
            "internal_count": self.internal_count,
            "height": self.height,
            "leaf_slots": leaf_slots,
            "entries": used,
            "avg_leaf_fill": avg_fill,
            "slot_overhead": (leaf_slots / used) if used else 0.0,
            "logical_entries": used,
            "physical_slots": physical_slots,
            "gap_slots": self._gap_slots(),
            "physical_fill": (used / physical_slots) if physical_slots else 0.0,
        }

    def check_invariants(self) -> None:
        """Validate structural invariants; raises InvariantViolation."""
        if self._root is None:
            return
        leaf_depths = set()

        def recurse(node, depth: int, lo: Optional[int], hi: Optional[int]) -> None:
            keys = node.ks
            # Stores hold exactly Python ints: a numpy scalar would survive
            # comparisons but not json.dump of a shard manifest.
            if type(keys) is not list or len(keys) != node.n:
                raise InvariantViolation(f"key store is not a list of n={node.n} keys")
            if any(type(key) is not int for key in keys):
                raise InvariantViolation("key store holds a key that is not an int")
            for i in range(1, len(keys)):
                if keys[i - 1] >= keys[i]:
                    raise InvariantViolation(f"node keys not strictly sorted: {keys}")
            if node.is_leaf:
                if len(node.vs) != node.n:
                    raise InvariantViolation(
                        f"leaf value count {len(node.vs)} != n={node.n}"
                    )
                leaf_depths.add(depth)
                if len(keys) > self.config.leaf_capacity:
                    raise InvariantViolation(
                        f"leaf holds {len(keys)} > capacity {self.config.leaf_capacity}"
                    )
                for key in keys:
                    if lo is not None and key < lo:
                        raise InvariantViolation(f"leaf key {key} below separator {lo}")
                    if hi is not None and key >= hi:
                        raise InvariantViolation(f"leaf key {key} at/above separator {hi}")
                return
            if len(node.children) != len(keys) + 1:
                raise InvariantViolation("internal child count mismatch")
            if len(keys) > self.config.internal_capacity:
                raise InvariantViolation(
                    f"internal holds {len(keys)} > capacity {self.config.internal_capacity}"
                )
            bounds = [lo, *keys, hi]
            for i, child in enumerate(node.children):
                recurse(child, depth + 1, bounds[i], bounds[i + 1])

        recurse(self._root, 1, None, None)
        if len(leaf_depths) > 1:
            raise InvariantViolation(f"leaves at multiple depths: {leaf_depths}")
        if leaf_depths and next(iter(leaf_depths)) != self.height:
            raise InvariantViolation(
                f"height {self.height} does not match leaf depth {leaf_depths}"
            )
        # Leaf chain must be globally sorted and cover n_entries.
        count = 0
        previous = None
        leaf = self._head_leaf
        last_nonempty = None
        while leaf is not None:
            for key in leaf.ks:
                if previous is not None and key <= previous:
                    raise InvariantViolation("leaf chain out of order")
                previous = key
                count += 1
            if leaf.n:
                last_nonempty = leaf
            leaf = leaf.next_leaf
        if count != self.n_entries:
            raise InvariantViolation(f"entry count {count} != n_entries {self.n_entries}")
        if self._tail_leaf is not None and self._tail_leaf.next_leaf is not None:
            raise InvariantViolation("tail leaf is not the end of the chain")
        if last_nonempty is not None and (
            self._max_key is None or self._max_key < last_nonempty.last_key()
        ):
            raise InvariantViolation("max_key watermark below right-most entry")
