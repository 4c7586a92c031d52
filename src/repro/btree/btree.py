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
  Python ints searched with ``bisect``. ``tests/test_oracle.py`` checks the
  tree against a dict model, on int64 keys and keys beyond int64.

Semantics: unique keys with upsert on conflict; deletes are *lazy* (the
entry is removed, underfull/empty leaves stay in the structure and are
skipped by scans) — the paper's workloads exercise deletes only through
SWARE tombstone propagation, where lazy deletion is the standard choice.

:class:`BPlusTree` is what runs: it bills nothing and touches no pool, so a
lookup or an insert is one inline descent, and :meth:`BPlusTree.insert_sorted`
applies a sorted batch (a SWARE flush's top-inserts) one leaf at a time.
Constructed with a meter or a buffer pool it is a :class:`MeteredBPlusTree`,
which alone charges every structural operation to a
:class:`~repro.storage.Meter` and mirrors node touches to a
:class:`~repro.storage.BufferPool`, so the §V-E on-disk experiments can
count page I/O.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import kernels
from repro.errors import BulkLoadError, ConfigError, InvariantViolation
from repro.btree.node import GappedInternal, GappedLeaf
from repro.obs import DEFAULT_SIZE_BUCKETS, NULL_OBS, current_obs
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
    A leaf splits when it would hold more than ``leaf_capacity`` entries.
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
    """See module docstring; given a meter or a pool, the constructor builds
    a :class:`MeteredBPlusTree`.

    ``min_key`` / ``max_key`` are *watermark* bounds (``None`` while empty):
    they grow with inserts and bulk loads and never shrink on deletes. A
    stale bound only costs a wasted lookup for a key outside the live range
    — whereas shrinking ``max_key`` below the right-most separator would let
    a later bulk load append keys that belong left of that separator into
    the tail leaf.
    """

    meter: Meter = NULL_METER
    pool: Optional[BufferPool] = None
    # No route fissions a leaf; bench_e2e's ladder still reads the gauge.
    leaf_fissions = 0

    def __new__(cls, config=None, meter: Optional[Meter] = None, pool=None):
        if cls is BPlusTree and (
            pool is not None or (meter is not None and meter is not NULL_METER)
        ):
            cls = MeteredBPlusTree
        return super().__new__(cls)

    def __init__(
        self,
        config: Optional[BPlusTreeConfig] = None,
        meter: Optional[Meter] = None,
        pool: Optional[BufferPool] = None,
    ):
        self.config = config or BPlusTreeConfig()
        self.obs = current_obs()
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
        self.top_inserts = 0
        self.fastpath_inserts = 0
        self.bulk_loaded_entries = 0
        self.max_key: Optional[int] = None
        self.min_key: Optional[int] = None
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
            "gap_slots": self._gap_slots(),
            "top_inserts": self.top_inserts,
            "fastpath_inserts": self.fastpath_inserts,
            "bulk_loaded_entries": self.bulk_loaded_entries,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _new_leaf(self) -> GappedLeaf:
        leaf = GappedLeaf(self._pages.allocate())
        self.leaf_count += 1
        return leaf

    def _new_internal(self) -> GappedInternal:
        node = GappedInternal(self._pages.allocate())
        self.internal_count += 1
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
        """Walk root->leaf for ``key``; returns (leaf, internal path).
        ``dirty`` is the pool mode the metered tree touches the leaf with."""
        node = self._root
        path: List[GappedInternal] = []
        while not node.is_leaf:
            path.append(node)
            node = node.children[bisect_right(node.ks, key)]
        return node, path

    def _leaf_for(self, key: int) -> GappedLeaf:
        """The leaf a read of ``key`` lands on (non-empty tree)."""
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect_right(node.ks, key)]
        return node

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
        self, key: int
    ) -> Tuple[GappedLeaf, List[GappedInternal], Optional[int]]:
        """Like :meth:`_descend_to_leaf`, also returning the leaf's upper
        separator (``None`` on the right-most path) so batch walks know how
        long the current leaf stays valid for ascending keys."""
        node = self._root
        path: List[GappedInternal] = []
        hi: Optional[int] = None
        while not node.is_leaf:
            path.append(node)
            ks = node.ks
            idx = bisect_right(ks, key)
            if idx < node.n:
                hi = ks[idx]
            node = node.children[idx]
        return node, path, hi

    # ------------------------------------------------------------------
    # inserts
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> bool:
        """Insert or update; returns True if a new entry was created.

        One inline descent (or the tail leaf, below), a ``bisect_left`` and
        a ``list.insert``; the leaf splits once it holds more than
        ``leaf_capacity`` entries. The descent builds no path: a split
        descends again for it (``key`` still routes to the full leaf).
        """
        if self._root is None:
            self._ensure_root()
        self.top_inserts += 1
        leaf = self._tail_leaf
        ks = leaf.ks
        if self.config.tail_leaf_optimization and ks and key >= ks[0]:
            # Right-most leaf insertion (§III, Fig. 3a): no descent.
            self.fastpath_inserts += 1
        else:
            leaf = self._root
            while not leaf.is_leaf:
                leaf = leaf.children[bisect_right(leaf.ks, key)]
            ks = leaf.ks
        idx = bisect_left(ks, key)
        if idx < leaf.n and ks[idx] == key:
            leaf.vs[idx] = value
            return False
        ks.insert(idx, key)
        leaf.vs.insert(idx, value)
        leaf.n += 1
        self.n_entries += 1
        if self.max_key is None or key > self.max_key:
            self.max_key = key
        if self.min_key is None or key < self.min_key:
            self.min_key = key
        if leaf.n > self.config.leaf_capacity:
            self._split_leaf(leaf, self._descend_to_leaf(key)[1])
        return True

    def insert_sorted(self, keys: Sequence[int], values: Sequence[object]) -> None:
        """Upsert strictly increasing ``keys`` (with ``values``) one leaf at
        a time: the tree a loop of :meth:`insert` builds — the same leaves,
        splits and counters — with one descent per run of keys that land in
        the same leaf instead of one per key.

        A run is bounded by the leaf's upper separator. Inside it each key
        is a ``bisect_left`` that resumes where the previous key landed and
        an in-place ``list.insert``; a split ends the run, and the next key
        descends again. A SWARE flush sends its top-inserts here.
        """
        n = len(keys)
        if not n:
            return
        self._ensure_root()
        self.top_inserts += n
        capacity = self.config.leaf_capacity
        fastpath = self.config.tail_leaf_optimization
        created = 0
        i = 0
        while i < n:
            leaf, path, hi = self._descend_to_leaf_bounded(keys[i])
            stop = n if hi is None else bisect_left(keys, hi, i)
            ks, vs = leaf.ks, leaf.vs
            start, n0 = i, leaf.n
            on_tail = fastpath and leaf is self._tail_leaf
            # The loop takes the tail-leaf fast path for every key of the
            # tail's run but a first one into an empty tail or below its
            # first key.
            slow_first = on_tail and not (n0 and keys[i] >= ks[0])
            pos = 0
            while i < stop:
                key = keys[i]
                pos = bisect_left(ks, key, pos)
                i += 1
                if pos < len(ks) and ks[pos] == key:
                    vs[pos] = values[i - 1]
                    continue
                ks.insert(pos, key)
                vs.insert(pos, values[i - 1])
                if len(ks) > capacity:
                    break
            leaf.n = len(ks)
            created += leaf.n - n0
            if on_tail:
                self.fastpath_inserts += i - start - slow_first
            if leaf.n > capacity:
                self._split_leaf(leaf, path)
        self.n_entries += created
        first_key, last_key = keys[0], keys[-1]
        if self.max_key is None or last_key > self.max_key:
            self.max_key = last_key
        if self.min_key is None or first_key < self.min_key:
            self.min_key = first_key

    def insert_many(self, items: Sequence[Tuple[int, object]]) -> int:
        """Batch upsert; returns the number of new entries created.

        The batch is stable-sorted by key and deduplicated (the later version
        of a key wins, as in a loop of upserts). A batch entirely above
        ``max_key`` is a :meth:`bulk_load_append`; any other goes through
        :meth:`insert_sorted`, the route a SWARE flush's top-inserts take.
        """
        if not items:
            return 0
        batch = kernels.sort_items_by_key(items)
        keys, values = kernels.dedup_last(
            [key for key, _value in batch], [value for _key, value in batch]
        )
        before = self.n_entries
        if self.max_key is None or keys[0] > self.max_key:
            self.bulk_load_append(kernels.ItemColumns(keys, values))
        else:
            self.insert_sorted(keys, values)
        return self.n_entries - before

    def _split_point(self, total: int) -> int:
        point = round(total * self.config.split_factor)
        return max(1, min(point, total - 1))

    def _split_leaf(self, leaf: GappedLeaf, path: List[GappedInternal]) -> None:
        self.leaf_splits += 1
        if self.obs.enabled:
            self.obs.event("btree.leaf_split", entries=len(leaf), depth=len(path))
        split = self._split_point(len(leaf))
        right = self._new_leaf()
        leaf.split_into(right, split)
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        if leaf is self._tail_leaf:
            self._tail_leaf = right
        self._insert_into_parent(leaf, right.first_key(), right, path)

    def _split_internal(self, node: GappedInternal, path: List[GappedInternal]) -> None:
        self.internal_splits += 1
        if self.obs.enabled:
            self.obs.event("btree.internal_split", pivots=len(node), depth=len(path))
        split = self._split_point(len(node))
        right = self._new_internal()
        promoted = node.split_into(right, split)
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
        parent.insert_pivot(bisect_right(parent.ks, promoted_key), promoted_key, right)
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
        if self.max_key is not None and first <= self.max_key:
            raise BulkLoadError(
                f"bulk batch starts at {first} but tree max is {self.max_key}"
            )
        self._ensure_root()
        if self.obs.enabled:
            self.obs.event("btree.bulk_load", entries=total)
        self.obs.observe_hist(
            "btree_bulk_load_entries", total, buckets=DEFAULT_SIZE_BUCKETS
        )
        self._bulk_fill(keys, values)
        self.n_entries += total
        self.bulk_loaded_entries += total
        self.max_key = last if self.max_key is None else max(self.max_key, last)
        if self.min_key is None:
            self.min_key = first

    def _bulk_fill(self, keys: List[int], values: Sequence[object]) -> None:
        """Chunked fills: one list slice per leaf instead of a per-key append
        loop. The current tail leaf is topped off first so it reaches the
        fill target."""
        total = len(keys)
        fill = self._bulk_fill_target()
        pos = 0
        tail = self._tail_leaf
        if tail.n < fill:
            take = min(fill - tail.n, total)
            tail.extend(keys[:take], values[:take])
            pos = take
        while pos < total:
            take = min(fill, total - pos)
            leaf = self._new_leaf()
            leaf.adopt(keys[pos : pos + take], values[pos : pos + take])
            pos += take
            self._append_leaf(leaf)

    def _bulk_fill_target(self) -> int:
        return max(1, int(self.config.leaf_capacity * self.config.bulk_fill_factor))

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
        parent.insert_pivot(parent.n, separator, leaf)
        if parent.n > self.config.internal_capacity:
            self._split_internal(parent, self._tail_path[:-1])
        # No path recompute needed otherwise: parent chain unchanged.

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[object]:
        """Point lookup; returns the value or None. The descent is
        :meth:`_leaf_for`'s, inline."""
        node = self._root
        if node is None:
            return None
        while not node.is_leaf:
            node = node.children[bisect_right(node.ks, key)]
        ks = node.ks
        idx = bisect_left(ks, key)
        if idx < node.n and ks[idx] == key:
            return node.vs[idx]
        return None

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """Batch point lookups, one value-or-``None`` per key in input order:
        a loop of :meth:`get`, whose inline descent is cheaper than sorting
        the batch. :class:`MeteredBPlusTree` keeps the batch descent."""
        get = self.get
        return [get(key) for key in keys]

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All (key, value) with lo <= key <= hi, in key order.

        One loop over the leaf chain: only the first leaf's start and the
        last leaf's stop are bisected (past the first leaf every key is
        above ``lo``), and each leaf's rows are appended at once, a leaf
        wholly inside the range without slicing its lists.
        """
        out: List[Tuple[int, object]] = []
        if self._root is None or lo > hi:
            return out
        leaf = self._leaf_for(lo)
        start = bisect_left(leaf.ks, lo)
        while leaf is not None:
            ks = leaf.ks
            if ks and ks[-1] > hi:  # the last leaf
                stop = bisect_right(ks, hi)
                out += zip(ks[start:stop], leaf.vs[start:stop])
                break
            vs = leaf.vs
            out += zip(ks[start:], vs[start:]) if start else zip(ks, vs)
            leaf = leaf.next_leaf
            start = 0
        return out

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
        """Remove ``key`` if present (lazy: no rebalancing; the watermarks
        stay, see the class docstring)."""
        if self._root is None:
            return False
        leaf = self._leaf_for(key)
        ks = leaf.ks
        idx = bisect_left(ks, key)
        if idx == leaf.n or ks[idx] != key:
            return False
        leaf.delete_at(idx)
        self.n_entries -= 1
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
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
            self.max_key is None or self.max_key < last_nonempty.last_key()
        ):
            raise InvariantViolation("max_key watermark below right-most entry")


class MeteredBPlusTree(BPlusTree):
    """The B+-tree under a meter and an optional buffer pool, the one class
    of this layer that bills: every structural operation is charged to
    :attr:`meter`, and node touches are mirrored to :attr:`pool` in descent
    order so the §V-E on-disk experiments can count page I/O.

    Each override runs the executed step and bills it; the verbs whose
    touches interleave with their work (``insert``, the reads, ``delete``)
    are their own bodies. ``insert_sorted`` is a loop of :meth:`insert`, so
    a flush bills exactly what its per-key top-inserts always billed. The
    two classes share one layout, so an executed tree starts billing by
    rebinding its class (:meth:`bill_to`).
    """

    def __init__(
        self,
        config: Optional[BPlusTreeConfig] = None,
        meter: Optional[Meter] = None,
        pool: Optional[BufferPool] = None,
    ):
        self.meter = meter if meter is not None else NULL_METER
        self.pool = pool
        super().__init__(config)

    @staticmethod
    def bill_to(tree: BPlusTree, meter: Meter) -> None:
        """Make the executed ``tree`` bill ``meter`` from now on."""
        tree.__class__ = MeteredBPlusTree
        tree.meter = meter

    def _touch(self, node, dirty: bool = False) -> None:
        self.meter.charge("node_access")
        if self.pool is not None:
            self.pool.access(node.page_id, dirty=dirty)

    def _new_leaf(self) -> GappedLeaf:
        leaf = super()._new_leaf()
        if self.pool is not None:
            self.pool.create(leaf.page_id)
        return leaf

    def _new_internal(self) -> GappedInternal:
        node = super()._new_internal()
        if self.pool is not None:
            self.pool.create(node.page_id)
        return node

    def _descend_to_leaf(
        self, key: int, dirty: bool = False
    ) -> Tuple[GappedLeaf, List[GappedInternal]]:
        """Every visited node is charged and pool-touched exactly as
        :meth:`_touch` does, with the attribute loads hoisted out of the
        level loop."""
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

    def _leaf_for(self, key: int) -> GappedLeaf:
        """Without a pool the descent builds no path and charges its
        ``node_access``es in one call, one per level (as ``get_many``
        aggregates); with one, it is :meth:`_descend_to_leaf`, each node
        touched in descent order."""
        if self.pool is not None:
            return self._descend_to_leaf(key)[0]
        self.meter.charge("node_access", self.height)
        return super()._leaf_for(key)

    def insert(self, key: int, value: object) -> bool:
        """Finds the slot, shifts the dense prefix into the gap region, and
        splits the leaf once it holds more than ``leaf_capacity`` entries."""
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
        if self.max_key is None or key > self.max_key:
            self.max_key = key
        if self.min_key is None or key < self.min_key:
            self.min_key = key
        if leaf.n > self.config.leaf_capacity:
            self._split_leaf(leaf, path)
        return True

    def insert_sorted(self, keys: Sequence[int], values: Sequence[object]) -> None:
        """A loop of :meth:`insert`: each top-insert bills its own descent."""
        for key, value in zip(keys, values):
            self.insert(key, value)

    def _split_leaf(self, leaf: GappedLeaf, path: List[GappedInternal]) -> None:
        self.meter.charge("leaf_split")
        super()._split_leaf(leaf, path)
        self.meter.charge("entry_move", leaf.next_leaf.n)  # the right half

    def _split_internal(self, node: GappedInternal, path: List[GappedInternal]) -> None:
        # The right node's pivots plus the promoted one move.
        self.meter.charge("internal_split")
        self.meter.charge("entry_move", node.n - self._split_point(node.n))
        super()._split_internal(node, path)

    def _insert_into_parent(
        self, left, promoted_key: int, right, path: List[GappedInternal]
    ) -> None:
        if path:
            parent = path[-1]
            self._touch(parent, dirty=True)
            # The pivots right of the new one move, and the new one lands.
            self.meter.charge("entry_move", parent.n + 1 - parent.child_index(promoted_key))
        super()._insert_into_parent(left, promoted_key, right, path)

    def _bulk_fill(self, keys: List[int], values: Sequence[object]) -> None:
        self.meter.charge("bulk_entry", len(keys))
        tail = self._tail_leaf
        if tail.n < self._bulk_fill_target():
            self._touch(tail, dirty=True)
        super()._bulk_fill(keys, values)

    def _append_leaf(self, leaf: GappedLeaf) -> None:
        if self._root is not self._tail_leaf:
            self._touch(self._tail_path[-1], dirty=True)
        super()._append_leaf(leaf)

    def get(self, key: int) -> Optional[object]:
        node = self._root
        if node is None:
            return None
        node = self._leaf_for(key)
        ks = node.ks
        idx = bisect_left(ks, key)
        if idx < node.n and ks[idx] == key:
            return node.vs[idx]
        return None

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        """Each visited node is touched — and charged — exactly once per
        batch instead of once per key; without a pool the charges are
        aggregated into a single meter call (with a pool each node is
        touched individually to keep eviction order honest)."""
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

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """The scan charges ``scan_entry`` per row returned and
        ``node_access`` per leaf after the first, once each with the sums
        (as ``get_many`` aggregates); with a pool each next leaf is accessed
        in chain order."""
        out: List[Tuple[int, object]] = []
        if self._root is None or lo > hi:
            return out
        leaf = self._leaf_for(lo)
        pool = self.pool
        start = bisect_left(leaf.ks, lo)
        hops = 0
        while True:
            ks = leaf.ks
            if ks and ks[-1] > hi:  # the last leaf
                stop = bisect_right(ks, hi)
                out += zip(ks[start:stop], leaf.vs[start:stop])
                break
            vs = leaf.vs
            out += zip(ks[start:], vs[start:]) if start else zip(ks, vs)
            leaf = leaf.next_leaf
            if leaf is None:
                break
            hops += 1
            if pool is not None:
                pool.access(leaf.page_id)
            start = 0
        meter = self.meter
        meter.charge("scan_entry", len(out))
        meter.charge("node_access", hops)
        return out

    def delete(self, key: int) -> bool:
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
