"""An in-memory Bε-tree [Bender et al. 2015], the paper's second baseline.

An internal node of size ``B`` devotes ``B^ε`` slots to pivots and the rest
to a message buffer (ε = 1/2 by default, as in §V of the paper). Inserts and
deletes append a message to the root buffer in O(1); when a buffer
overflows, the batch of messages addressed to the child with the most
pending messages is moved one level down, amortizing the cost of writing
deep nodes across many messages. Queries must consult the buffers along
their root-to-leaf path, which is the read overhead the paper observes for
Bε-trees.

SWARE hooks mirror the B+-tree: configurable split factor, append-only bulk
loading that builds leaves directly and leaves the internal buffers empty
(§V-G: "SA Bε-tree opportunistically bulk loads when possible, leaving
internal node buffers empty"), and meter accounting.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.betree.messages import DELETE, PUT, Message
from repro.btree.node import InternalNode, LeafNode
from repro.errors import BulkLoadError, ConfigError, InvariantViolation
from repro.obs import DEFAULT_SIZE_BUCKETS, NULL_OBS, current_obs
from repro.storage.bufferpool import PageIdAllocator
from repro.storage.costmodel import NULL_METER, Meter
from repro.storage.pages import check_keys


class BeInternalNode(InternalNode):
    """Internal node with a message buffer (arrival-ordered list)."""

    __slots__ = ("buffer",)

    def __init__(self, page_id: int):
        super().__init__(page_id)
        self.buffer: List[Message] = []


@dataclass(frozen=True)
class BeTreeConfig:
    """Tuning knobs for :class:`BeTree`.

    ``node_size`` is the paper's B (total slots per internal node); with
    ``epsilon`` = 1/2 a node of 64 slots keeps ceil(64^0.5) = 8 pivots and
    buffers 56 messages.
    """

    node_size: int = 64
    epsilon: float = 0.5
    leaf_capacity: int = 64
    split_factor: float = 0.5
    bulk_fill_factor: float = 0.95

    def __post_init__(self) -> None:
        if self.node_size < 4:
            raise ConfigError("node_size must be >= 4")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in (0, 1]")
        if self.leaf_capacity < 2:
            raise ConfigError("leaf_capacity must be >= 2")
        if not 0.1 <= self.split_factor <= 0.9:
            raise ConfigError("split_factor must be within [0.1, 0.9]")
        if not 0.1 <= self.bulk_fill_factor <= 1.0:
            raise ConfigError("bulk_fill_factor must be within [0.1, 1.0]")

    @property
    def max_pivots(self) -> int:
        """Number of pivot slots: ceil(B^ε), at least 2."""
        return max(2, math.ceil(self.node_size**self.epsilon))

    @property
    def buffer_capacity(self) -> int:
        """Message slots per internal node: B - B^ε."""
        return max(1, self.node_size - self.max_pivots)


class BeTree:
    """See module docstring."""

    def __init__(
        self,
        config: Optional[BeTreeConfig] = None,
        meter: Optional[Meter] = None,
    ):
        self.config = config or BeTreeConfig()
        self.meter = meter if meter is not None else NULL_METER
        self.obs = current_obs()
        self._pages = PageIdAllocator()
        self._root: Optional[object] = None
        self._head_leaf: Optional[LeafNode] = None
        self._tail_leaf: Optional[LeafNode] = None
        self._tail_path: List[BeInternalNode] = []
        self._seq = 0
        self._max_key: Optional[int] = None
        self._min_key: Optional[int] = None
        self.height = 0
        self.leaf_count = 0
        self.internal_count = 0
        self.leaf_splits = 0
        self.internal_splits = 0
        self.buffer_flushes = 0
        self.messages_moved = 0
        self.top_inserts = 0
        self.bulk_loaded_entries = 0
        if self.obs is not NULL_OBS:
            self.obs.register_collector("betree", self._obs_snapshot)

    def _obs_snapshot(self) -> dict:
        return {
            "height": self.height,
            "leaf_count": self.leaf_count,
            "internal_count": self.internal_count,
            "leaf_splits": self.leaf_splits,
            "internal_splits": self.internal_splits,
            "buffer_flushes": self.buffer_flushes,
            "messages_moved": self.messages_moved,
            "top_inserts": self.top_inserts,
            "bulk_loaded_entries": self.bulk_loaded_entries,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _touch(self, node) -> None:
        self.meter.charge("node_access")

    def _new_leaf(self) -> LeafNode:
        leaf = LeafNode(self._pages.allocate())
        self.leaf_count += 1
        return leaf

    def _new_internal(self) -> BeInternalNode:
        node = BeInternalNode(self._pages.allocate())
        self.internal_count += 1
        return node

    def _ensure_root(self) -> None:
        if self._root is None:
            leaf = self._new_leaf()
            self._root = leaf
            self._head_leaf = leaf
            self._tail_leaf = leaf
            self._tail_path = []
            self.height = 1

    def _recompute_tail_path(self) -> None:
        node = self._root
        path: List[BeInternalNode] = []
        while node is not None and not node.is_leaf:
            path.append(node)
            node = node.children[-1]
        self._tail_path = path
        self._tail_leaf = node

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: int, value: object) -> None:
        """Upsert via a PUT message through the root (O(1) amortized)."""
        check_keys(key, key)
        self._put_message(Message(key, self._next_seq(), PUT, value))
        self.top_inserts += 1
        if self._max_key is None or key > self._max_key:
            self._max_key = key
        if self._min_key is None or key < self._min_key:
            self._min_key = key

    def delete(self, key: int) -> None:
        """Delete via a tombstone message through the root."""
        check_keys(key, key)
        self.meter.charge("tombstone")
        self._put_message(Message(key, self._next_seq(), DELETE, None))

    def _put_message(self, message: Message) -> None:
        self._ensure_root()
        root = self._root
        self._touch(root)
        if root.is_leaf:
            splits = self._apply_messages_to_leaf(root, [message])
            if splits:
                self._grow_root(root, splits)
            return
        root.buffer.append(message)
        if len(root.buffer) > self.config.buffer_capacity:
            splits = self._flush_node(root)
            if splits:
                self._grow_root(root, splits)

    def _grow_root(self, old_root, splits: List[Tuple[int, object]]) -> None:
        new_root = self._new_internal()
        new_root.children = [old_root]
        for sep, node in splits:
            new_root.keys.append(sep)
            new_root.children.append(node)
        self._root = new_root
        self.height += 1
        # A cascade of splits could overflow even the fresh root's pivots.
        if len(new_root.keys) > self.config.max_pivots:
            upper = self._split_internal_if_needed(new_root)
            if upper:
                self._grow_root(new_root, upper)
                return
        self._recompute_tail_path()

    # -- message flow ---------------------------------------------------
    def _flush_node(self, node: BeInternalNode) -> List[Tuple[int, object]]:
        """Drain ``node``'s overfull buffer; returns splits of ``node``."""
        capacity = self.config.buffer_capacity
        while len(node.buffer) > capacity:
            self.buffer_flushes += 1
            # Bucket messages by target child under the *current* pivots.
            # Every flush round re-partitions the whole buffer (one pivot
            # bisect per message) — scrambled ingestion pays this far more
            # often per message than sorted ingestion, whose messages all
            # route to one child and leave in a single large batch.
            self.meter.charge("scan_entry", len(node.buffer))
            buckets: Dict[int, List[Message]] = {}
            for message in node.buffer:
                child_idx = bisect_right(node.keys, message.key)
                buckets.setdefault(child_idx, []).append(message)
            target = max(buckets, key=lambda idx: len(buckets[idx]))
            moving = buckets[target]
            moving_ids = set(map(id, moving))
            node.buffer = [m for m in node.buffer if id(m) not in moving_ids]
            self.messages_moved += len(moving)
            self.meter.charge("message_move", len(moving))
            if self.obs.enabled:
                self.obs.event(
                    "betree.buffer_flush", moved=len(moving), pending=len(node.buffer)
                )
            self.obs.observe_hist(
                "betree_messages_per_flush", len(moving), buckets=DEFAULT_SIZE_BUCKETS
            )

            child = node.children[target]
            self._touch(child)
            if child.is_leaf:
                child_splits = self._apply_messages_to_leaf(child, moving)
            else:
                child.buffer.extend(moving)
                child_splits = []
                if len(child.buffer) > capacity:
                    child_splits = self._flush_node(child)
            for sep, new_child in child_splits:
                idx = bisect_right(node.keys, sep)
                node.keys.insert(idx, sep)
                node.children.insert(idx + 1, new_child)
        return self._split_internal_if_needed(node)

    def _split_internal_if_needed(self, node: BeInternalNode) -> List[Tuple[int, object]]:
        """Split ``node`` while its pivots overflow; returns new siblings."""
        splits: List[Tuple[int, object]] = []
        max_pivots = self.config.max_pivots
        while len(node.keys) > max_pivots:
            self.internal_splits += 1
            self.meter.charge("internal_split")
            # The right sibling is peeled off and never re-enters this loop,
            # so it must receive at most ``max_pivots`` keys; the left part
            # (``node``) is re-checked on the next iteration.
            n_keys = len(node.keys)
            point = round(n_keys * self.config.split_factor)
            point = max(point, n_keys - 1 - max_pivots)
            point = max(1, min(point, n_keys - 1))
            promoted = node.keys[point]
            right = self._new_internal()
            right.keys = node.keys[point + 1 :]
            right.children = node.children[point + 1 :]
            del node.keys[point:]
            del node.children[point + 1 :]
            # Partition pending messages by the promoted key (stable).
            left_buffer: List[Message] = []
            right_buffer: List[Message] = []
            for message in node.buffer:
                if message.key < promoted:
                    left_buffer.append(message)
                else:
                    right_buffer.append(message)
            node.buffer = left_buffer
            right.buffer = right_buffer
            self.meter.charge("entry_move", len(right.keys) + len(right.buffer))
            splits.append((promoted, right))
        # Keep the sibling list sorted by separator (they already are: each
        # split peels the right end, so separators decrease; reverse them).
        splits.reverse()
        return splits

    def _apply_messages_to_leaf(
        self, leaf: LeafNode, messages: Sequence[Message]
    ) -> List[Tuple[int, object]]:
        """Apply messages in arrival order; returns (separator, new_leaf) splits."""
        for message in messages:
            idx = bisect_left(leaf.keys, message.key)
            present = idx < len(leaf.keys) and leaf.keys[idx] == message.key
            if message.op == PUT:
                if present:
                    leaf.values[idx] = message.value
                else:
                    leaf.keys.insert(idx, message.key)
                    leaf.values.insert(idx, message.value)
                    self.meter.charge("entry_move", len(leaf.keys) - idx)
            else:  # DELETE
                if present:
                    leaf.keys.pop(idx)
                    leaf.values.pop(idx)
                    self.meter.charge("entry_move", len(leaf.keys) - idx + 1)

        splits: List[Tuple[int, object]] = []
        capacity = self.config.leaf_capacity
        while len(leaf.keys) > capacity:
            self.leaf_splits += 1
            self.meter.charge("leaf_split")
            # The left node keeps ``point`` entries: cap it at the leaf
            # capacity — a large message batch can overfill a leaf by far
            # more than one entry, and only the right remainder re-enters
            # this loop.
            point = round(len(leaf.keys) * self.config.split_factor)
            point = max(1, min(point, len(leaf.keys) - 1, capacity))
            right = self._new_leaf()
            right.keys = leaf.keys[point:]
            right.values = leaf.values[point:]
            del leaf.keys[point:]
            del leaf.values[point:]
            self.meter.charge("entry_move", len(right.keys))
            right.next_leaf = leaf.next_leaf
            leaf.next_leaf = right
            if leaf is self._tail_leaf:
                self._tail_leaf = right
            splits.append((right.keys[0], right))
            leaf = right
        return splits

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load_append(self, items: Sequence[Tuple[int, object]]) -> None:
        """Append a sorted batch of strictly increasing keys > max_key.

        Builds leaves directly at ``bulk_fill_factor`` and threads pivots up
        the right spine. Pending PUTs route strictly left of the new pivots
        (bulk keys exceed every key stored); the only messages at or past
        the first bulk key are tombstones of absent keys, and they go.
        """
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
        self._ensure_root()
        # Message flushes and their cascading splits may have restructured
        # the right spine since the last bulk load; refresh the cached path.
        self._recompute_tail_path()
        # A pending message past max_key is a tombstone for a key never
        # stored. Reads meet it before the leaf, so it must not outlive the
        # newer bulk-loaded version of its key.
        first = items[0][0]
        for node in self._tail_path:
            if any(message.key >= first for message in node.buffer):
                node.buffer = [message for message in node.buffer if message.key < first]
        fill = max(1, int(self.config.leaf_capacity * self.config.bulk_fill_factor))
        self.meter.charge("bulk_entry", len(items))
        if self.obs.enabled:
            self.obs.event("betree.bulk_load", entries=len(items))
        self.obs.observe_hist(
            "betree_bulk_load_entries", len(items), buckets=DEFAULT_SIZE_BUCKETS
        )

        pos = 0
        total = len(items)
        tail = self._tail_leaf
        if len(tail.keys) < fill:
            take = min(fill - len(tail.keys), total)
            self._touch(tail)
            for key, value in items[pos : pos + take]:
                tail.keys.append(key)
                tail.values.append(value)
            pos += take
        while pos < total:
            take = min(fill, total - pos)
            leaf = self._new_leaf()
            for key, value in items[pos : pos + take]:
                leaf.keys.append(key)
                leaf.values.append(value)
            pos += take
            self._append_leaf(leaf)

        self.bulk_loaded_entries += total
        self._max_key = items[-1][0] if self._max_key is None else max(self._max_key, items[-1][0])
        if self._min_key is None:
            self._min_key = items[0][0]

    def _append_leaf(self, leaf: LeafNode) -> None:
        tail = self._tail_leaf
        leaf.next_leaf = tail.next_leaf
        tail.next_leaf = leaf
        self._tail_leaf = leaf
        if self._root is tail:
            new_root = self._new_internal()
            new_root.keys = [leaf.keys[0]]
            new_root.children = [tail, leaf]
            self._root = new_root
            self.height += 1
            self._recompute_tail_path()
            return
        parent = self._tail_path[-1]
        self._touch(parent)
        parent.keys.append(leaf.keys[0])
        parent.children.append(leaf)
        if len(parent.keys) > self.config.max_pivots:
            self._propagate_spine_split(len(self._tail_path) - 1)

    def _propagate_spine_split(self, level: int) -> None:
        """Split overflowing nodes upward along the cached right spine."""
        while level >= 0:
            node = self._tail_path[level]
            if len(node.keys) <= self.config.max_pivots:
                break
            splits = self._split_internal_if_needed(node)
            if level == 0:
                self._grow_root_with_spine(node, splits)
                return
            parent = self._tail_path[level - 1]
            self._touch(parent)
            for sep, new_node in splits:
                idx = bisect_right(parent.keys, sep)
                parent.keys.insert(idx, sep)
                parent.children.insert(idx + 1, new_node)
            level -= 1
        self._recompute_tail_path()

    def _grow_root_with_spine(self, old_root, splits: List[Tuple[int, object]]) -> None:
        new_root = self._new_internal()
        new_root.children = [old_root]
        for sep, node in splits:
            new_root.keys.append(sep)
            new_root.children.append(node)
        self._root = new_root
        self.height += 1
        self._recompute_tail_path()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[object]:
        """Point lookup resolving pending messages top-down."""
        if self._root is None:
            return None
        node = self._root
        while not node.is_leaf:
            self._touch(node)
            # Newest message for the key in this buffer is the last one.
            self.meter.charge("scan_entry", len(node.buffer))
            latest: Optional[Message] = None
            for message in node.buffer:
                if message.key == key:
                    latest = message
            if latest is not None:
                return latest.value if latest.op == PUT else None
            node = node.children[bisect_right(node.keys, key)]
        self._touch(node)
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        """All (key, value) with lo <= key <= hi, newest version wins."""
        if self._root is None or lo > hi:
            return []
        resolved: Dict[int, Message] = {}

        def collect(node, depth: int) -> None:
            if node.is_leaf:
                return
            self._touch(node)
            self.meter.charge("scan_entry", len(node.buffer))
            for message in node.buffer:
                if lo <= message.key <= hi:
                    existing = resolved.get(message.key)
                    # Nearer the root = newer; within a buffer later = newer.
                    if existing is None or depth < existing_depth[message.key] or (
                        depth == existing_depth[message.key] and message.seq > existing.seq
                    ):
                        resolved[message.key] = message
                        existing_depth[message.key] = depth
            left = bisect_right(node.keys, lo)
            right = bisect_right(node.keys, hi)
            for child in node.children[left : right + 1]:
                if not child.is_leaf:
                    collect(child, depth + 1)

        existing_depth: Dict[int, int] = {}
        collect(self._root, 0)

        # Leaf pass via the chain.
        results: Dict[int, object] = {}
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, lo)]
        self._touch(node)
        leaf = node
        while leaf is not None:
            keys = leaf.keys
            if keys:
                if keys[0] > hi:
                    break
                start = bisect_left(keys, lo)
                stop = bisect_right(keys, hi)
                self.meter.charge("scan_entry", max(stop - start, 0))
                for i in range(start, stop):
                    if keys[i] not in resolved:
                        results[keys[i]] = leaf.values[i]
                if stop < len(keys):
                    break
            leaf = leaf.next_leaf
            if leaf is not None:
                self._touch(leaf)
        for key, message in resolved.items():
            if message.op == PUT:
                results[key] = message.value
            else:
                results.pop(key, None)
        return sorted(results.items())

    def iter_items(self) -> Iterator[Tuple[int, object]]:
        """All live entries in key order (test/debug helper, uncharged)."""
        if self._root is None:
            return iter(())
        lo = self._min_key if self._min_key is not None else 0
        hi = self._max_key if self._max_key is not None else -1
        meter, self.meter = self.meter, NULL_METER
        try:
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

    def check_invariants(self) -> None:
        """Validate structure; raises InvariantViolation on any breach."""
        if self._root is None:
            return
        leaf_depths = set()
        capacity = self.config.buffer_capacity

        def recurse(node, depth: int, lo: Optional[int], hi: Optional[int]) -> None:
            if node.is_leaf:
                leaf_depths.add(depth)
                if len(node.keys) > self.config.leaf_capacity:
                    raise InvariantViolation(
                        f"leaf holds {len(node.keys)} > capacity {self.config.leaf_capacity}"
                    )
                for i in range(1, len(node.keys)):
                    if node.keys[i - 1] >= node.keys[i]:
                        raise InvariantViolation("leaf keys not strictly sorted")
                for key in node.keys:
                    if lo is not None and key < lo:
                        raise InvariantViolation(f"leaf key {key} below separator {lo}")
                    if hi is not None and key >= hi:
                        raise InvariantViolation(f"leaf key {key} at/above separator {hi}")
                return
            if len(node.children) != len(node.keys) + 1:
                raise InvariantViolation("internal child count mismatch")
            if len(node.keys) > self.config.max_pivots:
                raise InvariantViolation(
                    f"internal holds {len(node.keys)} > max_pivots {self.config.max_pivots}"
                )
            if len(node.buffer) > capacity:
                raise InvariantViolation("internal buffer above capacity at rest")
            for message in node.buffer:
                if lo is not None and message.key < lo:
                    raise InvariantViolation("buffered message below node range")
                if hi is not None and message.key >= hi:
                    raise InvariantViolation("buffered message above node range")
            for i in range(1, len(node.keys)):
                if node.keys[i - 1] >= node.keys[i]:
                    raise InvariantViolation("internal keys not strictly sorted")
            bounds = [lo] + list(node.keys) + [hi]
            for i, child in enumerate(node.children):
                recurse(child, depth + 1, bounds[i], bounds[i + 1])

        recurse(self._root, 1, None, None)
        if len(leaf_depths) > 1:
            raise InvariantViolation(f"leaves at multiple depths: {leaf_depths}")
