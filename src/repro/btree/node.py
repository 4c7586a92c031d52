"""B+-tree node structures: the gapped array layout.

:class:`GappedLeaf` / :class:`GappedInternal` are the nodes of
:class:`~repro.btree.BPlusTree` — the BS-tree direction. Keys live in a
fixed-capacity *store* obtained from :func:`repro.kernels.gapped_key_store`:
a dense sorted prefix of ``n`` live slots followed by sentinel-marked gaps
(``kernels.GAP_SENTINEL`` == INT64_MAX, so a sentinel-padded int64 array is
sorted end to end and ``searchsorted`` needs no explicit bound — the
shifted-sentinel trick). Under the numpy kernel backend the store is an
int64 ndarray and intra-node search is a branchless ``searchsorted``; under
the pure-Python backend it is a plain list. Keys that cannot be represented
as a non-sentinel int64 demote a store to a list transparently — mutation
kernels return the (possibly demoted) store and the node re-binds it.
Values and child pointers stay dense Python lists; only the key columns are
vectorized. A leaf carries a ``next_leaf`` link (leaves form a singly
linked chain for range scans); an internal node holds
``len(children) == n + 1`` with the usual separator convention — child
``i`` covers keys < pivot ``i``, child ``i+1`` covers keys >= pivot ``i``.
The gapped nodes expose ``keys``/``values``/``children`` (``keys`` and
``values`` as properties materializing the live prefix) so serialization,
invariant checks and debugging code can walk them without knowing the store.

:class:`LeafNode` / :class:`InternalNode` are plain list-packed nodes
(parallel ``keys``/``values`` lists, same separator convention). The
B+-tree does not use them; they live here because the Bε-tree is built on
them — :class:`~repro.betree.BeTree` stores its entries in
:class:`LeafNode` and :class:`~repro.betree.BeInternalNode` subclasses
:class:`InternalNode`.

Every node carries a ``page_id`` so the simulated bufferpool can treat it as
a 4 KB page (§V-E of the paper).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional

from repro import kernels

#: Sentinel marking a gap slot in an array-backed key store (INT64_MAX).
KEY_SENTINEL = kernels.GAP_SENTINEL


class LeafNode:
    __slots__ = ("page_id", "keys", "values", "next_leaf")

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.keys: List[int] = []
        self.values: List[object] = []
        self.next_leaf: Optional["LeafNode"] = None

    @property
    def is_leaf(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = self.keys[:4]
        return f"LeafNode(page={self.page_id}, n={len(self.keys)}, keys={head}...)"


class InternalNode:
    __slots__ = ("page_id", "keys", "children")

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.keys: List[int] = []
        self.children: List[object] = []

    @property
    def is_leaf(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InternalNode(page={self.page_id}, n_keys={len(self.keys)})"


class GappedLeaf:
    """Leaf with a gapped key store and a dense Python value list.

    ``ks`` is the backend-native key store (``n`` live slots, then gaps),
    ``vs`` the parallel dense value list (``len(vs) == n`` always). The
    physical store holds ``capacity + 1`` slots so one insert may overflow
    transiently before the tree splits the node.
    """

    __slots__ = ("page_id", "ks", "vs", "n", "next_leaf")

    is_leaf = True

    def __init__(self, page_id: int, physical: int):
        self.page_id = page_id
        self.ks = kernels.gapped_key_store((), physical)
        self.vs: List[object] = []
        self.n = 0
        self.next_leaf: Optional["GappedLeaf"] = None

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = kernels.store_keys(self.ks, min(self.n, 4))
        return f"GappedLeaf(page={self.page_id}, n={self.n}, keys={head}...)"

    # -- uniform read surface (serialization, invariants, debugging) --
    @property
    def keys(self) -> List[int]:
        return kernels.store_keys(self.ks, self.n)

    @property
    def values(self) -> List[object]:
        return list(self.vs)

    def key_at(self, idx: int) -> int:
        return int(self.ks[idx])

    def first_key(self) -> int:
        return int(self.ks[0])

    def last_key(self) -> int:
        return int(self.ks[self.n - 1])

    def iter_live(self):
        return self.live_items(0, self.n)

    def live_items(self, start: int, stop: int):
        """``(key, value)`` pairs of slots ``[start:stop]``, keys unboxed by
        one ``tolist()`` of the slice instead of one ``int()`` per row."""
        ks = self.ks[start:stop]
        if type(ks) is not list:
            ks = ks.tolist()
        return zip(ks, self.vs[start:stop])

    # -- search (scalar: the node calls its store directly; kernels are
    # batch primitives and a per-key dispatch is pure overhead) --
    def search_left(self, key: int) -> int:
        ks = self.ks
        if type(ks) is list:
            return bisect_left(ks, key)
        # Sentinel padding keeps the whole buffer sorted, so no hi bound is
        # needed; min() folds a sentinel-valued probe back into the live prefix.
        return min(int(ks.searchsorted(key)), self.n)

    def range_bounds(self, lo: int, hi: int):
        """``(bisect_left(lo), bisect_right(hi))`` over the live prefix."""
        ks = self.ks
        if type(ks) is list:
            return bisect_left(ks, lo), bisect_right(ks, hi)
        n = self.n
        return (
            min(int(ks.searchsorted(lo)), n),
            min(int(ks.searchsorted(hi, "right")), n),
        )

    def has_key_at(self, idx: int, key: int) -> bool:
        return idx < self.n and self.ks[idx] == key

    # -- mutation (store kernels may demote the store; always re-bind) --
    def insert_at(self, idx: int, key: int, value: object) -> None:
        ks = self.ks
        if type(ks) is list:
            ks.insert(idx, key)
        else:
            self.ks = kernels.node_insert_key(ks, self.n, idx, key)
        self.vs.insert(idx, value)
        self.n += 1

    def set_value(self, idx: int, value: object) -> None:
        self.vs[idx] = value

    def delete_at(self, idx: int) -> None:
        self.ks = kernels.node_delete_key(self.ks, self.n, idx)
        del self.vs[idx]
        self.n -= 1

    def extend(self, chunk_keys, chunk_values: List[object]) -> None:
        """Bulk-append pre-sorted keys/values past the current prefix."""
        self.ks = kernels.store_extend(self.ks, self.n, chunk_keys)
        self.vs.extend(chunk_values)
        self.n += len(chunk_values)

    def replace(self, keys, values: List[object], physical: int) -> None:
        """Rewrite the whole leaf content (merge-absorb / fission)."""
        self.ks = kernels.gapped_key_store(keys, physical)
        self.vs = values
        self.n = len(values)

    def adopt(self, store, values: List[object]) -> None:
        """Take ownership of a pre-built store and dense value list."""
        self.ks = store
        self.vs = values
        self.n = len(values)

    def split_into(self, right: "GappedLeaf", split: int, physical: int) -> None:
        """Move slots ``[split:n]`` into ``right`` and truncate this leaf."""
        n = self.n
        right.ks = kernels.gapped_key_store(self.ks[split:n], physical)
        right.vs = self.vs[split:]
        right.n = n - split
        self.ks = kernels.store_truncate(self.ks, n, split)
        del self.vs[split:]
        self.n = split


class GappedInternal:
    """Internal node with a gapped pivot store and dense child list.

    ``len(children) == n + 1``; pivot ``i`` separates ``children[i]`` from
    ``children[i + 1]`` (``bisect_right`` convention: a key equal to the
    pivot routes right).
    """

    __slots__ = ("page_id", "ks", "children", "n")

    is_leaf = False

    def __init__(self, page_id: int, physical: int):
        self.page_id = page_id
        self.ks = kernels.gapped_key_store((), physical)
        self.children: List[object] = []
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GappedInternal(page={self.page_id}, n_keys={self.n})"

    @property
    def keys(self) -> List[int]:
        return kernels.store_keys(self.ks, self.n)

    def key_at(self, idx: int) -> int:
        return int(self.ks[idx])

    # -- search --
    def child_index(self, key: int) -> int:
        ks = self.ks
        if type(ks) is list:
            return bisect_right(ks, key)
        return min(int(ks.searchsorted(key, "right")), self.n)

    def child_for(self, key: int):
        return self.children[self.child_index(key)]

    # -- mutation --
    def insert_pivot(self, idx: int, key: int, child: object) -> None:
        """Insert separator ``key`` at ``idx`` with ``child`` to its right."""
        self.ks = kernels.node_insert_key(self.ks, self.n, idx, key)
        self.children.insert(idx + 1, child)
        self.n += 1

    def split_into(self, right: "GappedInternal", split: int, physical: int) -> int:
        """Split around pivot ``split``; returns the promoted separator."""
        n = self.n
        promoted = int(self.ks[split])
        right.ks = kernels.gapped_key_store(self.ks[split + 1 : n], physical)
        right.children = self.children[split + 1 :]
        right.n = n - split - 1
        self.ks = kernels.store_truncate(self.ks, n, split)
        del self.children[split + 1 :]
        self.n = split
        return promoted
