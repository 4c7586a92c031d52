"""B+-tree node structures.

:class:`GappedLeaf` / :class:`GappedInternal` are the nodes of
:class:`~repro.btree.BPlusTree`. Each models a fixed-capacity page of
``capacity + 1`` slots — ``n`` live ones plus the gaps an insert can fill
(the spare slot lets one insert overflow before the split) — and holds its
live keys in ``ks``, a sorted list of Python ints. Scalar search is
:mod:`bisect` on that list and mutation is ``list.insert`` / ``del`` /
``extend`` / slicing, in the node. One call into numpy costs several times
a ``bisect`` on a node this size (DESIGN.md §12), so no node search or
mutation goes through :mod:`repro.kernels`. Values and child pointers are
parallel lists: a leaf has ``len(vs) == n`` and a ``next_leaf`` link
(leaves form a singly linked chain for range scans); an internal node holds
``len(children) == n + 1`` with the usual separator convention — child
``i`` covers keys < pivot ``i``, child ``i+1`` covers keys >= pivot ``i``.
``keys`` / ``values`` return copies, so serialization, invariant checks and
debugging code can walk nodes without touching their lists.

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

from typing import List, Optional


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
    """Leaf with sorted key and value lists (``len(ks) == len(vs) == n``)."""

    __slots__ = ("page_id", "ks", "vs", "n", "next_leaf")

    is_leaf = True

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.ks: List[int] = []
        self.vs: List[object] = []
        self.n = 0
        self.next_leaf: Optional["GappedLeaf"] = None

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GappedLeaf(page={self.page_id}, n={self.n}, keys={self.ks[:4]}...)"

    # -- uniform read surface (serialization, invariants, debugging) --
    @property
    def keys(self) -> List[int]:
        return list(self.ks)

    @property
    def values(self) -> List[object]:
        return list(self.vs)

    def first_key(self) -> int:
        return self.ks[0]

    def last_key(self) -> int:
        return self.ks[-1]

    def iter_live(self):
        return zip(self.ks, self.vs)

    # -- mutation --
    def delete_at(self, idx: int) -> None:
        del self.ks[idx]
        del self.vs[idx]
        self.n -= 1

    def extend(self, chunk_keys: List[int], chunk_values: List[object]) -> None:
        """Bulk-append pre-sorted keys/values past the current ones."""
        self.ks.extend(chunk_keys)
        self.vs.extend(chunk_values)
        self.n += len(chunk_values)

    def adopt(self, keys: List[int], values: List[object]) -> None:
        """Take ownership of new key and value lists (the whole content)."""
        self.ks = keys
        self.vs = values
        self.n = len(values)

    def split_into(self, right: "GappedLeaf", split: int) -> None:
        """Move slots ``[split:n]`` into ``right`` and truncate this leaf."""
        right.adopt(self.ks[split:], self.vs[split:])
        del self.ks[split:]
        del self.vs[split:]
        self.n = split


class GappedInternal:
    """Internal node with a sorted pivot list and a child list.

    ``len(children) == n + 1``; pivot ``i`` separates ``children[i]`` from
    ``children[i + 1]`` (``bisect_right`` convention: a key equal to the
    pivot routes right).
    """

    __slots__ = ("page_id", "ks", "children", "n")

    is_leaf = False

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.ks: List[int] = []
        self.children: List[object] = []
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GappedInternal(page={self.page_id}, n_keys={self.n})"

    @property
    def keys(self) -> List[int]:
        return list(self.ks)

    # -- mutation --
    def insert_pivot(self, idx: int, key: int, child: object) -> None:
        """Insert separator ``key`` at ``idx`` with ``child`` to its right."""
        self.ks.insert(idx, key)
        self.children.insert(idx + 1, child)
        self.n += 1

    def split_into(self, right: "GappedInternal", split: int) -> int:
        """Split around pivot ``split``; returns the promoted separator."""
        ks = self.ks
        promoted = ks[split]
        right.ks = ks[split + 1 :]
        right.children = self.children[split + 1 :]
        right.n = self.n - split - 1
        del ks[split:]
        del self.children[split + 1 :]
        self.n = split
        return promoted
