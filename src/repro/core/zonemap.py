"""Zonemaps (small materialized aggregates [Moerkotte 1998]).

The SWARE-buffer keeps min/max Zonemaps at three granularities (§IV-A/B):

* one per buffer page of the unsorted section, used to (i) maintain the
  ``last_sorted_zone`` overlap test on every insert and (ii) skip page scans
  during point lookups;
* one for the whole buffer, so queries outside the buffered key range skip
  the buffer entirely;
* one for the tree (served by the tree's own min/max bookkeeping).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigError


class Zonemap:
    """A single min/max range that can absorb keys and answer overlap tests."""

    __slots__ = ("min_key", "max_key")

    def __init__(self) -> None:
        self.min_key: Optional[int] = None
        self.max_key: Optional[int] = None

    def update(self, key: int) -> None:
        if self.min_key is None or key < self.min_key:
            self.min_key = key
        if self.max_key is None or key > self.max_key:
            self.max_key = key

    def may_contain(self, key: int) -> bool:
        """False ⇒ the key is definitely outside this zone."""
        if self.min_key is None:
            return False
        return self.min_key <= key <= self.max_key

    def overlaps(self, lo: int, hi: int) -> bool:
        """Does [lo, hi] intersect this zone?"""
        if self.min_key is None:
            return False
        return not (hi < self.min_key or lo > self.max_key)

    def reset(self) -> None:
        self.min_key = None
        self.max_key = None

    @property
    def is_empty(self) -> bool:
        return self.min_key is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Zonemap[{self.min_key}, {self.max_key}]"


class PageZonemaps:
    """Per-page min/max maps over a dense append-only region.

    Page ``i`` covers positions ``[i * page_size, (i+1) * page_size)`` of
    the unsorted section. Appends update the map of the page the position
    falls in; the whole set resets when the section is frozen into a sorted
    block or flushed.
    """

    __slots__ = ("page_size", "_zones")

    def __init__(self, page_size: int):
        if page_size < 1:
            raise ConfigError("page_size must be >= 1")
        self.page_size = page_size
        self._zones: List[Zonemap] = []

    def observe(self, position: int, key: int) -> None:
        """Record that ``key`` was appended at ``position``."""
        page = position // self.page_size
        while len(self._zones) <= page:
            self._zones.append(Zonemap())
        self._zones[page].update(key)

    def observe_many(self, start: int, keys: Sequence[int]) -> None:
        """Record a contiguous append of ``keys`` beginning at ``start``.

        Equivalent to calling :meth:`observe` position by position, but each
        page absorbs its slice through one min/max pass.
        """
        page_size = self.page_size
        zones = self._zones
        idx = 0
        n = len(keys)
        position = start
        while idx < n:
            page = position // page_size
            take = min(n - idx, (page + 1) * page_size - position)
            while len(zones) <= page:
                zones.append(Zonemap())
            zone = zones[page]
            chunk = keys[idx : idx + take]
            lo = min(chunk)
            hi = max(chunk)
            if zone.min_key is None or lo < zone.min_key:
                zone.min_key = lo
            if zone.max_key is None or hi > zone.max_key:
                zone.max_key = hi
            idx += take
            position += take

    def page_may_contain(self, page: int, key: int) -> bool:
        if page >= len(self._zones):
            return False
        return self._zones[page].may_contain(key)

    def reset(self) -> None:
        self._zones.clear()
