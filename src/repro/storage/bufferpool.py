"""Simulated pager and bufferpool for the on-disk experiments (§V-E).

The paper's trees sit on a 4 KB-page bufferpool; the in-memory experiments
give it 300 GB (everything resident) while §V-E shrinks it to ~1% of the
data so only internal nodes stay cached. We reproduce that with a page-level
LRU bufferpool that *simulates* the device: a miss charges ``disk_read`` on
the meter, evicting a dirty frame charges ``disk_write``. No bytes actually
move — the trees keep their Python object nodes — but the I/O counts (and
therefore the simulated latency) follow exactly the access pattern a paged
implementation would produce.

Only tree nodes are paged through the pool. The SWARE buffer, which §IV-A
pins in the system's bufferpool, lives outside it, so no frame is ever
pinned and the eviction victim is always the least recently used frame.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.obs import NULL_OBS, current_obs
from repro.storage.costmodel import NULL_METER, Meter


class PageIdAllocator:
    """Monotonically increasing page-id source shared by an index's nodes."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        page_id = self._next
        self._next += 1
        return page_id


@dataclass
class Frame:
    """Bookkeeping for one resident page."""

    page_id: int
    dirty: bool = False


class BufferPool:
    """An LRU bufferpool over simulated pages.

    Parameters
    ----------
    capacity:
        Number of page frames. ``None`` (or 0) means unbounded — the
        in-memory configuration where nothing ever misses after creation.
    meter:
        Cost meter charged with ``disk_read`` / ``disk_write``.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        meter: Optional[Meter] = None,
    ):
        if capacity is not None and capacity < 0:
            raise ConfigError("capacity must be >= 0 or None")
        self.capacity = capacity or None
        self.meter = meter if meter is not None else NULL_METER
        self.obs = current_obs()
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_reads = 0
        self.disk_writes = 0
        if self.obs is not NULL_OBS:
            self.obs.register_collector("bufferpool", self.stats)

    @property
    def resident(self) -> int:
        return len(self._frames)

    # -- core protocol -------------------------------------------------------
    def access(self, page_id: int, dirty: bool = False) -> bool:
        """Touch ``page_id``; returns True on a hit.

        A miss simulates reading the page from disk and may evict the LRU
        frame (writing it back first if dirty).
        """
        frame = self._frames.get(page_id)
        if frame is not None:
            self.hits += 1
            frame.dirty = frame.dirty or dirty
            self._frames.move_to_end(page_id)
            return True
        self.misses += 1
        self.disk_reads += 1
        self.meter.charge("disk_read")
        self._admit(Frame(page_id=page_id, dirty=dirty))
        return False

    def create(self, page_id: int) -> None:
        """Register a freshly allocated page (born dirty, no read needed)."""
        if page_id in self._frames:
            frame = self._frames[page_id]
            frame.dirty = True
            self._frames.move_to_end(page_id)
            return
        self._admit(Frame(page_id=page_id, dirty=True))

    def flush_all(self) -> int:
        """Write back every dirty frame; returns the number written."""
        written = 0
        for frame in self._frames.values():
            if frame.dirty:
                frame.dirty = False
                written += 1
        self.disk_writes += written
        if written:
            self.meter.charge("disk_write", written)
        return written

    # -- internals ------------------------------------------------------------
    def _admit(self, frame: Frame) -> None:
        if self.capacity is not None:
            while len(self._frames) >= self.capacity:
                self._evict_one()
        self._frames[frame.page_id] = frame

    def _evict_one(self) -> None:
        page_id, frame = self._frames.popitem(last=False)
        if frame.dirty:
            self.disk_writes += 1
            self.meter.charge("disk_write")
        self.evictions += 1
        if self.obs.enabled:
            self.obs.event("pool.evict", page=page_id, dirty=frame.dirty)

    # -- reporting --------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "resident": self.resident,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "hit_rate": self.hit_rate,
        }
