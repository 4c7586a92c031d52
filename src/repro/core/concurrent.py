"""A thread-safe front-end for the sortedness-aware index (§IV-D).

:class:`ConcurrentSortednessAwareIndex` runs every public method of a
:class:`~repro.core.sware.SortednessAwareIndex` under one mutex. The paper
takes a buffer-wide lock for the flush check, page locks for appends and
shared locks for reads; here the buffer's Python structures need a latch
around every step anyway, and CPython runs one thread's bytecode at a time,
so page locks would let no two steps overlap (DESIGN.md §8). The mutex makes
each call atomic, so WAL order is apply order, which recovery replays; a
batch is one WAL frame; and a single-threaded run is the plain index's run:
same answers, stats, meter charges, monitor feed, spans and WAL bytes.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex, TreeBackend
from repro.storage.costmodel import Meter
from repro.storage.wal import WriteAheadLog


class ConcurrentSortednessAwareIndex:
    """See module docstring."""

    def __init__(
        self,
        backend: TreeBackend,
        config: Optional[SWAREConfig] = None,
        meter: Optional[Meter] = None,
        wal: Optional[WriteAheadLog] = None,
    ):
        self.inner = SortednessAwareIndex(backend, config, meter=meter, wal=wal)
        self._mutex = threading.Lock()

    # The inner index's state, read through the front-end.
    config = property(lambda self: self.inner.config)
    obs = property(lambda self: self.inner.obs)
    stats = property(lambda self: self.inner.stats)
    backend = property(lambda self: self.inner.backend)
    buffer = property(lambda self: self.inner.buffer)
    meter = property(lambda self: self.inner.meter)
    wal = property(lambda self: self.inner.wal)

    def insert(self, key: int, value: object) -> None:
        with self._mutex:
            self.inner.insert(key, value)

    def delete(self, key: int) -> None:
        with self._mutex:
            self.inner.delete(key)

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        with self._mutex:
            self.inner.put_many(items)

    def flush_all(self) -> None:
        with self._mutex:
            self.inner.flush_all()

    def checkpoint(self, store) -> int:
        """Checkpoint and WAL truncation as one cut: no write lands between."""
        with self._mutex:
            return self.inner.checkpoint(store)

    def get(self, key: int) -> Optional[object]:
        with self._mutex:
            return self.inner.get(key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        with self._mutex:
            return self.inner.get_many(keys)

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        with self._mutex:
            return self.inner.range_query(lo, hi)

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def items(self) -> List[Tuple[int, object]]:
        with self._mutex:
            return self.inner.items()

    def describe(self) -> dict:
        with self._mutex:
            return self.inner.describe()

    def check_invariants(self) -> None:
        """Structural invariants of the wrapped index."""
        with self._mutex:
            self.inner.buffer.check_invariants()
            getattr(self.inner.backend, "check_invariants", lambda: None)()
