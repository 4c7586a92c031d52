"""Operation accounting and the simulated cost clock.

The paper measures wall-clock latency of a C++ implementation on a Xeon
server. In pure Python, interpreter overhead dominates and masks the
*algorithmic* savings SWARE provides (fewer node accesses, fewer splits,
amortized sorting). Following DESIGN.md substitution #1, every structural
operation in this library is counted on a :class:`Meter`, and a
:class:`CostModel` converts the counts into simulated nanoseconds using
weights calibrated to commodity hardware. Benchmarks report simulated
latency (primary — it reproduces the paper's shape) alongside raw wall time.

Meters also support *buckets* — named phases such as ``"sort"`` or
``"top_insert"`` — which is how the Fig. 13 latency breakdowns are produced:
the SWARE wrapper brackets each phase with ``meter.bucket(name)`` and every
charge inside is attributed to that phase.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional

#: Default cost weights, in nanoseconds per operation. These approximate a
#: modern x86 server: an in-memory node access is a couple of cache misses
#: (~100 ns), a sort comparison including data movement ~6 ns, a Bloom-filter
#: probe a few hashes and cache lines (~25 ns), an SSD 4 KB page read/write
#: ~100 µs of device latency.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "node_access": 120.0,  # pivot search + cache misses while descending
    "leaf_split": 400.0,  # allocating + relinking a node, moving ~half a page
    "internal_split": 400.0,
    "entry_move": 3.0,  # shifting one slot within a node on insert
    "bulk_entry": 8.0,  # appending one entry during bulk load (amortized)
    "buffer_append": 10.0,  # SWARE-buffer append incl. zonemap update
    "bf_add": 15.0,
    "bf_probe": 20.0,
    "zonemap_check": 5.0,
    "scan_entry": 4.0,  # one key comparison during a page scan
    "interp_step": 15.0,  # one interpolation / binary probe
    "sort_comparison": 3.0,  # one comparison+move inside a sort of packed ints
    "merge_step": 4.0,  # one step of a k-way merge
    "message_move": 10.0,  # moving one message down a Be-tree level
    "run_write": 25.0,  # (re-)writing one entry into an LSM run, amortized
    "tombstone": 10.0,
    "disk_read": 100_000.0,  # 4 KB page from SSD
    "disk_write": 100_000.0,
}


class CostModel:
    """Maps operation kinds to simulated nanoseconds.

    Unknown kinds cost zero — that makes it safe to add new counters for
    purely statistical purposes without touching the model.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None):
        self.weights = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)

    def cost(self, kind: str, count: float = 1.0) -> float:
        return self.weights.get(kind, 0.0) * count

    def nanos(self, counts: Dict[str, float]) -> float:
        """Total simulated nanoseconds for a counter dictionary."""
        weights = self.weights
        return sum(weights.get(kind, 0.0) * n for kind, n in counts.items())


class Meter:
    """Accumulates operation counts, bucketed by the active phase.

    The meter is deliberately tolerant: any string is a valid kind, charges
    are additive, and ``bucket`` contexts nest (inner-most wins, matching how
    the paper attributes, e.g., the sort inside a flush to "sort" rather than
    "bulk load").
    """

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.bucket_counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._bucket_stack: list = []

    # -- charging ---------------------------------------------------------
    def charge(self, kind: str, count: float = 1.0) -> None:
        """Record ``count`` operations of ``kind`` in the active bucket."""
        self.counts[kind] += count
        if self._bucket_stack:
            self.bucket_counts[self._bucket_stack[-1]][kind] += count

    @contextmanager
    def bucket(self, name: str) -> Iterator[None]:
        """Attribute all charges inside to phase ``name``."""
        self._bucket_stack.append(name)
        try:
            yield
        finally:
            self._bucket_stack.pop()

    # -- reading ----------------------------------------------------------
    def nanos(self, model: CostModel) -> float:
        """Total simulated nanoseconds under ``model``."""
        return model.nanos(self.counts)

    def bucket_nanos(self, model: CostModel) -> Dict[str, float]:
        """Simulated nanoseconds per bucket."""
        return {name: model.nanos(counts) for name, counts in self.bucket_counts.items()}

    def snapshot(self) -> Dict[str, float]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()
        self.bucket_counts.clear()
        self._bucket_stack.clear()

    def merge(self, other: "Meter") -> "Meter":
        """Fold ``other``'s counts and buckets into this meter.

        Lets multi-phase runs aggregate per-phase meters without rebuilding
        the index between phases; returns ``self`` for chaining.
        """
        for kind, count in other.counts.items():
            self.counts[kind] += count
        for name, counts in other.bucket_counts.items():
            bucket = self.bucket_counts[name]
            for kind, count in counts.items():
                bucket[kind] += count
        return self

    def __getitem__(self, kind: str) -> float:
        return self.counts.get(kind, 0.0)


class _NullMeter(Meter):
    """A meter that forgets everything; used when accounting is disabled."""

    #: Shared, reentrant no-op context: a hot-path ``with`` builds no generator.
    _NULL_BUCKET = nullcontext()

    def charge(self, kind: str, count: float = 1.0) -> None:  # noqa: D102
        pass

    def bucket(self, name: str):  # noqa: D102
        return self._NULL_BUCKET


#: Shared no-op meter for callers that do not care about accounting.
NULL_METER = _NullMeter()
