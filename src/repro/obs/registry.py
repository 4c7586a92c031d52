"""Metric primitives and the registry they live in.

The paper's evaluation is driven entirely by internal counters (§V); this
module gives those counters one home instead of three. A
:class:`MetricsRegistry` holds three metric kinds:

* :class:`Counter` — monotonically increasing totals (ops, flushes, splits);
* :class:`Gauge` — point-in-time values (buffer fill, resident pages);
* :class:`Histogram` — fixed-bucket distributions (per-op latency, flush
  sizes, sort costs) with percentile estimation (p50/p95/p99).

Existing stat carriers (:class:`~repro.core.stats.SWAREStats`, the
:class:`~repro.storage.costmodel.Meter`, bufferpool/tree counters) register
as *collectors*: callables polled at snapshot/export time, so hot paths keep
their cheap plain-attribute increments and the registry still sees every
value.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, Sequence, Tuple

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Coerce ``name`` into the Prometheus metric-name alphabet."""
    name = _NAME_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


#: Default latency buckets, in nanoseconds: ~250 ns up to 100 ms. Chosen so
#: both simulated costs (µs-scale structural work, 100 µs disk pages) and
#: wall-clock Python op latencies land in the resolved middle of the range.
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
    5_000_000.0,
    10_000_000.0,
    25_000_000.0,
    100_000_000.0,
)

#: Default size buckets (entries): flush batches, sort inputs, bulk loads.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
    1_024.0,
    4_096.0,
    16_384.0,
    65_536.0,
    262_144.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1


class Gauge:
    """The latest reading of a value that can go up and down."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram with Prometheus-compatible semantics.

    ``buckets`` are strictly increasing upper bounds; an implicit ``+Inf``
    bucket catches the overflow. ``observe`` is O(log buckets) via bisect.
    Percentiles are estimated by linear interpolation inside the bucket that
    crosses the target rank — the standard ``histogram_quantile`` estimate.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS):
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.bounds, self.counts):
            if running + n >= rank and n > 0:
                fraction = (rank - running) / n
                return lower + fraction * (bound - lower)
            running += n
            lower = bound
        # Overflow bucket: the best unbiased guess is the last finite bound.
        return self.bounds[-1]

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """A named collection of counters, gauges, histograms, and collectors."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, float]]] = {}

    # -- creation / lookup -------------------------------------------------
    def counter(self, name: str) -> Counter:
        name = sanitize_name(name)
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        name = sanitize_name(name)
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS
    ) -> Histogram:
        name = sanitize_name(name)
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    def register_collector(
        self, name: str, fn: Callable[[], Dict[str, float]]
    ) -> str:
        """Register a callable polled at snapshot time; returns its name.

        Multiple components of the same kind (e.g. two SWARE indexes in a
        comparison run) get deduplicated names: ``sware``, ``sware_2``, …
        """
        base = sanitize_name(name)
        unique = base
        suffix = 2
        while unique in self._collectors:
            unique = f"{base}_{suffix}"
            suffix += 1
        self._collectors[unique] = fn
        return unique

    # -- reading -----------------------------------------------------------
    def collect_gauges(self) -> Dict[str, float]:
        """Explicit gauges plus every numeric value the collectors report
        (one poll of each collector)."""
        out = {name: gauge.value for name, gauge in list(self._gauges.items())}
        for prefix, fn in list(self._collectors.items()):
            for key, value in fn().items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                out[sanitize_name(f"{prefix}_{key}")] = float(value)
        return out

    def snapshot(self) -> Dict[str, object]:
        """A snapshot of everything in the registry, builtin types only.

        The tables are copied before iterating, so a reader on another
        thread (the ``--top`` dashboard) may snapshot a registry that a
        running workload is still adding metrics to.
        """
        return {
            "counters": {n: c.value for n, c in list(self._counters.items())},
            "gauges": self.collect_gauges(),
            "histograms": {
                n: {
                    "buckets": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "mean": h.mean,
                    **h.percentiles(),
                }
                for n, h in list(self._histograms.items())
            },
        }
