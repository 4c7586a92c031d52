"""``repro.obs`` — the unified observability layer.

One :class:`Observability` object bundles the two measurement surfaces every
component shares:

* a :class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms, and collectors that poll ``SWAREStats`` /
  ``Meter`` / bufferpool counters at export time);
* a :class:`~repro.obs.tracer.Tracer` (ring-buffered structured events and
  nested spans — causally linked since obs v2 — for flush cycles, sorts,
  bulk-load/top-insert routing, filter skips, and evictions).

An optional surface rides along when asked for: ``monitors``, a
:class:`~repro.obs.monitors.MonitorHub` of streaming estimators (windowed
sortedness drift, buffer saturation, Bloom FPR, fsync latency) that the
health rules (``repro observe --doctor``) evaluate.

Every view reads one shape, :meth:`Observability.snapshot`'s ``{metrics,
monitors, trace}`` dict of builtin types: ``repro observe`` builds it in
process (``--scenario``) or fetches it from a running server's STATS reply
(``--connect``), and the doctor, the dashboard and the Prometheus exporter
all take that dict.

Components accept an ``obs`` keyword; when omitted they pick up the
*active* observability installed by :func:`observe` (how ``repro observe``
and the bench runner instrument whole runs without threading a parameter
through every factory), falling back to the shared :data:`NULL_OBS`, whose
methods are no-ops, so uninstrumented hot paths stay at their previous
cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_NS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.monitors import HealthFinding, MonitorHub
from repro.obs.profiler import SamplingProfiler
from repro.obs.tracer import NULL_SPAN, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "HealthFinding",
    "Histogram",
    "MetricsRegistry",
    "MonitorHub",
    "SamplingProfiler",
    "Tracer",
    "TraceEvent",
    "Observability",
    "NULL_OBS",
    "current_obs",
    "observe",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "DEFAULT_SIZE_BUCKETS",
]


class Observability:
    """Registry + tracer, plus the optional monitor hub."""

    def __init__(
        self,
        trace: bool = False,
        trace_capacity: int = 8192,
        monitors: bool = False,
    ):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(capacity=trace_capacity, enabled=trace)
        #: Streaming monitor hub, or None when monitors are off (components
        #: gate on ``obs.monitors is not None`` once per batch entry point).
        self.monitors: Optional[MonitorHub] = MonitorHub() if monitors else None

    # -- tracing -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when event tracing is on (hot paths gate on this)."""
        return self.tracer.enabled

    def event(self, name: str, **attrs) -> None:
        self.tracer.event(name, **attrs)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    # -- metrics -----------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def observe_hist(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS,
    ) -> None:
        self.registry.histogram(name, buckets=buckets).observe(value)

    def register_collector(self, name: str, fn: Callable[[], Dict[str, float]]) -> str:
        return self.registry.register_collector(name, fn)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The one shape every view reads: ``{metrics, monitors, trace}``.

        Builtin types only (it crosses the socket as the STATS reply's
        ``obs`` key), and each collector is polled exactly once per call.
        ``monitors`` is empty when the hub is off.
        """
        return {
            "metrics": self.registry.snapshot(),
            "monitors": self.monitors.snapshot() if self.monitors is not None else {},
            "trace": self.tracer.snapshot(),
        }


class _NullObservability(Observability):
    """The do-nothing observability every component defaults to.

    Methods are overridden (not just gated) so a disabled hot path pays one
    no-op call at flush-granularity sites and a single ``.enabled`` check at
    per-op sites: a class attribute, one load.
    """

    enabled = False  # type: ignore[assignment]

    def __init__(self) -> None:  # no registry/tracer allocation
        self.registry = None  # type: ignore[assignment]
        self.tracer = None  # type: ignore[assignment]
        self.monitors = None

    def event(self, name: str, **attrs) -> None:
        return None

    def span(self, name: str, **attrs):
        return NULL_SPAN

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe_hist(self, name: str, value: float, buckets=DEFAULT_LATENCY_BUCKETS_NS) -> None:
        return None

    def register_collector(self, name: str, fn) -> str:
        return name

    def snapshot(self) -> Dict[str, object]:
        return {"metrics": {}, "monitors": {}, "trace": {}}


NULL_OBS = _NullObservability()

#: Stack of active Observability objects (innermost last).
_ACTIVE: List[Observability] = []


def current_obs() -> Observability:
    """The innermost active observability, or :data:`NULL_OBS`."""
    return _ACTIVE[-1] if _ACTIVE else NULL_OBS


@contextmanager
def observe(obs: Observability) -> Iterator[Observability]:
    """Install ``obs`` as the active observability for the dynamic extent."""
    _ACTIVE.append(obs)
    try:
        yield obs
    finally:
        _ACTIVE.pop()
