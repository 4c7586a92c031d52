"""Ring-buffered structured event tracing with causal identity.

A :class:`Tracer` records :class:`TraceEvent` rows — point events and spans
(begin/end with duration) — into a bounded ring so long runs cannot grow
memory without bound. Span nesting mirrors
:meth:`repro.storage.costmodel.Meter.bucket`: a flush cycle is a span, the
KL-sort inside it is a deeper span, Bloom skips inside a lookup are point
events at the current depth.

Since obs v2, every recorded row also carries *causal identity*:

* ``span_id`` — unique per span (point events get none);
* ``parent_id`` — the span open on the same thread when this row was
  recorded, so a flush cycle's sorts, routing decisions, WAL appends and
  backend bulk loads all chain back to the operation that triggered them;
* ``trace_id`` — the identity of the whole causal tree. A span that opens
  with no parent (a top-level ``put_many``, a lookup, a checkpoint) starts
  a fresh trace; everything nested under it inherits the id;
* ``tid`` — a small per-tracer thread number (``threading.get_ident``
  values are large and unstable; a dense mapping renders better in trace
  viewers), recorded so each thread of a multi-threaded run (the callers
  of the thread-safe front-end, say) renders as its own row.

Nesting state is thread-local: two threads flushing concurrently build two
independent, correctly-parented trees. The ring buffer itself is shared and
guarded by a small lock (enabled tracing only; see below).

Disabled tracing (the default) must cost nothing measurable on hot paths:
``event`` returns after one attribute test, and ``span`` hands back a shared
no-op context manager instead of allocating anything.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


@dataclass
class TraceEvent:
    """One traced occurrence; ``dur_ns`` is None for point events."""

    name: str
    t_ns: int
    depth: int
    dur_ns: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    tid: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name, "t_ns": self.t_ns, "depth": self.depth}
        if self.dur_ns is not None:
            out["dur_ns"] = self.dur_ns
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        for key in ("trace_id", "span_id", "parent_id", "tid"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class _ThreadState:
    """Per-thread nesting state: the stack of open span ids + trace id."""

    __slots__ = ("stack", "trace_id")

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.trace_id: Optional[int] = None


class _Span:
    """A live span: records its duration, identity and attributes on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_span_id", "_parent_id", "_trace_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0
        self._span_id = 0
        self._parent_id: Optional[int] = None
        self._trace_id: Optional[int] = None

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        state = tracer._thread_state()
        self._span_id = next(tracer._ids)
        if state.stack:
            self._parent_id = state.stack[-1]
            self._trace_id = state.trace_id
        else:
            # A parentless span roots a fresh causal tree.
            self._parent_id = None
            self._trace_id = state.trace_id = next(tracer._ids)
        state.stack.append(self._span_id)
        self._start = tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        now = tracer._clock()
        state = tracer._thread_state()
        if state.stack and state.stack[-1] == self._span_id:
            state.stack.pop()
        if not state.stack:
            state.trace_id = None
        tracer._record(
            TraceEvent(
                name=self.name,
                t_ns=self._start,
                depth=len(state.stack),
                dur_ns=now - self._start,
                attrs=self.attrs,
                trace_id=self._trace_id,
                span_id=self._span_id,
                parent_id=self._parent_id,
                tid=tracer._tid(),
            )
        )


class Tracer:
    """See module docstring."""

    def __init__(self, capacity: int = 8192, enabled: bool = False, clock=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter_ns
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._tids: Dict[int, int] = {}
        self.dropped = 0
        self.recorded = 0

    # -- identity ----------------------------------------------------------
    def _thread_state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
        return state

    def _tid(self) -> int:
        """Dense thread number for the calling thread (1, 2, ...)."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids) + 1)
        return tid

    # -- control -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self.recorded = 0
        state = self._thread_state()
        state.stack.clear()
        state.trace_id = None

    # -- recording ---------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
            self.recorded += 1

    def event(self, name: str, **attrs) -> None:
        """Record a point event (no-op while disabled)."""
        if not self.enabled:
            return
        state = self._thread_state()
        self._record(
            TraceEvent(
                name=name,
                t_ns=self._clock(),
                depth=len(state.stack),
                attrs=attrs,
                trace_id=state.trace_id,
                parent_id=state.stack[-1] if state.stack else None,
                tid=self._tid(),
            )
        )

    def span(self, name: str, **attrs):
        """A context manager timing a phase; nests like ``Meter.bucket``."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs)

    # -- reading -----------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    def snapshot(self) -> Dict[str, object]:
        """Ring-buffer accounting: the ``trace`` section of an observability snapshot.

        ``truncated`` is the headline flag: when True, ``dropped`` earlier
        events were evicted by the ring and any analysis over the retained
        window is biased toward the end of the run.
        """
        return {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "truncated": self.dropped > 0,
        }

    def __len__(self) -> int:
        return len(self._events)
