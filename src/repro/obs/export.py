"""Exporters: Prometheus text exposition and trace views.

The Prometheus exporter works from the *snapshot* form (plain dicts), so the
``metrics`` section of a snapshot read off a running server's STATS reply
renders exactly like an in-process registry (``repro observe --prom``).

Trace rendering has two shapes: the human timeline (:func:`render_trace`)
and the Chrome trace-event / Perfetto JSON form (:func:`to_perfetto`),
loadable in ``chrome://tracing`` or https://ui.perfetto.dev. The Perfetto
document maps spans to complete (``"ph": "X"``) events and point events to
instants, keyed by the tracer's dense thread ids, with the causal ids
(trace/span/parent) carried in ``args`` so a flush cycle's full tree is
inspectable in a real viewer.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.obs.registry import sanitize_name
from repro.obs.tracer import TraceEvent, Tracer


def _fmt_value(value: float) -> str:
    if math.isnan(value):
        # Prometheus spells the not-a-number literal "NaN"; repr() would
        # emit "nan", which some scrapers reject.
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def snapshot_to_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Metric names are sanitized into the legal charset on the way out (a
    hand-built snapshot may carry dots or dashes that a live
    registry would have rejected at creation time), every metric gets a
    ``# HELP`` line (a description generated from its name and kind), and
    non-finite values are spelled per the exposition format (``NaN`` /
    ``+Inf`` / ``-Inf``).
    """

    def emit_header(lines: List[str], full: str, name: str, kind: str) -> None:
        lines.append(f"# HELP {full} {name.replace('_', ' ')} ({kind})")
        lines.append(f"# TYPE {full} {kind}")

    lines: List[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        full = f"repro_{sanitize_name(name)}"
        emit_header(lines, full, name, "counter")
        lines.append(f"{full} {_fmt_value(float(value))}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        full = f"repro_{sanitize_name(name)}"
        emit_header(lines, full, name, "gauge")
        lines.append(f"{full} {_fmt_value(float(value))}")
    for name, data in sorted((snapshot.get("histograms") or {}).items()):
        full = f"repro_{sanitize_name(name)}"
        emit_header(lines, full, name, "histogram")
        running = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            running += count
            lines.append(f'{full}_bucket{{le="{_fmt_value(float(bound))}"}} {running}')
        total = running + data["counts"][len(data["buckets"])]
        lines.append(f'{full}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{full}_sum {_fmt_value(float(data['sum']))}")
        lines.append(f"{full}_count {total}")
    return "\n".join(lines) + "\n"


def _fmt_attrs(attrs: Dict[str, object]) -> str:
    return " ".join(f"{k}={v}" for k, v in attrs.items())


def render_trace(tracer: Tracer, limit: Optional[int] = None) -> str:
    """A human timeline: relative ms, indented by span depth.

    Spans are recorded at exit, so the buffer is already in end-time order;
    indentation (two spaces per depth) restores the nesting visually. A
    nonzero drop count is always surfaced — silently rendering a truncated
    window would bias any analysis toward the end of the run.
    """
    rows = tracer.events()
    if limit is not None:
        rows = rows[-limit:]
    if not rows:
        if tracer.dropped:
            return (
                "(no trace events retained; "
                f"{tracer.dropped} dropped by the ring buffer)\n"
            )
        return "(no trace events recorded)\n"
    t0 = min(event.t_ns for event in rows)
    lines = []
    for event in rows:
        rel_ms = (event.t_ns - t0) / 1e6
        indent = "  " * event.depth
        dur = f" [{event.dur_ns / 1e6:.3f} ms]" if event.dur_ns is not None else ""
        attrs = f"  {_fmt_attrs(event.attrs)}" if event.attrs else ""
        lines.append(f"{rel_ms:10.3f} ms  {indent}{event.name}{dur}{attrs}")
    if tracer.dropped:
        lines.append(
            f"WARNING: trace truncated — {tracer.dropped} earlier events "
            f"dropped by the ring buffer (capacity {tracer.capacity})"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ---------------------------------------------------------------------------

PERFETTO_PID = 1


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def to_perfetto(
    events: Iterable[TraceEvent],
    tracer: Optional[Tracer] = None,
) -> Dict[str, object]:
    """Convert trace events into a Chrome trace-event (JSON object) document.

    Spans become complete events (``ph: "X"`` with microsecond ``ts``/``dur``
    relative to the earliest retained event); point events become thread
    instants (``ph: "i"``, ``s: "t"``). Causal ids land in ``args`` under
    ``trace_id``/``span_id``/``parent_id``; metadata events name the process
    and each tracer thread so multi-threaded runs render as separate rows.
    """
    rows = list(events)
    trace_events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PERFETTO_PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    tids = sorted({event.tid for event in rows if event.tid is not None})
    for tid in tids:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PERFETTO_PID,
                "tid": tid,
                "args": {"name": f"tracer-thread-{tid}"},
            }
        )
    t0 = min((event.t_ns for event in rows), default=0)
    for event in rows:
        args: Dict[str, object] = {
            key: _json_safe(value) for key, value in event.attrs.items()
        }
        for key in ("trace_id", "span_id", "parent_id"):
            value = getattr(event, key)
            if value is not None:
                args[key] = value
        row: Dict[str, object] = {
            "name": event.name,
            "cat": event.name.split(".", 1)[0],
            "pid": PERFETTO_PID,
            "tid": event.tid if event.tid is not None else 0,
            "ts": (event.t_ns - t0) / 1e3,
            "args": args,
        }
        if event.dur_ns is not None:
            row["ph"] = "X"
            row["dur"] = event.dur_ns / 1e3
        else:
            row["ph"] = "i"
            row["s"] = "t"
        trace_events.append(row)
    doc: Dict[str, object] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.obs.export"},
    }
    if tracer is not None:
        doc["otherData"]["trace"] = tracer.snapshot()  # type: ignore[index]
    return doc


_PERFETTO_PHASES = {"X", "i", "M", "B", "E"}


def validate_perfetto(doc: object) -> List[str]:
    """Schema check for the trace-event JSON form (empty list means valid).

    Mirrors what the Perfetto/Chrome importers require: a ``traceEvents``
    list whose rows carry ``name``/``ph``/``pid``/``tid``, numeric ``ts``
    on non-metadata rows, and a numeric ``dur`` on complete events.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, row in enumerate(events):
        if not isinstance(row, dict):
            errors.append(f"traceEvents[{i}] is not an object")
            continue
        if not isinstance(row.get("name"), str) or not row.get("name"):
            errors.append(f"traceEvents[{i}].name must be a non-empty string")
        phase = row.get("ph")
        if phase not in _PERFETTO_PHASES:
            errors.append(f"traceEvents[{i}].ph {phase!r} is not a known phase")
        for key in ("pid", "tid"):
            if not isinstance(row.get(key), int):
                errors.append(f"traceEvents[{i}].{key} must be an integer")
        if phase != "M":
            if not isinstance(row.get("ts"), (int, float)):
                errors.append(f"traceEvents[{i}].ts must be numeric")
        if phase == "X" and not isinstance(row.get("dur"), (int, float)):
            errors.append(f"traceEvents[{i}].dur must be numeric on complete events")
        if phase == "i" and row.get("s") not in ("t", "p", "g"):
            errors.append(f"traceEvents[{i}].s must be one of t/p/g on instants")
        if "args" in row and not isinstance(row["args"], dict):
            errors.append(f"traceEvents[{i}].args must be an object")
    return errors
