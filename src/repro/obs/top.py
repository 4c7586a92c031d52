"""The ``--top`` view of ``repro observe``: a refreshing terminal dashboard.

Renders one frame of everything the streaming monitors know — windowed
(K,L) drift, buffer saturation, flush routing, Bloom FPR, WAL fsync
latency, trace-ring accounting — plus the current health
verdict from the doctor's rules. :func:`live_loop` renders a frame per
poll: one in-process snapshot while a scenario runs on a worker thread, or
one STATS round trip to a running server. Each frame reads only the
snapshot dict, so it never perturbs the run it is watching (beyond the
collector poll every snapshot makes).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.monitors import build_signals, evaluate_signals

#: Eight-level bar glyphs for the fill/drift strips.
_BARS = " ▁▂▃▄▅▆▇█"
#: Samples a strip shows (the newest).
SPARK_WIDTH = 32


def spark(values: List[float]) -> str:
    """A sparkline strip of the newest ``values`` clipped to [0, 1]."""
    if not values:
        return "(no samples)"
    tail = values[-SPARK_WIDTH:]
    out = []
    for value in tail:
        level = max(0.0, min(1.0, value))
        out.append(_BARS[round(level * (len(_BARS) - 1))])
    return "".join(out)


def format_dashboard(snap: Dict[str, object], title: str = "repro observe --top") -> str:
    """One frame of the dashboard (plain text, ~80 columns) from one
    observability snapshot."""
    monitors: Dict[str, object] = snap.get("monitors") or {}
    trace: Dict[str, object] = snap.get("trace") or {}
    signals = build_signals(**snap)
    findings = evaluate_signals(signals)
    actionable = [f for f in findings if f.severity in ("warning", "critical")]

    sortedness = monitors.get("sortedness") or {}
    saturation = monitors.get("saturation") or {}
    windows = sortedness.get("windows") or []
    fills = saturation.get("fill_trajectory") or []

    lines = [title, "=" * len(title)]

    k_series = [w["k_fraction"] for w in windows]
    latest = windows[-1] if windows else None
    lines.append(
        "sortedness   K% {}  {}".format(
            spark(k_series),
            f"now K={latest['k_fraction']:.0%} L={latest['l_fraction']:.0%} "
            f"({len(windows)} windows, {sortedness.get('keys_observed', 0)} keys)"
            if latest
            else "(warming up)",
        )
    )

    flushes = signals["flushes"]
    with_sort = signals["flushes_with_sort"]
    bulk = signals["bulk_loaded_entries"]
    top_ins = signals["top_inserted_entries"]
    routed = bulk + top_ins
    lines.append(
        "buffer       fill {}  mean {:.0%}".format(
            spark(list(fills)), float(saturation.get("mean_fill", 0.0))
        )
    )
    lines.append(
        f"flushes      {flushes:.0f} total, {with_sort:.0f} with sort; "
        f"bulk-loaded {bulk / routed if routed else 0.0:.0%} of "
        f"{routed:.0f} routed entries"
    )

    fps = signals["bf_false_positives"]
    negatives = signals["bf_negatives"]
    decisions = fps + negatives
    # The filters are walked only to bill a meter: an unmetered index
    # (a live server) makes no decisions to report.
    observed = f"observed FPR {fps / decisions:.2%}" if decisions else "no metered probes"
    lines.append(
        f"bloom        {observed} "
        f"(theoretical {signals['expected_fpr_mean']:.2%}, "
        f"{decisions:.0f} absent-key probes)"
    )

    lines.append(
        f"wal fsync    {signals['fsync_count']:.0f} syncs, "
        f"p99 {signals['fsync_p99_ns'] / 1e6:.2f} ms"
    )

    recorded = trace.get("recorded", 0)
    dropped = trace.get("dropped", 0)
    trace_line = f"trace        {recorded} events recorded"
    if dropped:
        trace_line += f", {dropped} dropped (ring truncated)"
    lines.append(trace_line)

    if actionable:
        worst = actionable[0].severity.upper()
        codes = ", ".join(f.code for f in actionable)
        lines.append(f"health       {worst}: {codes}")
    else:
        lines.append("health       OK")
    return "\n".join(lines) + "\n"


def live_loop(
    poll: Callable[[], Dict[str, object]],
    done,
    interval: float = 0.5,
    frames: Optional[int] = None,
    clear: bool = True,
    out=None,
    title: str = "repro observe --top",
) -> int:
    """Render ``poll()``'s snapshot every ``interval`` seconds until ``done``
    is set or ``frames`` frames are out.

    ``done`` is a :class:`threading.Event` owned by the workload thread.
    Returns the number of frames rendered; always renders a final frame
    after ``done`` fires so the last state is what remains on screen.
    """
    import sys

    out = out if out is not None else sys.stdout
    rendered = 0
    while True:
        finished = done.wait(interval if rendered else 0.0)
        if clear:
            out.write("\x1b[2J\x1b[H")
        out.write(format_dashboard(poll(), title=title))
        out.flush()
        rendered += 1
        if finished or (frames is not None and rendered >= frames):
            return rendered
