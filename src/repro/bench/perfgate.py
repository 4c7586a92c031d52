"""Perf-regression gate over ``repro-bench/v1`` telemetry artifacts.

The gate compares throughput gauges (any metric ending in
:data:`THROUGHPUT_SUFFIX`) between a committed baseline artifact and a
freshly measured one. A gauge fails when the current value drops below
``baseline / tolerance`` — with the default 2x tolerance the gate is
deliberately insensitive to machine jitter and only trips on structural
regressions (a batch path silently falling back to the per-op loop, an
accidentally quadratic rewrite). Missing gauges fail too: a renamed or
dropped metric would otherwise un-gate itself.

Used by ``python -m repro perf-gate`` and the CI perf-smoke job.
"""

from __future__ import annotations

from typing import Dict, List

THROUGHPUT_SUFFIX = "_ops_per_s"


def extract_throughputs(doc: object) -> Dict[str, float]:
    """All throughput gauges of a bench artifact (may be empty)."""
    if not isinstance(doc, dict):
        return {}
    metrics = doc.get("metrics")
    gauges = metrics.get("gauges") if isinstance(metrics, dict) else None
    if not isinstance(gauges, dict):
        return {}
    return {
        name: float(value)
        for name, value in gauges.items()
        if name.endswith(THROUGHPUT_SUFFIX) and isinstance(value, (int, float))
    }


def compare_throughputs(
    baseline: object, current: object, tolerance: float = 2.0
) -> List[str]:
    """Gate ``current`` against ``baseline``; returns failures (empty = pass).

    ``tolerance`` is the allowed slowdown factor: current throughput must be
    at least ``baseline / tolerance`` for every baseline gauge.
    """
    if tolerance < 1.0:
        raise ValueError(f"tolerance must be >= 1.0, got {tolerance}")
    failures: List[str] = []
    base = extract_throughputs(baseline)
    cur = extract_throughputs(current)
    if not base:
        failures.append(f"baseline artifact has no *{THROUGHPUT_SUFFIX} gauges")
        return failures
    for name, base_value in sorted(base.items()):
        cur_value = cur.get(name)
        if cur_value is None:
            failures.append(f"{name}: missing from current artifact")
        elif base_value > 0 and cur_value < base_value / tolerance:
            failures.append(
                f"{name}: {cur_value:,.0f} ops/s vs baseline {base_value:,.0f} "
                f"(more than {tolerance:.1f}x slower)"
            )
    return failures


def format_gate_report(
    baseline: object, current: object, failures: List[str], tolerance: float
) -> str:
    """Human-readable side-by-side of every gated gauge."""
    base = extract_throughputs(baseline)
    cur = extract_throughputs(current)
    lines = [f"perf gate (tolerance {tolerance:.1f}x, {len(base)} gauges)"]
    for name in sorted(base):
        base_value = base[name]
        cur_value = cur.get(name)
        if cur_value is None:
            lines.append(f"  {name}: MISSING (baseline {base_value:,.0f} ops/s)")
            continue
        ratio = cur_value / base_value if base_value else float("inf")
        verdict = "ok" if ratio >= 1.0 / tolerance else "FAIL"
        lines.append(
            f"  {name}: {cur_value:,.0f} vs {base_value:,.0f} ops/s "
            f"({ratio:.2f}x) {verdict}"
        )
    # Failures that are not per-gauge rows (an empty baseline) would
    # otherwise only surface as a bare count.
    for failure in failures:
        if failure.split(":")[0] not in base:
            lines.append(f"  {failure}")
    lines.append("PASS" if not failures else f"FAIL ({len(failures)} regression(s))")
    return "\n".join(lines)
