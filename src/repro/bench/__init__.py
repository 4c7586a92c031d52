"""Benchmark harness: runner, reports, and the per-figure experiments."""

from repro.bench.report import (
    ascii_scatter,
    format_matrix,
    format_table,
)
from repro.bench.runner import (
    PhaseResult,
    RunResult,
    execute_operations,
    phase_speedup,
    run_phases,
    speedup,
)

__all__ = [
    "ascii_scatter",
    "format_matrix",
    "format_table",
    "PhaseResult",
    "RunResult",
    "execute_operations",
    "phase_speedup",
    "run_phases",
    "speedup",
]
