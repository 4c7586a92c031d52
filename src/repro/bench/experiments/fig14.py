"""Fig. 14 — speedup grid across K, L, read ratio and buffer size.

Four K×L speedup matrices: (a) 10% reads, (b) 50% reads, (c) 90% reads at a
1% buffer, and (d) 50% reads at a 5% buffer. Paper shape: write-heavy mixes
with sorted data peak (9.2×); speedups decay with more reads and with both
K and L growing; a 5× larger buffer lifts the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_matrix
from repro.bench.runner import RunResult, run_phases, speedup

K_GRID = [0.0, 0.02, 0.10, 0.20, 1.00]
L_GRID = [0.01, 0.05, 0.10, 0.50]

#: (panel label, read fraction, buffer fraction)
PANELS = [
    ("(a) 10%R buffer=1%", 0.10, 0.01),
    ("(b) 50%R buffer=1%", 0.50, 0.01),
    ("(c) 90%R buffer=1%", 0.90, 0.01),
    ("(d) 50%R buffer=5%", 0.50, 0.05),
]


@dataclass
class Fig14Result:
    report: str
    #: (panel, k, l) -> speedup
    data: Dict[Tuple[str, float, float], float]


def run(n: int = 8_000, seed: int = 7) -> Fig14Result:
    data: Dict[Tuple[str, float, float], float] = {}
    baseline_cache: Dict[Tuple[float, float, float], RunResult] = {}
    sections: List[str] = []

    for panel, read_fraction, buffer_fraction in PANELS:
        for l_fraction in L_GRID:
            for k_fraction in K_GRID:
                # K=0 or L=0 is fully sorted regardless of the other value.
                keys = common.keys_for(n, k_fraction, l_fraction, seed=seed)
                ops = common.mixed_ops(keys, read_fraction, seed=seed)
                cache_key = (k_fraction, l_fraction, read_fraction)
                base = baseline_cache.get(cache_key)
                if base is None:
                    base = run_phases(
                        common.baseline_btree_factory(), [("mixed", ops)], label="B+"
                    )
                    baseline_cache[cache_key] = base
                sa = run_phases(
                    common.sa_btree_factory(common.buffer_config(n, buffer_fraction)),
                    [("mixed", ops)],
                    label="SA",
                )
                data[(panel, k_fraction, l_fraction)] = speedup(base, sa)
        row_map = {f"L={l:.0%}": l for l in L_GRID}
        col_map = {f"K={k:.0%}": k for k in K_GRID}
        sections.append(
            format_matrix(
                list(row_map),
                list(col_map),
                lambda row, col, _p=panel: data[(_p, col_map[col], row_map[row])],
                title=f"Fig. 14 {panel} (n={n})",
                row_header="",
            )
        )
    return Fig14Result(report="\n".join(sections), data=data)


def check(result: Fig14Result) -> None:
    panel_a = "(a) 10%R buffer=1%"
    panel_c = "(c) 90%R buffer=1%"
    panel_b = "(b) 50%R buffer=1%"
    panel_d = "(d) 50%R buffer=5%"
    # Fully sorted (K=0) is the peak of every panel and constant across L.
    assert result.data[(panel_a, 0.0, 0.01)] > result.data[(panel_a, 1.0, 0.50)]
    # More reads -> less benefit.
    assert result.data[(panel_a, 0.0, 0.01)] > result.data[(panel_c, 0.0, 0.01)]
    # A larger buffer helps the mid-grid.
    assert result.data[(panel_d, 0.10, 0.05)] >= result.data[(panel_b, 0.10, 0.05)] * 0.9
