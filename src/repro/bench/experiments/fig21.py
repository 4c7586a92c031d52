"""Fig. 21 — the other extreme: K = 5%, L = 95%.

Few elements are out of order but they travel nearly the whole collection.
Paper shape: SA B+-tree still wins (≥13% with a 1% buffer); enlarging the
buffer to 2% / 5% captures more of the overlap and lifts the gain to ~71%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import RunResult, run_phases, speedup

BUFFER_FRACTIONS = [0.01, 0.02, 0.05]
RATIOS = [0.10, 0.25, 0.50, 0.75, 0.90]


@dataclass
class Fig21Result:
    report: str
    #: (read_fraction, buffer_fraction) -> speedup
    data: Dict[Tuple[float, float], float]


SEED = 7


def run(n: int) -> Fig21Result:
    keys = common.keys_for(n, 0.05, 0.95, seed=SEED)
    data: Dict[Tuple[float, float], float] = {}
    rows: List[list] = []
    base_cache: Dict[float, RunResult] = {}
    for ratio in RATIOS:
        ops = common.mixed_ops(keys, ratio, seed=SEED)
        base = base_cache.get(ratio)
        if base is None:
            base = run_phases(
                common.baseline_btree_factory(), [("mixed", ops)], label="B+"
            )
            base_cache[ratio] = base
        row = [f"{int(ratio * 100)}:{int((1 - ratio) * 100)}"]
        for fraction in BUFFER_FRACTIONS:
            sa = run_phases(
                common.sa_btree_factory(common.buffer_config(n, fraction)),
                [("mixed", ops)],
                label=f"SA buf={fraction:.0%}",
            )
            data[(ratio, fraction)] = speedup(base, sa)
            row.append(data[(ratio, fraction)])
        rows.append(row)
    report = format_table(
        ["read:write"] + [f"buffer={f:.0%}" for f in BUFFER_FRACTIONS],
        rows,
        title=f"Fig. 21 — high-L/low-K workload (n={n}, K=5%, L=95%)",
    )
    return Fig21Result(report=report, data=data)


def check(result: Fig21Result) -> None:
    # SA B+-tree wins the write-heavy mixes even at L=95%, and a larger
    # buffer captures more of the overlap.
    assert result.data[(0.10, 0.01)] > 1.0
    assert result.data[(0.10, 0.05)] >= result.data[(0.10, 0.01)] * 0.95
    for (ratio, fraction), value in result.data.items():
        assert value > 0.7, (ratio, fraction, value)
