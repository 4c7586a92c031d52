"""Table III — TPC-H receiptdate ingestion (§V-H).

Keys arrive in shipdate-sorted order while the index is on receiptdate —
the synthetic column reproduces dbgen's implicit clustering (high K, tiny
L). Buffer sizes sweep 0.05%–1% of the data across read ratios; the index
is preloaded to 80% before the mixed phase. Paper shape: SA B+-tree wins at
every cell (1.14×–5.3×), benefits growing with buffer size and shrinking
with the read share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import RunResult, run_phases, speedup
from repro.sortedness.metrics import measure_sortedness
from repro.workloads.tpch import receiptdate_keys

BUFFER_FRACTIONS = [0.0005, 0.001, 0.0025, 0.005, 0.01]
RATIOS = [0.10, 0.25, 0.50, 0.75, 0.90]


@dataclass
class Table3Result:
    report: str
    #: (read_fraction, buffer_fraction) -> speedup
    data: Dict[Tuple[float, float], float]
    measured_k: float
    measured_l: float


SEED = 7
MEASURE_SAMPLE = 6_000


def run(n: int) -> Table3Result:
    keys = receiptdate_keys(n, seed=SEED)
    sample = measure_sortedness(keys[:MEASURE_SAMPLE])

    data: Dict[Tuple[float, float], float] = {}
    base_cache: Dict[float, RunResult] = {}
    rows: List[list] = []
    for ratio in RATIOS:
        ops = common.mixed_ops(keys, ratio, seed=SEED)
        base = base_cache.get(ratio)
        if base is None:
            base = run_phases(
                common.baseline_btree_factory(), [("mixed", ops)], label="B+"
            )
            base_cache[ratio] = base
        row = [f"{int(ratio * 100)}% : {int((1 - ratio) * 100)}%"]
        for fraction in BUFFER_FRACTIONS:
            sa = run_phases(
                common.sa_btree_factory(common.buffer_config(n, fraction)),
                [("mixed", ops)],
                label=f"SA buf={fraction:.2%}",
            )
            data[(ratio, fraction)] = speedup(base, sa)
            row.append(data[(ratio, fraction)])
        rows.append(row)

    report = format_table(
        ["reads : writes"] + [f"buf={f:.2%}" for f in BUFFER_FRACTIONS],
        rows,
        title=(
            f"Table III — TPC-H receiptdate speedups (n={n}; measured sample "
            f"K={sample.k_fraction:.1%}, L={sample.l_fraction:.2%}; "
            f"paper: K=96.67%, L=0.1%)"
        ),
    )
    return Table3Result(
        report=report,
        data=data,
        measured_k=sample.k_fraction,
        measured_l=sample.l_fraction,
    )


def check(result: Table3Result) -> None:
    # The synthetic column reproduces the paper's phenomenon: very high K
    # with L an order of magnitude lower (paper: K=96.67%, L=0.1%; dbgen's
    # receipt = ship + U[1,30] rule yields slightly larger L at our density).
    assert result.measured_k > 0.5
    assert result.measured_l < 0.10
    assert result.measured_l < result.measured_k / 5
    # SA B+-tree wins at every cell for write-leaning mixes and stays close
    # to (or above) parity even at 90% reads.
    for (ratio, fraction), value in result.data.items():
        if ratio <= 0.5:
            assert value > 1.0, (ratio, fraction, value)
        else:
            assert value > 0.85, (ratio, fraction, value)
    # A larger buffer helps the write-heavy mix.
    fractions = sorted({f for _, f in result.data})
    assert result.data[(0.10, fractions[-1])] >= result.data[(0.10, fractions[0])]
