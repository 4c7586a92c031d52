"""Fig. 18 — on-disk performance: SA B+-tree with a 1%-sized bufferpool.

Same grid as Fig. 10 but both indexes run over a bufferpool that only fits
the internal nodes, so leaf touches become simulated disk I/O. Paper shape:
SA B+-tree *always* outperforms the B+-tree on disk — even for scrambled
data and read-heavy mixes — because buffer sorting boosts locality and the
buffer-management CPU cost is negligible next to page I/O.

Scaling note: the on-disk locality benefit is governed by the *flush-batch
to leaf density* (flushed entries per leaf). The paper's 4 KB pages hold
~341 live entries, so its 1%-of-data buffer flushes ~1.7 entries per leaf;
with this library's 64-entry leaves a 1% buffer would flush only ~0.2
entries per leaf and sorting would destroy rather than create locality. We
therefore size the buffer at 4% of the data, which restores the paper's
density (~0.9 entries/leaf) at reduced scale — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bench.experiments import common
from repro.bench.experiments import fig10 as fig10_mod


@dataclass
class Fig18Result:
    report: str
    data: Dict[Tuple[str, float], float]


def run(n: int = 12_000, buffer_fraction: float = 0.04, seed: int = 7) -> Fig18Result:
    inner = fig10_mod.run(
        n=n,
        buffer_fraction=buffer_fraction,
        seed=seed,
        pool_capacity=common.ondisk_pool_capacity(n),
        title=(
            "Fig. 18 — SA B+-tree speedup on disk (bufferpool ≈ internal nodes; "
            "buffer sized to preserve the paper's flush-batch/leaf density)"
        ),
    )
    return Fig18Result(report=inner.report, data=inner.data)


def check(result: Fig18Result) -> None:
    # Paper: on disk SA B+-tree ALWAYS outperforms the B+-tree — even for
    # scrambled data and read-heavy mixes.
    for (label, ratio), value in result.data.items():
        assert value >= 1.0, (label, ratio, value)
    # And sorted write-heavy remains the peak.
    assert result.data[("sorted", 0.10)] >= result.data[("scrambled", 0.10)]
