"""Fig. 11 — top-inserts vs bulk loads in the SA B+-tree as K grows.

Ingest (K, L=5%)-sorted data through the SA B+-tree and report how many
entries reached the tree through opportunistic bulk loading vs top-inserts.
Paper shape: fully sorted data is 100% bulk loaded; near-sorted only ~4%
top-inserts; at K=100% almost everything is top-inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.workloads.spec import INSERT, value_for

K_SWEEP = [0.0, 0.02, 0.10, 0.20, 0.50, 1.00]


@dataclass
class Fig11Result:
    report: str
    #: k_fraction -> {"top_inserts": ..., "bulk_loaded": ...}
    data: Dict[float, Dict[str, float]]


def run(
    n: int = 20_000,
    l_fraction: float = 0.05,
    buffer_fraction: float = 0.01,
    seed: int = 7,
) -> Fig11Result:
    data: Dict[float, Dict[str, float]] = {}
    rows: List[tuple] = []
    for k_fraction in K_SWEEP:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=seed)
        ops = [(INSERT, key, value_for(key)) for key in keys]
        result = run_phases(
            common.sa_btree_factory(common.buffer_config(n, buffer_fraction)),
            [("ingest", ops)],
            label=f"SA K={k_fraction:.0%}",
            flush_after="ingest",
        )
        stats = result.sware_stats
        top = stats["top_inserted_entries"]
        bulk = stats["bulk_loaded_entries"]
        data[k_fraction] = {"top_inserts": top, "bulk_loaded": bulk}
        total = top + bulk
        rows.append(
            (
                f"{k_fraction:.0%}",
                int(top),
                int(bulk),
                f"{top / total:.1%}" if total else "-",
            )
        )
    report = format_table(
        ["K", "top-inserts", "bulk-loaded", "top-insert share"],
        rows,
        title=f"Fig. 11 — ingestion routing in SA B+-tree (n={n}, L={l_fraction:.0%})",
    )
    return Fig11Result(report=report, data=data)


def check(result: Fig11Result) -> None:
    # Fully sorted data is 100% bulk loaded; top-inserts grow with K.
    assert result.data[0.0]["top_inserts"] == 0
    near = result.data[0.10]
    assert near["top_inserts"] / (near["top_inserts"] + near["bulk_loaded"]) < 0.15
    tops = [result.data[k]["top_inserts"] for k in sorted(result.data)]
    assert tops == sorted(tops)
