"""Space utilization — the intro's "up to 48% reduction" claim.

A baseline B+-tree ingesting (near-)sorted data leaves every leaf ~half
full (right-deep inserts, 50:50 splits). The SA B+-tree bulk loads at a 95%
fill with 80:20 splits, so it needs far fewer leaves. We ingest each
sortedness preset into both indexes and compare allocated leaf slots.

Occupancy is reported on two axes, which the gapped node layout makes
distinct: *logical* fill (live entries / logical leaf slots —
``avg_leaf_fill``) and *physical* fill (live entries / page slots, which
include each leaf's empty gap slots and its spare slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.workloads.spec import INSERT, value_for

PRESETS = [
    ("sorted", 0.0, 0.0),
    ("near-sorted", 0.10, 0.05),
    ("less-sorted", 1.00, 0.50),
    ("scrambled", None, None),
]


@dataclass
class SpaceResult:
    report: str
    #: preset -> {"sa_slots": ..., "base_slots": ..., "savings": fraction}
    data: Dict[str, Dict[str, float]]


BUFFER_FRACTION = 0.01
SEED = 7


def run(n: int) -> SpaceResult:
    data: Dict[str, Dict[str, float]] = {}
    rows: List[list] = []
    for label, k_fraction, l_fraction in PRESETS:
        keys = common.keys_for(n, k_fraction, l_fraction, seed=SEED)
        ingest = [(INSERT, key, value_for(key)) for key in keys]
        base = run_phases(
            common.baseline_btree_factory(), [("ingest", ingest)], label="B+"
        )
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(n, BUFFER_FRACTION)),
            [("ingest", ingest)],
            label="SA",
            flush_after="ingest",
        )
        base_slots = base.index_stats["space_leaf_slots"]
        sa_slots = sa.index_stats["space_leaf_slots"]
        savings = 1.0 - sa_slots / base_slots
        data[label] = {
            "sa_slots": sa_slots,
            "base_slots": base_slots,
            "sa_fill": sa.index_stats["space_avg_leaf_fill"],
            "base_fill": base.index_stats["space_avg_leaf_fill"],
            "sa_logical_entries": sa.index_stats["space_logical_entries"],
            "sa_physical_slots": sa.index_stats["space_physical_slots"],
            "sa_gap_slots": sa.index_stats["space_gap_slots"],
            "sa_physical_fill": sa.index_stats["space_physical_fill"],
            "base_physical_fill": base.index_stats["space_physical_fill"],
            "savings": savings,
        }
        rows.append(
            [
                label,
                int(base_slots),
                f"{data[label]['base_fill']:.0%}",
                int(sa_slots),
                f"{data[label]['sa_fill']:.0%}",
                f"{data[label]['sa_physical_fill']:.0%}",
                f"{savings:.1%}",
            ]
        )
    report = format_table(
        [
            "sortedness",
            "B+ leaf slots",
            "B+ fill",
            "SA leaf slots",
            "SA fill",
            "SA phys fill",
            "space saved",
        ],
        rows,
        title=f"Space utilization after ingesting {n} entries (paper: up to 48% saved)",
    )
    return SpaceResult(report=report, data=data)


def check(result: SpaceResult) -> None:
    # Sorted ingestion: SA saves a large fraction of leaf slots (~48% in
    # the paper; bulk fill 95% vs half-full right-deep leaves).
    assert result.data["sorted"]["savings"] > 0.30
    assert result.data["near-sorted"]["savings"] > 0.20
    # SA's average leaf fill approaches the 95% bulk-load target.
    assert result.data["sorted"]["sa_fill"] > 0.85
    # Logical vs physical occupancy: physical slots include the gapped
    # layout's sentinel gap slots, so physical fill never exceeds logical
    # fill and the identity logical = physical - gaps holds exactly.
    for preset in ("sorted", "near-sorted"):
        row = result.data[preset]
        assert row["sa_physical_slots"] >= row["sa_slots"]
        assert row["sa_physical_fill"] <= row["sa_fill"] + 1e-9
        assert row["sa_physical_slots"] - row["sa_gap_slots"] == row["sa_logical_entries"]
        assert row["sa_logical_entries"] > 0
