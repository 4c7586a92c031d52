"""Fig. 17 — what the Bloom filters buy.

Three SA B+-tree configurations — *naive* (no BFs), *global BF only*, and
*full* (global + per-page) — against the B+-tree baseline, for a K sweep:
(a) insert latency: maintaining the filters adds a small ingestion cost;
(b) lookup latency: the filters pay off increasingly as sortedness drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.workloads.spec import INSERT, value_for

K_SWEEP = [0.0, 0.02, 0.10, 0.20, 0.50, 1.00]

VARIANTS = [
    ("naive SA", {"enable_global_bf": False, "enable_page_bf": False}),
    ("SA global BF", {"enable_global_bf": True, "enable_page_bf": False}),
    ("SA full", {"enable_global_bf": True, "enable_page_bf": True}),
]


@dataclass
class Fig17Result:
    report: str
    #: (variant, k) -> {"insert_ns": ..., "lookup_ns": ...}
    data: Dict[Tuple[str, float], Dict[str, float]]


def run(
    n: int = 16_000,
    l_fraction: float = 0.05,
    buffer_fraction: float = 0.05,
    page_size: int = 8,
    n_lookups: int = 4000,
    seed: int = 7,
) -> Fig17Result:
    # Geometry note: the filters gate page scans of the unsorted section,
    # so the buffer must span many pages for the ablation to discriminate
    # (see fig16); we use a 5% buffer with small pages at reduced scale.
    data: Dict[Tuple[str, float], Dict[str, float]] = {}
    rows_insert: List[list] = []
    rows_lookup: List[list] = []
    # Query sorting is disabled here so lookups actually exercise the
    # unsorted section (the paper notes Q-S otherwise bounds BF benefit).
    for k_fraction in K_SWEEP:
        # Ingest a stream that ends mid-flush-cycle so the buffer's unsorted
        # section is populated at query time (the paper "ensures the buffer
        # is full before executing any query"); a round count would end
        # exactly on a flush and leave the tail empty.
        n_eff = n + int(n * buffer_fraction * 0.45)
        keys = common.keys_for(n_eff, k_fraction, l_fraction, seed=seed)
        ingest = [(INSERT, key, value_for(key)) for key in keys]
        lookups = list(
            common.raw_spec(keys, n_lookups=n_lookups, seed=seed).lookup_operations()
        )
        phases = [("ingest", ingest), ("lookups", lookups)]
        base = run_phases(common.baseline_btree_factory(), phases, label="B+")
        row_i = [f"{k_fraction:.0%}", base.phase("ingest").sim_ns_per_op / 1e3]
        row_l = [f"{k_fraction:.0%}", base.phase("lookups").sim_ns_per_op / 1e3]
        for label, flags in VARIANTS:
            config = common.buffer_config(
                n,
                buffer_fraction,
                page_size=page_size,
                query_sorting_threshold=1.0,
                **flags,
            )
            sa = run_phases(common.sa_btree_factory(config), phases, label=label)
            data[(label, k_fraction)] = {
                "insert_ns": sa.phase("ingest").sim_ns_per_op,
                "lookup_ns": sa.phase("lookups").sim_ns_per_op,
            }
            row_i.append(data[(label, k_fraction)]["insert_ns"] / 1e3)
            row_l.append(data[(label, k_fraction)]["lookup_ns"] / 1e3)
        rows_insert.append(row_i)
        rows_lookup.append(row_l)

    headers = ["K", "B+-tree"] + [label for label, _ in VARIANTS]
    report = "\n".join(
        [
            format_table(
                headers,
                rows_insert,
                title=f"Fig. 17a — insert latency (µs/op, n={n})",
            ),
            format_table(
                headers,
                rows_lookup,
                title="Fig. 17b — lookup latency (µs/op, full buffer, Q-S off)",
            ),
        ]
    )
    return Fig17Result(report=report, data=data)


def check(result: Fig17Result) -> None:
    # (a) BFs add a small ingestion cost: full SA inserts cost no less than
    # the naive variant.
    for k in (0.10, 0.50, 1.00):
        assert (
            result.data[("SA full", k)]["insert_ns"]
            >= result.data[("naive SA", k)]["insert_ns"] * 0.98
        )
    # (b) BFs pay off on lookups once sortedness drops (an unsorted tail
    # exists to skip).
    k = 1.00
    assert (
        result.data[("SA full", k)]["lookup_ns"]
        <= result.data[("naive SA", k)]["lookup_ns"]
    )
