"""§V-D (text) — Zonemaps at query time.

The paper observes that skipping the Zonemaps during lookups reduces
performance by ~35%. The dominant effect is the *whole-buffer* Zonemap of
the optimized read path (Fig. 6): a near-sorted stream keeps the buffer's
key range narrow, so most uniform lookups fall outside it and the Zonemap
lets them skip the buffer (global BF probe, component boundary checks)
entirely. Disabling ``enable_read_zonemaps`` removes that gate *and* the
per-page Zonemaps of the unsorted section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.workloads.spec import INSERT, value_for


@dataclass
class ZonemapAblationResult:
    report: str
    #: {"with": ns/lookup, "without": ns/lookup, "penalty": fraction}
    data: Dict[str, float]


K_FRACTION = 0.20
L_FRACTION = 0.10
BUFFER_FRACTION = 0.05
N_LOOKUPS = 5_000
SEED = 7


def run(n: int) -> ZonemapAblationResult:
    keys = common.keys_for(n, K_FRACTION, L_FRACTION, seed=SEED)
    ingest = [(INSERT, key, value_for(key)) for key in keys]
    lookups = list(
        common.raw_spec(keys, n_lookups=N_LOOKUPS, seed=SEED).lookup_operations()
    )
    phases = [("ingest", ingest), ("lookups", lookups)]

    results: Dict[str, float] = {}
    for label, enabled in (("with", True), ("without", False)):
        config = common.buffer_config(
            n,
            BUFFER_FRACTION,
            enable_read_zonemaps=enabled,
            query_sorting_threshold=1.0,
        )
        run_result = run_phases(
            common.sa_btree_factory(config), phases, label=f"zonemaps {label}"
        )
        results[label] = run_result.phase("lookups").sim_ns_per_op

    penalty = results["without"] / results["with"] - 1.0
    report = format_table(
        ["configuration", "lookup latency (µs/op)"],
        [
            ("Zonemaps at query time", results["with"] / 1e3),
            ("no Zonemaps at query time", results["without"] / 1e3),
            ("penalty", f"{penalty:.1%}"),
        ],
        title=f"§V-D — read-path Zonemap ablation (n={n}, K={K_FRACTION:.0%}, L={L_FRACTION:.0%})",
    )
    return ZonemapAblationResult(
        report=report,
        data={"with": results["with"], "without": results["without"], "penalty": penalty},
    )


def check(result: ZonemapAblationResult) -> None:
    # Skipping the read-path Zonemaps must cost, not help.
    assert result.data["penalty"] > 0.02
