"""Fig. 15 — how the SWARE-buffer size affects inserts and lookups.

Ingest (K=10%, L=5%) data and then run lookups, for buffer sizes from 0.5%
to 5% of the data. Paper shape: ingestion speedup grows from ~5.7× to ~7×
with the buffer, while lookup latency degrades only mildly (~11% for a 10×
larger buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import phase_speedup, run_phases
from repro.workloads.spec import INSERT, value_for

BUFFER_FRACTIONS = [0.005, 0.01, 0.02, 0.05]


@dataclass
class Fig15Result:
    report: str
    #: buffer fraction -> {"insert_speedup": ..., "lookup_speedup": ...}
    data: Dict[float, Dict[str, float]]


K_FRACTION = 0.10
L_FRACTION = 0.05
N_LOOKUPS = 4000
SEED = 7


def run(n: int) -> Fig15Result:
    keys = common.keys_for(n, K_FRACTION, L_FRACTION, seed=SEED)
    ingest = [(INSERT, key, value_for(key)) for key in keys]
    lookups = list(common.raw_spec(keys, n_lookups=N_LOOKUPS, seed=SEED).lookup_operations())
    phases = [("ingest", ingest), ("lookups", lookups)]

    base = run_phases(common.baseline_btree_factory(), phases, label="B+")
    data: Dict[float, Dict[str, float]] = {}
    rows: List[tuple] = []
    for fraction in BUFFER_FRACTIONS:
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(n, fraction)),
            phases,
            label=f"SA buf={fraction:.1%}",
        )
        data[fraction] = {
            "insert_speedup": phase_speedup(base, sa, "ingest"),
            "lookup_speedup": phase_speedup(base, sa, "lookups"),
        }
        rows.append(
            (
                f"{fraction:.1%}",
                data[fraction]["insert_speedup"],
                data[fraction]["lookup_speedup"],
            )
        )
    report = format_table(
        ["buffer size (% of data)", "insert speedup", "lookup speedup"],
        rows,
        title=f"Fig. 15 — buffer size vs performance (n={n}, K={K_FRACTION:.0%}, L={L_FRACTION:.0%})",
    )
    return Fig15Result(report=report, data=data)


def check(result: Fig15Result) -> None:
    # Even the smallest buffer wins ingestion; the largest wins at least as
    # much; lookups stay within a modest overhead of the baseline.
    fractions = sorted(result.data)
    assert result.data[fractions[0]]["insert_speedup"] > 1.5
    assert (
        result.data[fractions[-1]]["insert_speedup"]
        >= result.data[fractions[0]]["insert_speedup"] * 0.95
    )
    for values in result.data.values():
        assert values["lookup_speedup"] > 0.75
