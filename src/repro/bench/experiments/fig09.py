"""Fig. 9 — the family of differently sorted ingestion workloads.

Generates the six collections of the paper's figure (sorted, (10,10),
(20,10), (50,25), (100,50), scrambled), measures the *achieved* (K,L) with
the exact metric, and renders a coarse ASCII position/value scatter for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.report import ascii_scatter, format_table
from repro.sortedness.generator import generate_kl_keys, scrambled_keys, sorted_keys
from repro.sortedness.metrics import measure_sortedness

#: The (K%, L%) grid of the paper's Fig. 9 (None = uniform shuffle).
FIG9_GRID: List[Tuple[str, Optional[float], Optional[float]]] = [
    ("(a) sorted", 0.0, 0.0),
    ("(b) K=10%, L=10%", 0.10, 0.10),
    ("(c) K=20%, L=10%", 0.20, 0.10),
    ("(d) K=50%, L=25%", 0.50, 0.25),
    ("(e) K=100%, L=50%", 1.00, 0.50),
    ("(f) scrambled", None, None),
]


@dataclass
class Fig9Result:
    report: str
    data: Dict[str, dict]


def run(n: int = 2000, seed: int = 7, with_plots: bool = True) -> Fig9Result:
    sections: List[str] = []
    rows = []
    data: Dict[str, dict] = {}
    for label, k_fraction, l_fraction in FIG9_GRID:
        if k_fraction is None:
            keys = scrambled_keys(n, seed=seed)
            target = ("uniform", "uniform")
        elif k_fraction == 0.0:
            keys = sorted_keys(n)
            target = ("0%", "0%")
        else:
            keys = generate_kl_keys(n, k_fraction, l_fraction, seed=seed)
            target = (f"{k_fraction:.0%}", f"{l_fraction:.0%}")
        report = measure_sortedness(keys)
        rows.append(
            (
                label,
                target[0],
                target[1],
                f"{report.k_fraction:.1%}",
                f"{report.l_fraction:.1%}",
                report.degree(),
            )
        )
        data[label] = {
            "target_k": k_fraction,
            "target_l": l_fraction,
            "measured_k": report.k_fraction,
            "measured_l": report.l_fraction,
            "inversions": report.inversions,
        }
        if with_plots:
            sections.append(
                ascii_scatter(
                    list(range(n)), list(keys), width=56, height=10, title=label
                )
            )
    table = format_table(
        ["collection", "target K", "target L", "measured K", "measured L", "degree"],
        rows,
        title="Fig. 9 — workload family: target vs measured sortedness",
    )
    return Fig9Result(report=table + "\n" + "\n".join(sections), data=data)


def check(result: Fig9Result) -> None:
    # Sanity: the generated degrees must bracket the figure's intent.
    assert result.data["(a) sorted"]["measured_k"] == 0.0
    assert result.data["(f) scrambled"]["measured_k"] > 0.5
