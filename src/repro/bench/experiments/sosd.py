"""SOSD-style cross-backend benchmark: SWARE vs trees, learned, cracking.

SOSD's core finding was that index rankings flip between synthetic-uniform
and real key distributions. This experiment brings that methodology to the
sortedness question: every registered backend
(:data:`repro.core.factory.BACKEND_NAMES` — SA B+-tree, B+-tree, Bε-tree,
LSM-tree, learned index, cracking index) ingests every
:mod:`repro.workloads.sosd` dataset family (books/osm/fb under explicit
sortedness regimes; wiki/tpch in their natural near-sorted arrival; real
SOSD binaries when ``REPRO_SOSD_DIR`` is set), then serves point lookups
and range scans.

Rankings use simulated I/O cost (the shared :class:`~repro.storage.costmodel.
Meter`/:class:`~repro.storage.costmodel.CostModel`), which is
machine-independent and is what the paper argues about: the report prints
each dataset's measured (K,L) and its full backend ranking, pinned byte for
byte as ``results/sosd.txt``. Wall-clock throughput is published as
``sosd_*_ops_per_s`` gauges for reference only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import RunResult, run_phases
from repro.core.factory import BACKEND_NAMES, backend_factory
from repro.obs import current_obs
from repro.storage.costmodel import CostModel
from repro.workloads.sosd import SOSDDataset, default_benchmark_datasets
from repro.workloads.spec import INSERT, LOOKUP, RANGE, value_for


@dataclass
class SOSDResult:
    report: str
    #: (dataset name, backend) -> total simulated ns
    sim_ns: Dict[Tuple[str, str], float]
    #: dataset name -> backends, cheapest simulated cost first
    rankings: Dict[str, List[str]]
    #: gauge name -> wall-clock operations per second
    throughputs: Dict[str, float]
    datasets: List[SOSDDataset] = field(default_factory=list)
    runs: List[RunResult] = field(default_factory=list)


def _tag(name: str) -> str:
    """A gauge-safe dataset tag (``books/near_sorted`` → ``books_near_sorted``)."""
    return name.replace("/", "_").replace(":", "_").replace("-", "_")


def _phases(dataset: SOSDDataset, n_lookups: int, n_ranges: int, seed: int):
    """Ingest-then-read phases for one dataset (shared across backends)."""
    rng = random.Random(seed * 31 + dataset.n)
    keys = list(dataset.keys)
    ingest = [(INSERT, key, value_for(key)) for key in keys]
    lookups = [
        (LOOKUP, rng.choice(keys), 0) for _ in range(min(n_lookups, len(keys)))
    ]
    ordered = sorted(keys)
    span = max(1, len(ordered) // 1000)  # ~0.1% of the keys per scan
    ranges = []
    for _ in range(n_ranges):
        lo = rng.randrange(len(ordered) - span) if len(ordered) > span else 0
        hi = min(len(ordered) - 1, lo + span)
        ranges.append((RANGE, ordered[lo], ordered[hi]))
    return [("ingest", ingest), ("lookup", lookups), ("range", ranges)]


def run(
    n: int = 30_000,
    buffer_fraction: float = 0.01,
    seed: int = 7,
    n_lookups: Optional[int] = None,
    n_ranges: Optional[int] = None,
    backends: Optional[Sequence[str]] = None,
    regimes: Sequence[str] = ("near_sorted", "scrambled"),
) -> SOSDResult:
    n_lookups = n_lookups if n_lookups is not None else max(500, n // 10)
    n_ranges = n_ranges if n_ranges is not None else max(50, n // 200)
    backends = tuple(backends) if backends else BACKEND_NAMES
    datasets = default_benchmark_datasets(n, seed=seed, regimes=regimes)
    model = common.DEFAULT_COST_MODEL or CostModel()
    obs = current_obs()

    sim_ns: Dict[Tuple[str, str], float] = {}
    throughputs: Dict[str, float] = {}
    rankings: Dict[str, List[str]] = {}
    runs: List[RunResult] = []
    dataset_rows = []
    rank_rows = []
    for dataset in datasets:
        phases = _phases(dataset, n_lookups, n_ranges, seed)
        n_ops = sum(len(ops) for _, ops in phases)
        dataset_rows.append(
            [
                dataset.name,
                f"{dataset.n:,}",
                f"{dataset.k_fraction:.2%}",
                f"{dataset.l_fraction:.2%}",
                dataset.source,
            ]
        )
        for backend in backends:
            factory = backend_factory(backend, n, buffer_fraction)
            label = f"{_tag(dataset.name)}:{backend}"
            result = run_phases(
                factory,
                [(name, iter(ops)) for name, ops in phases],
                cost_model=model,
                label=label,
                flush_after="ingest",
            )
            # run_phases records the run with the active obs itself.
            runs.append(result)
            sim_ns[(dataset.name, backend)] = result.sim_ns
            gauge = f"sosd_{_tag(dataset.name)}_{backend}_total_ops_per_s"
            throughputs[gauge] = (
                n_ops / result.wall_ns * 1e9 if result.wall_ns else 0.0
            )
        ranked = sorted(backends, key=lambda b: sim_ns[(dataset.name, b)])
        rankings[dataset.name] = list(ranked)
        best = sim_ns[(dataset.name, ranked[0])] or 1.0
        rank_rows.append(
            [dataset.name]
            + [f"{b} ({sim_ns[(dataset.name, b)] / best:.2f}x)" for b in ranked]
        )

    for gauge, value in throughputs.items():
        obs.gauge(gauge, value)

    dataset_table = format_table(
        ["dataset", "n", "K (measured)", "L (measured)", "source"],
        dataset_rows,
        title="SOSD dataset families (K,L measured on the arrival stream)",
    )
    rank_table = format_table(
        ["dataset"] + [f"#{rank}" for rank in range(1, len(backends) + 1)],
        rank_rows,
        title=(
            "Backend ranking by simulated I/O cost "
            "(ingest + lookups + ranges; relative to winner)"
        ),
    )
    report = "\n\n".join(
        [
            f"SOSD cross-backend bench (n={n:,}, lookups={n_lookups:,}, "
            f"ranges={n_ranges:,}, backends={', '.join(backends)})",
            dataset_table,
            rank_table,
        ]
    )
    return SOSDResult(
        report=report,
        sim_ns=sim_ns,
        rankings=rankings,
        throughputs=throughputs,
        datasets=datasets,
        runs=runs,
    )


def check(result: SOSDResult) -> None:
    # SWARE wins every bounded-displacement stream: the near-sorted regime
    # of the set families and the naturally near-sorted arrival streams.
    for name, ranking in result.rankings.items():
        if name.endswith(("/near_sorted", "/natural")):
            assert ranking[0] == "sa_btree", (name, ranking)
