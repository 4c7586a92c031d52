"""Workload execution and measurement.

A *run* builds a fresh index through a factory, executes one or more phases
of operations, and records per-phase simulated nanoseconds (from the shared
:class:`~repro.storage.Meter` under a :class:`~repro.storage.CostModel`) and
wall time. Speedups reported by the experiments are ratios of simulated
latency — see DESIGN.md substitution #1.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.sware import SortednessAwareIndex
from repro.obs import NULL_OBS, Observability, current_obs
from repro.obs import observe as obs_observe
from repro.storage.costmodel import CostModel, Meter
from repro.workloads.spec import DELETE, INSERT, LOOKUP, RANGE, Operation

#: Histogram metric per op code, recorded when a run is observed.
OP_HISTOGRAMS = {
    INSERT: "op_insert_latency_ns",
    LOOKUP: "op_lookup_latency_ns",
    RANGE: "op_range_latency_ns",
    DELETE: "op_delete_latency_ns",
}

#: A factory receives the run's meter and returns a ready index
#: (a raw tree or a SortednessAwareIndex).
IndexFactory = Callable[[Meter], object]


@dataclass
class PhaseResult:
    """Measurements for one named phase of a run."""

    name: str
    n_ops: int
    sim_ns: float
    wall_ns: float

    @property
    def sim_ns_per_op(self) -> float:
        return self.sim_ns / self.n_ops if self.n_ops else 0.0


@dataclass
class RunResult:
    """Measurements and statistics for one complete run."""

    label: str
    phases: List[PhaseResult] = field(default_factory=list)
    bucket_sim_ns: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    sware_stats: Dict[str, float] = field(default_factory=dict)
    index_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def sim_ns(self) -> float:
        return sum(phase.sim_ns for phase in self.phases)

    @property
    def wall_ns(self) -> float:
        return sum(phase.wall_ns for phase in self.phases)

    @property
    def n_ops(self) -> int:
        return sum(phase.n_ops for phase in self.phases)

    @property
    def sim_ns_per_op(self) -> float:
        return self.sim_ns / self.n_ops if self.n_ops else 0.0

    def phase(self, name: str) -> PhaseResult:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(name)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form, the unit of the bench telemetry artifact."""
        return {
            "label": self.label,
            "phases": [
                {
                    "name": phase.name,
                    "n_ops": phase.n_ops,
                    "sim_ns": phase.sim_ns,
                    "wall_ns": phase.wall_ns,
                    "sim_ns_per_op": phase.sim_ns_per_op,
                }
                for phase in self.phases
            ],
            "bucket_sim_ns": dict(self.bucket_sim_ns),
            "counts": dict(self.counts),
            "sware_stats": dict(self.sware_stats),
            "index_stats": dict(self.index_stats),
        }


def execute_operations(index, operations: Iterable[Operation]) -> int:
    """Dispatch an operation stream against an index; returns op count."""
    n = 0
    insert = index.insert
    get = index.get
    range_query = index.range_query
    delete = index.delete
    for op, a, b in operations:
        if op == INSERT:
            insert(a, b)
        elif op == LOOKUP:
            get(a)
        elif op == RANGE:
            range_query(a, b)
        elif op == DELETE:
            delete(a)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown operation code {op}")
        n += 1
    return n


def execute_operations_observed(
    index, operations: Iterable[Operation], obs: Observability
) -> int:
    """Like :func:`execute_operations`, but times every op into per-kind
    latency histograms on ``obs`` (the Fig. 13-style distributions the bench
    artifact reports as p50/p95/p99)."""
    n = 0
    clock = time.perf_counter_ns
    histograms = {
        op: obs.registry.histogram(name) for op, name in OP_HISTOGRAMS.items()
    }
    dispatch = {
        INSERT: index.insert,
        LOOKUP: index.get,
        RANGE: index.range_query,
        DELETE: index.delete,
    }
    for op, a, b in operations:
        fn = dispatch.get(op)
        if fn is None:  # pragma: no cover - defensive
            raise ValueError(f"unknown operation code {op}")
        start = clock()
        if op == INSERT or op == RANGE:
            fn(a, b)
        else:
            fn(a)
        histograms[op].observe(clock() - start)
        n += 1
    return n


def run_phases(
    factory: IndexFactory,
    phases: List[Tuple[str, Iterable[Operation]]],
    cost_model: Optional[CostModel] = None,
    label: str = "",
    flush_after: Optional[str] = None,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Build an index and run the phases, measuring each.

    ``flush_after`` names a phase after which ``flush_all()`` is invoked on
    a SWARE index (its cost lands in that phase, mirroring the paper's
    "drain before read-only measurement" setups where used).

    When an :class:`Observability` is supplied (or installed via
    ``repro.obs.observe``), every op is additionally timed into per-kind
    latency histograms, the run's :class:`Meter` registers as a collector,
    and the serialized result is recorded for the bench JSON artifact.
    """
    model = cost_model or CostModel()
    meter = Meter()
    obs = obs if obs is not None else current_obs()
    observed = obs is not NULL_OBS
    # Components constructed by the factory pick their obs up from the
    # active context, so an explicitly passed obs must be installed too.
    ctx = obs_observe(obs) if observed else nullcontext()
    with ctx:
        index = factory(meter)
        result = RunResult(label=label)
        if observed:
            obs.register_collector(f"meter_{label}" if label else "meter", meter.snapshot)

        for name, operations in phases:
            before = meter.nanos(model)
            start = time.perf_counter_ns()
            with obs.span("run.phase", label=label, phase=name):
                if observed:
                    n_ops = execute_operations_observed(index, operations, obs)
                else:
                    n_ops = execute_operations(index, operations)
                if flush_after == name and isinstance(index, SortednessAwareIndex):
                    index.flush_all()
            wall = time.perf_counter_ns() - start
            sim = meter.nanos(model) - before
            result.phases.append(PhaseResult(name=name, n_ops=n_ops, sim_ns=sim, wall_ns=wall))

    result.bucket_sim_ns = meter.bucket_nanos(model)
    result.counts = meter.snapshot()
    if isinstance(index, SortednessAwareIndex):
        result.sware_stats = index.stats.snapshot()
        tree = index.backend
    else:
        tree = index
    for attr in (
        "leaf_splits",
        "internal_splits",
        "leaf_fissions",
        "leaf_count",
        "internal_count",
        "height",
        "top_inserts",
        "fastpath_inserts",
        "bulk_loaded_entries",
        "buffer_flushes",
        "messages_moved",
    ):
        value = getattr(tree, attr, None)
        if value is not None:
            result.index_stats[attr] = value
    space = getattr(tree, "space_stats", None)
    if callable(space):
        result.index_stats.update({f"space_{k}": v for k, v in space().items()})
    if observed:
        obs.record_run(result.to_dict())
    return result


def speedup(baseline: RunResult, candidate: RunResult) -> float:
    """How much faster ``candidate`` is than ``baseline`` (sim time ratio)."""
    if candidate.sim_ns == 0:
        return float("inf")
    return baseline.sim_ns / candidate.sim_ns


def phase_speedup(baseline: RunResult, candidate: RunResult, phase: str) -> float:
    base = baseline.phase(phase).sim_ns
    cand = candidate.phase(phase).sim_ns
    return base / cand if cand else float("inf")
