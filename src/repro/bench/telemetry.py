"""Machine-readable bench telemetry: the ``BENCH_<experiment>.json`` artifact.

Every observed experiment run serializes into one JSON document so the perf
trajectory is diffable across PRs (the role SOSD's uniform measurement
harness plays for learned indexes). The artifact bundles:

* ``runs`` — per-run phases (name, n_ops, sim_ns, wall_ns), meter bucket
  breakdowns, raw counters, and SWARE/tree statistics;
* ``metrics`` — the full :class:`~repro.obs.MetricsRegistry` snapshot,
  including per-op latency histograms with p50/p95/p99;
* ``trace`` — ring-buffer accounting (events recorded/dropped, plus the
  ``truncated`` headline flag when events were lost);
* ``monitors`` — the streaming monitor hub's snapshot (sortedness drift
  windows, saturation, Bloom FPR samples, fsync/lock feeds), present when
  the run carried monitors — the input ``repro doctor`` evaluates;
* ``profile`` — the sampling profiler's per-layer table and collapsed
  stacks, present when the run was profiled.

The schema is validated by hand (:func:`validate_bench_artifact`) — the
offline environment has no ``jsonschema`` — and the validator doubles as
the CI smoke check for ``repro experiment fig13 --json``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import kernels
from repro.bench.report import results_dir
from repro.obs import Observability

SCHEMA = "repro-bench/v1"

_PHASE_FIELDS = ("name", "n_ops", "sim_ns", "wall_ns")
_HISTOGRAM_FIELDS = ("buckets", "counts", "sum", "count", "p50", "p95", "p99")


def bench_meta() -> Dict[str, object]:
    """The environment stamp every artifact carries in its ``meta`` block."""
    return {
        "kernel_backend": kernels.active_backend(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def build_bench_artifact(
    experiment: str,
    obs: Observability,
    extra: Optional[Dict[str, object]] = None,
    poll: bool = True,
) -> Dict[str, object]:
    """Assemble the artifact from everything ``obs`` recorded.

    ``poll=False`` reuses the collector values of the registry's previous
    snapshot (see :meth:`~repro.obs.MetricsRegistry.snapshot`): a CLI run
    that has already rendered ``repro stats`` from the same registry emits
    an artifact that *agrees* with what was printed, and stateful
    collectors are charged exactly once per export cycle.
    """
    tracer = obs.tracer
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "experiment": experiment,
        "created_unix": time.time(),
        "meta": bench_meta(),
        "runs": list(obs.runs),
        "metrics": obs.registry.snapshot(poll=poll),
        "trace": tracer.snapshot()
        if tracer is not None
        else {"recorded": 0, "dropped": 0, "capacity": 0, "truncated": False},
    }
    if obs.monitors is not None:
        doc["monitors"] = obs.monitors.snapshot()
    if obs.profiler is not None:
        doc["profile"] = obs.profiler.snapshot()
    if extra:
        doc.update(extra)
    return doc


def validate_bench_artifact(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty means valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["artifact is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("experiment"), str) or not doc.get("experiment"):
        errors.append("experiment must be a non-empty string")

    # ``meta`` is validated only when present: pre-kernel-layer artifacts
    # (and hand-trimmed fixtures in the obs tests) legitimately omit it.
    meta = doc.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            errors.append("meta must be an object")
        else:
            if meta.get("kernel_backend") != "numpy":
                errors.append(
                    "meta.kernel_backend must be 'numpy', "
                    f"got {meta.get('kernel_backend')!r}"
                )
            if not isinstance(meta.get("python_version"), str):
                errors.append("meta.python_version must be a string")

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append("runs must be a non-empty list")
        runs = []
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            errors.append(f"runs[{i}] is not an object")
            continue
        phases = run.get("phases")
        if not isinstance(phases, list) or not phases:
            errors.append(f"runs[{i}].phases must be a non-empty list")
            continue
        for j, phase in enumerate(phases):
            for key in _PHASE_FIELDS:
                if key not in phase:
                    errors.append(f"runs[{i}].phases[{j}] missing {key!r}")
        for key in ("bucket_sim_ns", "counts"):
            if not isinstance(run.get(key), dict):
                errors.append(f"runs[{i}].{key} must be an object")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics must be an object")
    else:
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(section), dict):
                errors.append(f"metrics.{section} must be an object")
        for name, hist in (metrics.get("histograms") or {}).items():
            if not isinstance(hist, dict):
                errors.append(f"metrics.histograms[{name!r}] is not an object")
                continue
            for key in _HISTOGRAM_FIELDS:
                if key not in hist:
                    errors.append(f"metrics.histograms[{name!r}] missing {key!r}")
            buckets = hist.get("buckets")
            counts = hist.get("counts")
            if (
                isinstance(buckets, list)
                and isinstance(counts, list)
                and len(counts) != len(buckets) + 1
            ):
                errors.append(
                    f"metrics.histograms[{name!r}]: counts must have "
                    "len(buckets) + 1 entries (+Inf bucket)"
                )

    trace = doc.get("trace")
    if not isinstance(trace, dict) or not all(
        isinstance(trace.get(key), (int, float)) for key in ("recorded", "dropped")
    ):
        errors.append("trace must be an object with numeric recorded/dropped")

    # Optional obs v2 sections: validated only when present.
    monitors = doc.get("monitors")
    if monitors is not None:
        if not isinstance(monitors, dict):
            errors.append("monitors must be an object")
        else:
            sortedness = monitors.get("sortedness")
            if not isinstance(sortedness, dict) or not isinstance(
                sortedness.get("windows"), list
            ):
                errors.append("monitors.sortedness.windows must be a list")
            else:
                for i, window in enumerate(sortedness["windows"]):
                    if not isinstance(window, dict) or not all(
                        isinstance(window.get(key), (int, float))
                        for key in ("n", "k_fraction", "l_fraction")
                    ):
                        errors.append(
                            f"monitors.sortedness.windows[{i}] must carry "
                            "numeric n/k_fraction/l_fraction"
                        )
            for section in ("saturation", "bloom"):
                if not isinstance(monitors.get(section), dict):
                    errors.append(f"monitors.{section} must be an object")

    profile = doc.get("profile")
    if profile is not None:
        if not isinstance(profile, dict):
            errors.append("profile must be an object")
        else:
            if not isinstance(profile.get("layers"), dict):
                errors.append("profile.layers must be an object")
            else:
                for layer, row in profile["layers"].items():
                    if not isinstance(row, dict) or not all(
                        isinstance(row.get(key), (int, float))
                        for key in ("samples", "fraction")
                    ):
                        errors.append(
                            f"profile.layers[{layer!r}] must carry numeric "
                            "samples/fraction"
                        )
            if not isinstance(profile.get("collapsed"), list):
                errors.append("profile.collapsed must be a list")
            if not isinstance(profile.get("hz"), (int, float)):
                errors.append("profile.hz must be numeric")
    return errors


def save_bench_artifact(doc: Dict[str, object], path: Optional[Path] = None) -> Path:
    """Write the artifact (default: ``results/BENCH_<experiment>.json``)."""
    if path is None:
        path = results_dir() / f"BENCH_{doc['experiment']}.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
