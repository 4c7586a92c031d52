"""``bench_e2e``: the repository's one benchmark.

    python3 bench_e2e/run.py                       # every workload, one fresh interpreter each
    python3 bench_e2e/run.py --workload serve_put --seed 3 --seconds 15 --trace 0
    python3 bench_e2e/run.py --workload serve_put --trace 1     # per-layer metrics + trace file
    python3 bench_e2e/run.py --aa 10                # repeatability of the benchmark itself

A single-workload run prints every metric by name with its unit and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``. It
exits non-zero when any result was wrong. See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spec  # noqa: E402


def run_workload(args) -> int:
    from repro import kernels

    import embedded
    import served
    from measure import Spans
    from plans import build_plan

    kernels.set_backend(spec.KERNEL_BACKEND)
    workload = spec.WORKLOADS[args.workload].sized(args.quick)
    reps = spec.repetitions(args.seconds, args.quick, bool(args.trace))
    config = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "R": reps,
        "kernel_backend": kernels.active_backend(), "nproc": spec.NPROC,
        "preload": workload.preload, "tail": workload.tail, "ops": workload.ops,
    }
    print("# config " + json.dumps(config, sort_keys=True))
    plan = build_plan(workload, args.seed)
    work = os.path.join(ROOT, ".bench_e2e_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work)
    spans = Spans() if args.trace else None
    try:
        module = served if workload.served else embedded
        result = (module.run_traced if args.trace else module.run_e2e)(
            workload, plan, reps, work, spans)
        metrics, attempted, failed = asyncio.run(result) if workload.served else result
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if spans is not None:
        path = os.path.join(args.out, f"trace-{workload.name}.json")
        spans.write(path, **config)
        print(f"# trace {path} ({len(spans)} spans)")
    catalogue = spec.PER_LAYER if args.trace else spec.END_TO_END
    report = {}
    for name, unit, *_rest in catalogue:
        report[name] = {"value": metrics[name], "unit": unit}
        print(f"{workload.name}/{name} {metrics[name]:.6g} {unit}")
    print(f"{workload.name}/failed_ops {failed} count (of {attempted} checked)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if failed == 0 else 1


def child(args, workload: str, seed: int) -> dict:
    """One workload in a fresh interpreter; returns its config and result."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", args.out] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (seed {seed}) failed with exit code {done.returncode}")
    config = next(json.loads(line[9:]) for line in lines if line.startswith("# config "))
    return {"config": config, "result": json.loads(lines[-1])}


def worse_by(better: str, value: float, reference: float) -> float:
    """How much worse ``value`` is than ``reference``, as a share of it."""
    change = (value - reference) / reference
    return change if better == "lower" else -change


def a_a(args) -> int:
    """Run the whole benchmark ``--aa`` times on consecutive seeds and judge
    its own repeatability as the acceptance driver does: per end-to-end
    metric, the interquartile range as a share of the median must stay under
    a third of the bound, and the second half's median may not be worse than
    the first half's by more than half the bound."""
    runs = {name: [] for name in spec.WORKLOADS}
    for i in range(args.aa):
        for name in spec.WORKLOADS:
            runs[name].append(child(args, name, args.seed + i))
    verdict = 0
    for name, results in runs.items():
        comparable = {json.dumps({k: v for k, v in r["config"].items() if k != "seed"},
                                 sort_keys=True) for r in results}
        if len(comparable) != 1:
            raise SystemExit(f"{name}: refusing to pool runs whose backend or sizes differ")
        for metric, unit, better, bound in spec.END_TO_END:
            values = [r["result"]["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            gap = (max(values) - min(values)) / q2
            half = len(values) // 2
            shift = worse_by(better, statistics.median(values[half:]),
                             statistics.median(values[:half]))
            ok = spread <= bound / 3 and shift <= bound / 2
            verdict |= not ok
            print(f"{name}/{metric}: median {q2:.6g} {unit}  quartiles {q1:.6g}..{q3:.6g}  "
                  f"iqr/median {spread:.2%}  max gap {gap:.2%}  second-half shift {shift:+.2%}  "
                  f"bound {bound:.0%}  {'ok' if ok else 'TOO NOISY'}")
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.NOMINAL_SECONDS,
                        help="how long to measure: one repetition per second")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics and a trace file instead of end-to-end metrics")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_e2e_out"),
                        help="directory for trace-<workload>.json")
    parser.add_argument("--quick", action="store_true", help="self-check size, not for numbers")
    parser.add_argument("--aa", type=int, metavar="N", help="run everything N times and judge the spread")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.aa:
        return a_a(args)
    if args.workload:
        return run_workload(args)
    for name in spec.WORKLOADS:
        child(args, name, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
