"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Emit a (K,L)-near sorted key collection, one key per line.
``measure``
    Measure the (K,L)-sortedness of a key file (or stdin).
``demo``
    Ingest a generated workload into the SA B+-tree and the baseline
    B+-tree and report the simulated speedup and ingestion statistics.
``experiment``
    Run one entry of the experiment table
    (:data:`repro.bench.experiments.EXPERIMENTS`: fig09 … fig21, table1,
    table3, the §V-D sweeps, the extensions, the component ablation and the
    SOSD cross-backend ranking) at its pinned kwargs, or at ``--n``, print
    its report, and evaluate its paper-shape check: a failed check is
    printed to stderr and exits 1. At the pinned kwargs the report equals
    ``results/<report>.txt``. With ``--json PATH`` the run is observed
    through ``repro.obs`` and a schema-valid ``BENCH_<name>.json``
    telemetry artifact (per-phase sim/wall ns, counters, latency
    percentiles) is written to PATH and to the results directory.
``recover``
    Rebuild an index from a checkpoint file plus a write-ahead-log tail
    (crash restart), verify its invariants, and print the recovery report.
    With ``--sharded`` the argument is a sharded root directory instead:
    every shard is recovered from its own checkpoint + WAL and the
    per-shard reports are printed. With ``--out PATH`` the recovered items
    are bulk-loaded into a fresh B+-tree (every leaf but the last at the
    bulk fill factor) and saved there as a new checkpoint (atomic tmp +
    rename).
``serve``
    Boot the sharded asyncio index server (``repro.net``): N range
    partitions under one root, each with its own WAL + checkpoints,
    behind the length-prefixed binary protocol with group-commit write
    acknowledgement.
``bench-serve``
    Closed/open-loop load generator against a self-hosted (or remote)
    sharded server: N concurrent client connections, latency
    percentiles, ``serve_ops_per_s`` throughput gauge, scatter-gather
    results verified against a single-node oracle. With ``--json`` it
    writes the ``BENCH_serve.json`` telemetry artifact.
``stats``
    Run an instrumented workload (or load a ``--from`` artifact) and render
    the metrics registry in Prometheus text exposition format.
``trace``
    Run a small instrumented workload with event tracing enabled and print
    the structured event timeline (flushes, sorts, bulk loads, splits).
    With ``--perfetto PATH`` the causal span tree is also written as a
    Chrome trace-event JSON document loadable in https://ui.perfetto.dev.
``doctor``
    Run a seeded scenario (``healthy`` or ``drift``) under full monitoring
    — or load a saved ``BENCH_*.json`` artifact with ``--from`` — evaluate
    the streaming health rules, and print a findings report with
    severities and remediation hints keyed to the advisor's knobs.
``top``
    Run a monitored workload on a background thread and live-refresh a
    terminal dashboard of the monitor feeds (sortedness drift, buffer
    fill, flush routing, Bloom FPR, fsync latency, lock contention).
"""

from __future__ import annotations

import argparse
import linecache
import os
import sys
import traceback
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SWARE: sortedness-aware indexing (ICDE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a (K,L)-near sorted key collection")
    gen.add_argument("--n", type=int, default=10_000)
    gen.add_argument("--k", type=float, default=0.10, help="K fraction in [0,1]")
    gen.add_argument("--l", type=float, default=0.05, help="L fraction in [0,1]")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scrambled", action="store_true", help="uniform shuffle instead")
    gen.add_argument("--out", type=str, default="-", help="output file (default stdout)")

    meas = sub.add_parser("measure", help="measure sortedness of a key file")
    meas.add_argument("path", nargs="?", default="-", help="file of keys (default stdin)")

    demo = sub.add_parser("demo", help="compare SA B+-tree vs B+-tree on a workload")
    demo.add_argument("--n", type=int, default=20_000)
    demo.add_argument("--k", type=float, default=0.10)
    demo.add_argument("--l", type=float, default=0.05)
    demo.add_argument("--read-fraction", type=float, default=0.5)
    demo.add_argument("--buffer-fraction", type=float, default=0.01)
    demo.add_argument("--seed", type=int, default=7)

    exp = sub.add_parser("experiment", help="run a paper experiment by name")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--n", type=int, default=None, help="override the pinned size")
    exp.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="observe the run and write the BENCH_<name>.json telemetry artifact",
    )
    exp.add_argument(
        "--profile",
        action="store_true",
        help="sample-profile the run and print the per-layer time table",
    )

    rec = sub.add_parser(
        "recover", help="rebuild an index from checkpoint + WAL after a crash"
    )
    rec.add_argument("checkpoint", help="checkpoint file written by CheckpointStore")
    rec.add_argument(
        "--wal", type=str, default=None, metavar="PATH", help="write-ahead log to replay"
    )
    rec.add_argument(
        "--slot-size", type=int, default=None, help="checkpoint slot size (default 4096)"
    )
    rec.add_argument(
        "--sharded",
        action="store_true",
        help="treat the argument as a sharded root directory (repro.net layout)",
    )
    rec.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="PATH",
        help="bulk-load the recovered items into a fresh tree and checkpoint "
        "it here (atomic tmp + rename)",
    )

    serve = sub.add_parser(
        "serve", help="boot the sharded asyncio index server"
    )
    serve.add_argument("root", help="sharded root directory (created if absent)")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7437)
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--fsync",
        choices=["always", "batch", "never"],
        default="batch",
        help="WAL fsync policy; 'batch' enables group-commit acks (default)",
    )
    serve.add_argument(
        "--split-threshold",
        type=int,
        default=50_000,
        help="live entries per shard before it splits (0 disables)",
    )
    serve.add_argument(
        "--key-range",
        type=int,
        nargs=2,
        default=(0, 1 << 20),
        metavar=("LO", "HI"),
        help="expected key range seeding the initial shard boundaries",
    )

    bserve = sub.add_parser(
        "bench-serve",
        help="load-generate against the sharded server",
    )
    bserve.add_argument("--clients", type=int, default=4)
    bserve.add_argument("--ops", type=int, default=1000, help="ops per client")
    bserve.add_argument(
        "--arrival", choices=["closed", "open"], default="closed"
    )
    bserve.add_argument(
        "--open-rate", type=float, default=2000.0, help="per-client ops/s (open loop)"
    )
    bserve.add_argument("--shards", type=int, default=4)
    bserve.add_argument(
        "--split-threshold", type=int, default=0, help="0 = no splits mid-bench"
    )
    bserve.add_argument(
        "--fsync", choices=["always", "batch", "never"], default="batch"
    )
    bserve.add_argument("--key-space", type=int, default=50_000)
    bserve.add_argument("--seed", type=int, default=1234)
    bserve.add_argument(
        "--host",
        type=str,
        default=None,
        help="target an already-running server instead of self-hosting",
    )
    bserve.add_argument("--port", type=int, default=None)
    bserve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the single-node oracle comparison",
    )
    bserve.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the BENCH_serve.json telemetry artifact",
    )

    stats = sub.add_parser(
        "stats", help="render observability metrics in Prometheus text format"
    )
    stats.add_argument("--n", type=int, default=20_000)
    stats.add_argument("--k", type=float, default=0.10)
    stats.add_argument("--l", type=float, default=0.05)
    stats.add_argument("--read-fraction", type=float, default=0.5)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--from",
        dest="from_json",
        type=str,
        default=None,
        metavar="PATH",
        help="render a saved BENCH_*.json artifact instead of running a workload",
    )
    stats.add_argument(
        "--human", action="store_true", help="histogram summary table instead"
    )

    trace = sub.add_parser("trace", help="print a structured event timeline")
    trace.add_argument("--n", type=int, default=5_000)
    trace.add_argument("--k", type=float, default=0.10)
    trace.add_argument("--l", type=float, default=0.05)
    trace.add_argument("--read-fraction", type=float, default=0.5)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--limit", type=int, default=200, help="max events to print")
    trace.add_argument(
        "--perfetto",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the causal trace as Chrome trace-event JSON "
        "(loadable in ui.perfetto.dev)",
    )

    doctor = sub.add_parser(
        "doctor", help="diagnose a run: evaluate health rules, print findings"
    )
    doctor.add_argument(
        "--from",
        dest="from_json",
        type=str,
        default=None,
        metavar="PATH",
        help="evaluate a saved BENCH_*.json artifact instead of running",
    )
    doctor.add_argument(
        "--scenario",
        choices=["healthy", "drift"],
        default="healthy",
        help="seeded workload to run and diagnose (default healthy)",
    )
    doctor.add_argument("--n", type=int, default=20_000)
    doctor.add_argument("--seed", type=int, default=7)
    doctor.add_argument("--read-fraction", type=float, default=0.3)
    doctor.add_argument(
        "--buffer-fraction",
        type=float,
        default=None,
        help="override the scenario's buffer sizing",
    )
    doctor.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the machine-readable findings report",
    )
    doctor.add_argument(
        "--bench",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the scenario's full BENCH telemetry artifact",
    )
    doctor.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any warning/critical finding fires",
    )

    top = sub.add_parser(
        "top", help="live terminal dashboard of the streaming monitor feeds"
    )
    top.add_argument(
        "--scenario",
        choices=["healthy", "drift"],
        default="drift",
        help="seeded workload to watch (default drift)",
    )
    top.add_argument("--n", type=int, default=20_000)
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--read-fraction", type=float, default=0.3)
    top.add_argument(
        "--interval", type=float, default=0.5, help="seconds between frames"
    )
    top.add_argument(
        "--frames", type=int, default=None, help="stop after N frames (default: run end)"
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.sortedness.generator import generate_kl_keys, scrambled_keys

    if args.scrambled:
        keys = scrambled_keys(args.n, seed=args.seed)
    else:
        keys = generate_kl_keys(args.n, args.k, args.l, seed=args.seed)
    text = "\n".join(str(key) for key in keys) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.n} keys to {args.out}", file=sys.stderr)
    return 0


def _read_keys(path: str) -> List[int]:
    if path == "-":
        lines = sys.stdin.read().split()
    else:
        with open(path) as handle:
            lines = handle.read().split()
    return [int(token) for token in lines]


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.sortedness.metrics import measure_sortedness

    keys = _read_keys(args.path)
    if not keys:
        print("no keys to measure", file=sys.stderr)
        return 1
    report = measure_sortedness(keys)
    print(f"n           : {report.n}")
    print(f"K           : {report.k} ({report.k_fraction:.2%})")
    print(f"L           : {report.l} ({report.l_fraction:.2%})")
    print(f"inversions  : {report.inversions}")
    print(f"degree      : {report.degree()}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.bench.experiments import common
    from repro.bench.runner import run_phases, speedup

    keys = common.keys_for(args.n, args.k, args.l, seed=args.seed)
    ops = common.mixed_ops(keys, args.read_fraction, seed=args.seed)
    base = run_phases(common.baseline_btree_factory(), [("mixed", ops)], label="B+")
    sa = run_phases(
        common.sa_btree_factory(common.buffer_config(args.n, args.buffer_fraction)),
        [("mixed", ops)],
        label="SA",
    )
    print(
        f"workload: n={args.n}, K={args.k:.0%}, L={args.l:.0%}, "
        f"{args.read_fraction:.0%} reads, buffer={args.buffer_fraction:.1%}"
    )
    print(f"B+-tree    : {base.sim_ns / 1e6:9.2f} ms simulated")
    print(f"SA B+-tree : {sa.sim_ns / 1e6:9.2f} ms simulated")
    print(f"speedup    : {speedup(base, sa):.2f}x")
    stats = sa.sware_stats
    print(
        f"ingestion  : {stats['bulk_loaded_entries']:.0f} bulk-loaded, "
        f"{stats['top_inserted_entries']:.0f} top-inserted, "
        f"{stats['flushes']:.0f} flushes"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run a table entry, print its report, then evaluate its shape check."""
    entry = EXPERIMENTS[args.name]
    module, kwargs = entry.module, entry.run_kwargs(args.n)
    if args.json is None and not args.profile:
        result = module.run(**kwargs)
        print(result.report)
    else:
        result = _run_observed_experiment(args, module, kwargs)
    try:
        module.check(result)
    except AssertionError as exc:
        print(f"{args.name}: shape check failed: {_failed_assertion(exc)}", file=sys.stderr)
        return 1
    return 0


def _failed_assertion(exc: AssertionError) -> str:
    """``file:line: <the assert statement> <its message>`` for a failed check."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    last = getattr(frame, "end_lineno", None) or frame.lineno  # 3.11+
    statement = " ".join(
        linecache.getline(frame.filename, line).strip()
        for line in range(frame.lineno, last + 1)
    )
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return f"{where}: {statement}" + (f" {exc}" if str(exc) else "")


def _run_observed_experiment(args: argparse.Namespace, module, kwargs: dict):
    """Run under ``repro.obs``: ``--profile`` prints the sampled per-layer
    wall-time table; ``--json`` writes the artifact (with the profile section
    when both are given)."""
    from pathlib import Path

    from repro.bench.telemetry import (
        build_bench_artifact,
        save_bench_artifact,
        validate_bench_artifact,
    )
    from repro.obs import Observability, SamplingProfiler, observe

    obs = Observability(trace=True)
    if args.profile:
        obs.profiler = SamplingProfiler()
        obs.profiler.start()
    try:
        with observe(obs):
            result = module.run(**kwargs)
    finally:
        if obs.profiler is not None:
            obs.profiler.stop()
    print(result.report)
    if obs.profiler is not None:
        print("profile (sampled at %.0f Hz):" % obs.profiler.hz)
        print(obs.profiler.format_table())
    if obs.tracer.dropped:
        print(
            f"note: trace ring truncated — {obs.tracer.dropped} events dropped",
            file=sys.stderr,
        )
    if args.json is None:
        return result
    doc = build_bench_artifact(args.name, obs)
    errors = validate_bench_artifact(doc)
    if errors:  # pragma: no cover - a bug, not an input error
        raise SystemExit("invalid bench artifact: " + "; ".join(errors))
    save_bench_artifact(doc, Path(args.json))
    default_path = save_bench_artifact(doc)
    print(f"wrote telemetry to {args.json} and {default_path}", file=sys.stderr)
    return result


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.storage.pagefile import DEFAULT_SLOT_SIZE, CheckpointStore, rebuild_index

    if args.sharded:
        return _recover_sharded_root(args.checkpoint)
    slot_size = args.slot_size if args.slot_size is not None else DEFAULT_SLOT_SIZE
    try:
        if args.out is None:
            index, report = CheckpointStore(args.checkpoint, slot_size).recover(args.wal)
        else:
            index, report = rebuild_index(
                args.checkpoint, args.wal, out_path=args.out, slot_size=slot_size
            )
    except ReproError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    check = getattr(index.backend, "check_invariants", None)
    if check is not None:
        check()
    print(report.describe())
    return 0


def _recover_sharded_root(root: str) -> int:
    from repro.errors import ReproError
    from repro.net.sharded import recover_sharded

    try:
        index, reports = recover_sharded(root)
    except ReproError as exc:
        print(f"sharded recovery failed: {exc}", file=sys.stderr)
        return 1
    try:
        total = 0
        for shard_id in sorted(reports):
            report = reports[shard_id]
            print(f"--- shard {shard_id} ---")
            print(report.describe())
        for shard in index._shards:
            check = getattr(shard.index.backend, "check_invariants", None)
            if check is not None:
                check()
            total += index._shard_size(shard)
        print(f"recovered {len(reports)} shards, {total} live entries")
    finally:
        index.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import SWAREConfig
    from repro.errors import ReproError
    from repro.net.server import CommitFailed, IndexServer
    from repro.net.sharded import (
        MANIFEST_NAME,
        ShardedConfig,
        ShardedSortednessAwareIndex,
        recover_sharded,
    )

    try:
        if os.path.exists(os.path.join(args.root, MANIFEST_NAME)):
            index, reports = recover_sharded(args.root)
            print(f"recovered {len(reports)} shards from {args.root}", file=sys.stderr)
        else:
            index = ShardedSortednessAwareIndex(
                args.root,
                config=ShardedConfig(
                    n_shards=args.shards,
                    split_threshold=args.split_threshold,
                    fsync_policy=args.fsync,
                    initial_key_range=tuple(args.key_range),
                    index_config=SWAREConfig(),
                ),
            )
    except ReproError as exc:
        print(f"cannot open {args.root}: {exc}", file=sys.stderr)
        return 1

    server = IndexServer(index, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(
            f"serving {index.n_shards} shards on {server.host}:{server.port} "
            f"(fsync={index.config.fsync_policy})",
            file=sys.stderr,
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except CommitFailed as exc:
        print(f"{exc}; recover with `repro recover {args.root} --sharded`", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.net.loadgen import LoadGenConfig, run_load
    from repro.obs import Observability, observe

    cfg = LoadGenConfig(
        clients=args.clients,
        ops_per_client=args.ops,
        arrival=args.arrival,
        open_rate=args.open_rate,
        key_space=args.key_space,
        seed=args.seed,
        shards=args.shards,
        split_threshold=args.split_threshold,
        fsync_policy=args.fsync,
        verify=not args.no_verify,
    )
    obs = Observability(trace=True)
    with observe(obs):
        summary = run_load(cfg, obs=obs, host=args.host, port=args.port)

    print(
        f"{summary['arrival']} loop: {summary['clients']} clients x "
        f"{args.ops} ops -> {summary['total_ops']} ops in "
        f"{summary['wall_s']:.2f}s = {summary['ops_per_s']:.0f} ops/s "
        f"({summary['shards']} shards, {summary['splits']} splits, "
        f"fsync={summary['fsync_policy']})"
    )
    for kind, stats in sorted(summary["latency"].items()):
        if not stats["n"]:
            # The kind never fired this run; percentiles are null, not 0.
            print(f"  {kind:9s} n=     0  (no samples)")
            continue
        print(
            f"  {kind:9s} n={stats['n']:6.0f}  p50={stats['p50_ns'] / 1e6:7.2f}ms  "
            f"p95={stats['p95_ns'] / 1e6:7.2f}ms  p99={stats['p99_ns'] / 1e6:7.2f}ms"
        )
    if cfg.verify:
        print(f"oracle: {summary['oracle_checks']} scatter-gather checks passed")

    if args.json is not None:
        from repro.bench.telemetry import (
            build_bench_artifact,
            save_bench_artifact,
            validate_bench_artifact,
        )

        doc = build_bench_artifact("serve", obs, extra={"summary": summary})
        problems = validate_bench_artifact(doc)
        if problems:
            for problem in problems:
                print(f"artifact invalid: {problem}", file=sys.stderr)
            return 1
        path = save_bench_artifact(doc, args.json)
        with open(path) as handle:
            json.load(handle)  # sanity: what we wrote parses
        print(f"wrote {path}")
    return 0


def _run_observed_demo(args: argparse.Namespace, obs) -> None:
    """The `stats`/`trace` workload: one observed SA B+-tree mixed run."""
    from repro.bench.experiments import common
    from repro.bench.runner import run_phases
    from repro.obs import observe

    keys = common.keys_for(args.n, args.k, args.l, seed=args.seed)
    ops = common.mixed_ops(keys, args.read_fraction, seed=args.seed)
    with observe(obs):
        run_phases(
            common.sa_btree_factory(common.buffer_config(args.n, 0.01)),
            [("mixed", ops)],
            label="SA",
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.bench.report import format_histograms
    from repro.obs import Observability
    from repro.obs.export import snapshot_to_prometheus

    if args.from_json is not None:
        try:
            with open(args.from_json) as handle:
                doc = json.load(handle)
        except OSError as exc:
            print(f"cannot read {args.from_json}: {exc.strerror}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"{args.from_json} is not valid JSON: {exc}", file=sys.stderr)
            return 1
        snapshot = doc.get("metrics", doc)
    else:
        obs = Observability()
        _run_observed_demo(args, obs)
        snapshot = obs.registry.snapshot()
    if args.human:
        print(format_histograms(snapshot.get("histograms", {}), title="Histograms"))
    else:
        sys.stdout.write(snapshot_to_prometheus(snapshot))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import Observability
    from repro.obs.export import render_trace, to_perfetto, validate_perfetto

    obs = Observability(trace=True)
    _run_observed_demo(args, obs)
    sys.stdout.write(render_trace(obs.tracer, limit=args.limit))
    if args.perfetto is not None:
        events = obs.tracer.events()
        doc = to_perfetto(events, tracer=obs.tracer)
        errors = validate_perfetto(doc)
        if errors:  # pragma: no cover - a bug, not an input error
            for error in errors:
                print(f"invalid perfetto trace: {error}", file=sys.stderr)
            return 1
        with open(args.perfetto, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"wrote {len(events)} events as Chrome trace-event JSON to "
            f"{args.perfetto} (open in ui.perfetto.dev)",
            file=sys.stderr,
        )
        if obs.tracer.dropped:
            print(
                f"warning: trace truncated — {obs.tracer.dropped} earlier "
                "events were dropped by the ring buffer; the exported tree "
                "covers only the retained window",
                file=sys.stderr,
            )
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from repro.obs.doctor import (
        evaluate_artifact,
        evaluate_obs,
        format_report,
        report_document,
        run_scenario,
        split_findings,
    )

    if args.from_json is not None:
        try:
            with open(args.from_json) as handle:
                doc = json.load(handle)
        except OSError as exc:
            print(f"cannot read {args.from_json}: {exc.strerror}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"{args.from_json} is not valid JSON: {exc}", file=sys.stderr)
            return 2
        findings = evaluate_artifact(doc)
        source = args.from_json
    else:
        obs = run_scenario(
            args.scenario,
            n=args.n,
            seed=args.seed,
            read_fraction=args.read_fraction,
            buffer_fraction=args.buffer_fraction,
            trace=True,
        )
        # One collector poll serves both the evaluation and the optional
        # bench artifact below (poll=False reuses it).
        findings = evaluate_obs(obs)
        source = f"scenario:{args.scenario}"
        if args.bench is not None:
            from pathlib import Path

            from repro.bench.telemetry import (
                build_bench_artifact,
                save_bench_artifact,
                validate_bench_artifact,
            )

            doc = build_bench_artifact(f"doctor_{args.scenario}", obs, poll=False)
            errors = validate_bench_artifact(doc)
            if errors:  # pragma: no cover - a bug, not an input error
                for error in errors:
                    print(f"invalid bench artifact: {error}", file=sys.stderr)
                return 1
            save_bench_artifact(doc, Path(args.bench))
            print(f"wrote telemetry to {args.bench}", file=sys.stderr)
    sys.stdout.write(format_report(findings, source=source))
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(report_document(findings, source=source), handle, indent=2)
            handle.write("\n")
        print(f"wrote doctor report to {args.json}", file=sys.stderr)
    actionable, _notes = split_findings(findings)
    return 1 if (args.check and actionable) else 0


def _cmd_top(args: argparse.Namespace) -> int:
    import threading

    from repro.obs import Observability
    from repro.obs.doctor import run_scenario
    from repro.obs.top import live_loop

    obs = Observability(trace=True, monitors=True)
    done = threading.Event()
    failure: List[BaseException] = []

    def workload() -> None:
        try:
            run_scenario(
                args.scenario,
                n=args.n,
                seed=args.seed,
                read_fraction=args.read_fraction,
                obs=obs,
            )
        except BaseException as exc:  # surfaced after the loop stops
            failure.append(exc)
        finally:
            done.set()

    worker = threading.Thread(target=workload, name="repro-top-workload", daemon=True)
    worker.start()
    live_loop(
        obs,
        done,
        interval=args.interval,
        frames=args.frames,
        clear=not args.no_clear,
        title=f"repro top — scenario:{args.scenario} (n={args.n})",
    )
    worker.join()
    if failure:
        print(f"workload failed: {failure[0]!r}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "measure": _cmd_measure,
        "demo": _cmd_demo,
        "experiment": _cmd_experiment,
        "recover": _cmd_recover,
        "serve": _cmd_serve,
        "bench-serve": _cmd_bench_serve,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "doctor": _cmd_doctor,
        "top": _cmd_top,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
