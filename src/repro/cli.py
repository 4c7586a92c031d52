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
    table3, the §V-D sweeps, the extensions and the component ablation) at
    its pinned ``n``, or at ``--n``, print its report, and evaluate its
    paper-shape check: a failed check is printed to stderr and exits 1.
    At the pinned ``n`` the report equals ``results/<report>.txt``.
    ``--profile`` also prints the sampled per-layer wall-time table.
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
    acknowledgement. The server always carries a monitored
    :class:`~repro.obs.Observability` (tracing off); its snapshot is the
    STATS reply's ``obs`` key.
``observe``
    Take observability snapshots from a source — a seeded in-process
    scenario (``--scenario healthy|drift``) or a running server's STATS
    reply (``--connect HOST:PORT``) — and render one view: Prometheus text
    (``--prom``), the event timeline (``--timeline``), a Perfetto trace
    (``--perfetto PATH``), the health findings (``--doctor``, the default;
    ``--check`` exits 1 on a warning or critical one) or a live dashboard
    (``--top``). Only the timeline and Perfetto views trace the scenario.
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

    obs = sub.add_parser(
        "observe", help="render observability snapshots of a scenario or a server"
    )
    source = obs.add_mutually_exclusive_group()
    source.add_argument(
        "--scenario",
        choices=["healthy", "drift"],
        default="healthy",
        help="run this seeded workload in process (default healthy)",
    )
    source.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="poll a running `repro serve` over STATS instead",
    )
    obs.add_argument("--n", type=int, default=20_000, help="scenario size")
    obs.add_argument("--seed", type=int, default=7, help="scenario seed")
    view = obs.add_mutually_exclusive_group()
    view.add_argument(
        "--prom", action="store_true", help="Prometheus text exposition"
    )
    view.add_argument(
        "--timeline",
        type=int,
        nargs="?",
        const=200,
        default=None,
        metavar="N",
        help="print the last N traced events (default 200)",
    )
    view.add_argument(
        "--perfetto",
        type=str,
        default=None,
        metavar="PATH",
        help="write the trace as Chrome trace-event JSON (ui.perfetto.dev)",
    )
    view.add_argument(
        "--doctor", action="store_true", help="health findings (the default view)"
    )
    view.add_argument(
        "--top", action="store_true", help="refreshing terminal dashboard"
    )
    obs.add_argument(
        "--check",
        action="store_true",
        help="with --doctor: exit 1 when a warning/critical finding fires",
    )
    obs.add_argument(
        "--interval", type=float, default=0.5, help="--top: seconds between frames"
    )
    obs.add_argument(
        "--frames",
        type=int,
        default=None,
        help="--top: stop after N frames (polls with --connect)",
    )
    obs.add_argument(
        "--no-clear",
        action="store_true",
        help="--top: append frames instead of clearing the screen (logs, CI)",
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
    from repro.errors import KeyRangeError
    from repro.sortedness.metrics import measure_sortedness
    from repro.storage.pages import check_keys

    keys = _read_keys(args.path)
    if not keys:
        print("no keys to measure", file=sys.stderr)
        return 1
    try:
        check_keys(min(keys), max(keys))
    except KeyRangeError as exc:
        print(f"cannot measure: {exc}", file=sys.stderr)
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
    module, n = entry.module, entry.n if args.n is None else args.n
    if not args.profile:
        result = module.run(n)
        print(result.report)
    else:
        from repro.obs.profiler import HZ, SamplingProfiler

        with SamplingProfiler() as profiler:
            result = module.run(n)
        print(result.report)
        print("profile (sampled at %.0f Hz):" % HZ)
        print(profiler.format_table())
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
    print(report.describe(len(index.items())))
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
        shards = {shard.shard_id: shard.index for shard in index._shards}
        for shard_id in sorted(reports):
            print(f"--- shard {shard_id} ---")
            print(reports[shard_id].describe(len(shards[shard_id].items())))
        for shard_index in shards.values():
            check = getattr(shard_index.backend, "check_invariants", None)
            if check is not None:
                check()
        # Each shard's items() above are its own; the total counts the
        # routed view, where a buffered overwrite or tombstone of a
        # checkpointed key is one entry or none, and a key a split left on
        # its donor is not counted twice.
        print(f"recovered {len(reports)} shards, {len(index.items())} live entries")
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
    from repro.obs import Observability

    # One monitored hub shared by the index (which feeds it) and the server
    # (whose STATS reply carries its snapshot); tracing stays off.
    obs = Observability(monitors=True)
    try:
        if os.path.exists(os.path.join(args.root, MANIFEST_NAME)):
            index, reports = recover_sharded(args.root, obs=obs)
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
                obs=obs,
            )
    except ReproError as exc:
        print(f"cannot open {args.root}: {exc}", file=sys.stderr)
        return 1

    server = IndexServer(index, host=args.host, port=args.port, obs=obs)

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


def _cmd_observe(args: argparse.Namespace) -> int:
    """Take snapshots from one source and render one view of them."""
    import threading

    from repro.errors import ReproError
    from repro.obs import Observability
    from repro.obs.doctor import evaluate, format_report, run_scenario, split_findings
    from repro.obs.top import live_loop

    traced = args.timeline is not None or args.perfetto is not None
    if args.connect is not None and traced:
        print("--timeline/--perfetto need --scenario: a server does not trace", file=sys.stderr)
        return 2
    if args.check and (args.prom or args.top or traced):
        print("--check goes with the --doctor view", file=sys.stderr)
        return 2

    if args.connect is not None:
        from repro.net.client import SyncIndexClient

        host, _, port = args.connect.rpartition(":")
        try:
            client = SyncIndexClient(host=host or "127.0.0.1", port=int(port))
        except (OSError, ValueError) as exc:
            print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
            return 1
        source = f"server:{args.connect}"

        def poll() -> dict:
            return client.stats()["obs"]

        done = threading.Event()  # a server never finishes; --frames stops
        try:
            if args.top:
                live_loop(
                    poll, done, interval=args.interval, frames=args.frames,
                    clear=not args.no_clear, title=f"repro observe — {source}",
                )
                return 0
            snap = poll()
        except (OSError, ReproError) as exc:
            print(f"lost {args.connect}: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            return 0
        finally:
            client.close()
    else:
        obs = Observability(trace=traced, monitors=True)
        source = f"scenario:{args.scenario}"
        if args.top:
            return _top_scenario(args, obs, source)
        run_scenario(args.scenario, n=args.n, seed=args.seed, obs=obs)
        snap = obs.snapshot()

    if args.prom:
        from repro.obs.export import snapshot_to_prometheus

        sys.stdout.write(snapshot_to_prometheus(snap["metrics"]))
    elif args.timeline is not None:
        from repro.obs.export import render_trace

        sys.stdout.write(render_trace(obs.tracer, limit=args.timeline))
    elif args.perfetto is not None:
        return _write_perfetto(obs.tracer, args.perfetto)
    else:
        findings = evaluate(snap)
        sys.stdout.write(format_report(findings, source=source))
        actionable, _notes = split_findings(findings)
        return 1 if (args.check and actionable) else 0
    return 0


def _top_scenario(args: argparse.Namespace, obs, source: str) -> int:
    """The dashboard over a scenario running on a daemon worker thread.

    With ``--frames`` the loop may stop before the workload does; the
    worker is joined only once it has finished, so the command returns
    after its last frame instead of waiting out the run.
    """
    import threading

    from repro.obs.doctor import run_scenario
    from repro.obs.top import live_loop

    done = threading.Event()
    failure: List[BaseException] = []

    def workload() -> None:
        try:
            run_scenario(args.scenario, n=args.n, seed=args.seed, obs=obs)
        except BaseException as exc:  # surfaced after the loop stops
            failure.append(exc)
        finally:
            done.set()

    worker = threading.Thread(target=workload, name="repro-observe-workload", daemon=True)
    worker.start()
    live_loop(
        obs.snapshot, done, interval=args.interval, frames=args.frames,
        clear=not args.no_clear, title=f"repro observe — {source} (n={args.n})",
    )
    if done.is_set():
        worker.join()
    if failure:
        print(f"workload failed: {failure[0]!r}", file=sys.stderr)
        return 1
    return 0


def _write_perfetto(tracer, path: str) -> int:
    import json

    from repro.obs.export import to_perfetto, validate_perfetto

    events = tracer.events()
    doc = to_perfetto(events, tracer=tracer)
    errors = validate_perfetto(doc)
    if errors:  # pragma: no cover - a bug, not an input error
        for error in errors:
            print(f"invalid perfetto trace: {error}", file=sys.stderr)
        return 1
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {len(events)} events as Chrome trace-event JSON to "
        f"{path} (open in ui.perfetto.dev)",
        file=sys.stderr,
    )
    if tracer.dropped:
        print(
            f"warning: trace truncated — {tracer.dropped} earlier "
            "events were dropped by the ring buffer; the exported tree "
            "covers only the retained window",
            file=sys.stderr,
        )
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
        "observe": _cmd_observe,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
