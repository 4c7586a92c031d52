"""Closed/open-loop load generator behind ``repro bench-serve``.

Boots a sharded server (or targets an already-running one), drives it
with N concurrent client connections over a mixed PUT/GET/RANGE/
PUT_MANY/GET_MANY workload, and reports latency percentiles (p50/p95/p99
from :mod:`repro.obs` histograms plus exact percentiles over the raw
samples) and a ``serve_ops_per_s`` throughput gauge.

**Arrival models.** ``closed`` is the classic closed loop: each client
issues its next operation when the previous one completes, so offered
load adapts to service rate. ``open`` fires operations on a fixed
schedule (``open_rate`` ops/s per client) *without* waiting for
completions, and measures latency from the *scheduled* send time — the
coordinated-omission-aware convention: a stalled server inflates the
tail instead of silently thinning the offered load.

**Correctness oracle.** Each client owns the keys congruent to its id
modulo the client count, so the final state is deterministic despite
concurrent interleavings. After the load drains, the generator replays
the expected state into a fresh *single-node* :class:`SortednessAwareIndex`
and compares the server's scatter-gather ``RANGE`` results (full range
plus sampled sub-ranges) and sampled ``GET_MANY`` results against it —
the acceptance check that sharding + the wire protocol are invisible to
clients.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex
from repro.net.client import IndexClient
from repro.net.server import IndexServer
from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex
from repro.obs import Observability, current_obs
from repro.storage.wal import FSYNC_BATCH

#: Latency buckets for the serve-path histograms (ns): 50us .. 500ms.
SERVE_LATENCY_BUCKETS_NS = (
    5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 5e8,
)

#: Operation mix: (kind, weight). Batch ops count as one request.
DEFAULT_MIX = (
    ("put", 0.45),
    ("get", 0.25),
    ("range", 0.10),
    ("put_many", 0.10),
    ("get_many", 0.10),
)


@dataclass(frozen=True)
class LoadGenConfig:
    clients: int = 4
    ops_per_client: int = 1000
    arrival: str = "closed"  # "closed" | "open"
    open_rate: float = 2000.0  # per-client target ops/s for the open loop
    key_space: int = 50_000
    batch_size: int = 16
    range_span: int = 500
    value_bytes: int = 16
    seed: int = 1234
    shards: int = 4
    split_threshold: int = 0  # 0 = no splitting during the bench
    fsync_policy: str = FSYNC_BATCH
    verify: bool = True

    def __post_init__(self) -> None:
        if self.arrival not in ("closed", "open"):
            raise ValueError(f"arrival must be closed|open, got {self.arrival!r}")
        if self.clients < 1 or self.ops_per_client < 1:
            raise ValueError("clients and ops_per_client must be >= 1")


class _ClientWorker:
    """One connection's workload: deterministic ops over its key partition."""

    def __init__(self, client_id: int, cfg: LoadGenConfig, oracle: Dict[int, object]):
        self.client_id = client_id
        self.cfg = cfg
        self.oracle = oracle  # shared; each client writes only its own keys
        self.rng = random.Random(cfg.seed * 1000 + client_id)
        self.latencies: Dict[str, List[int]] = {}
        self.pad = "x" * cfg.value_bytes

    def _own_key(self) -> int:
        """A key this client owns (id-congruent modulo the client count)."""
        cfg = self.cfg
        base = self.rng.randrange(0, cfg.key_space // cfg.clients)
        return base * cfg.clients + self.client_id

    def _op(self, step: int):
        """(kind, coroutine-factory, oracle-mutation) for one operation."""
        roll = self.rng.random()
        acc = 0.0
        for kind, weight in DEFAULT_MIX:
            acc += weight
            if roll < acc:
                break
        cfg = self.cfg
        if kind == "put":
            key = self._own_key()
            value = f"c{self.client_id}.{step}.{self.pad}"
            self.oracle[key] = value
            return kind, lambda c: c.put(key, value)
        if kind == "get":
            key = self._own_key()
            return kind, lambda c: c.get(key)
        if kind == "range":
            lo = self.rng.randrange(0, cfg.key_space)
            hi = lo + self.rng.randrange(1, cfg.range_span)
            return kind, lambda c: c.range_query(lo, hi)
        if kind == "put_many":
            items = []
            for j in range(cfg.batch_size):
                key = self._own_key()
                value = f"c{self.client_id}.{step}.{j}.{self.pad}"
                items.append((key, value))
                self.oracle[key] = value
            return kind, lambda c: c.put_many(items)
        keys = [self._own_key() for _ in range(cfg.batch_size)]
        return "get_many", lambda c: c.get_many(keys)

    def _record(self, kind: str, latency_ns: int, obs: Observability) -> None:
        self.latencies.setdefault(kind, []).append(latency_ns)
        obs.observe_hist(
            f"serve_{kind}_latency_ns", latency_ns, buckets=SERVE_LATENCY_BUCKETS_NS
        )

    async def run_closed(self, client: IndexClient, obs: Observability) -> None:
        for step in range(self.cfg.ops_per_client):
            kind, fire = self._op(step)
            start = time.perf_counter_ns()
            await fire(client)
            self._record(kind, time.perf_counter_ns() - start, obs)

    async def run_open(self, client: IndexClient, obs: Observability) -> None:
        interval = 1.0 / self.cfg.open_rate
        origin = time.perf_counter()
        pending: List[asyncio.Task] = []

        async def timed(kind: str, fire, scheduled_ns: int) -> None:
            await fire(client)
            self._record(kind, time.perf_counter_ns() - scheduled_ns, obs)

        for step in range(self.cfg.ops_per_client):
            target = origin + step * interval
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            kind, fire = self._op(step)
            # Latency clock starts at the *scheduled* instant, not send time.
            scheduled_ns = int(target * 1e9)
            now_ns = time.perf_counter_ns()
            pending.append(
                asyncio.create_task(timed(kind, fire, min(scheduled_ns, now_ns)))
            )
        await asyncio.gather(*pending)


def _percentile(sorted_samples: List[int], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` for an empty bucket.

    ``None`` (JSON ``null``) is deliberate: a 0.0 latency for an op kind
    that never fired reads as "infinitely fast" to summary readers.
    A single-sample bucket is legitimate — every percentile is that sample.
    """
    if not sorted_samples:
        return None
    position = min(len(sorted_samples) - 1, int(q * (len(sorted_samples) - 1) + 0.5))
    return float(sorted_samples[position])


async def _verify_against_single_node(
    client: IndexClient, oracle: Dict[int, object], cfg: LoadGenConfig
) -> int:
    """Compare the served view with a single-node index; returns checks run.

    Raises ``AssertionError`` on the first divergence — a bench whose
    results are wrong must not publish numbers.
    """
    single = SortednessAwareIndex(
        __import__("repro.btree.btree", fromlist=["BPlusTree"]).BPlusTree(),
        config=SWAREConfig(),
    )
    single.put_many(sorted(oracle.items()))
    checks = 0
    full = await client.range_query(-(1 << 62), 1 << 62)
    expect = single.range_query(-(1 << 62), 1 << 62)
    if full != expect:
        raise AssertionError(
            f"full scatter-gather diverged: {len(full)} vs {len(expect)} rows"
        )
    checks += 1
    rng = random.Random(cfg.seed)
    for _ in range(32):
        lo = rng.randrange(0, cfg.key_space)
        hi = lo + rng.randrange(1, cfg.range_span * 4)
        got = await client.range_query(lo, hi)
        want = single.range_query(lo, hi)
        if got != want:
            raise AssertionError(f"range [{lo},{hi}] diverged")
        checks += 1
    keys = [rng.randrange(0, cfg.key_space) for _ in range(256)]
    if await client.get_many(keys) != single.get_many(keys):
        raise AssertionError("get_many diverged")
    return checks + 1


async def _run_async(
    cfg: LoadGenConfig,
    obs: Observability,
    host: Optional[str],
    port: Optional[int],
    root: Optional[str],
) -> Dict[str, object]:
    server: Optional[IndexServer] = None
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if host is None:
        # Self-hosted: boot a fresh sharded server on a loopback port.
        if root is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            root = os.path.join(tmp.name, "db")
        index = ShardedSortednessAwareIndex(
            root,
            config=ShardedConfig(
                n_shards=cfg.shards,
                split_threshold=cfg.split_threshold,
                fsync_policy=cfg.fsync_policy,
                initial_key_range=(0, cfg.key_space),
            ),
            obs=obs,
        )
        server = IndexServer(index, obs=obs)
        await server.start()
        host, port = server.host, server.port
    assert port is not None

    oracle: Dict[int, object] = {}
    workers = [_ClientWorker(i, cfg, oracle) for i in range(cfg.clients)]
    clients = [await IndexClient.connect(host, port) for _ in workers]
    wall_start = time.perf_counter_ns()
    try:
        with obs.span("loadgen.run", clients=cfg.clients, arrival=cfg.arrival):
            if cfg.arrival == "closed":
                await asyncio.gather(
                    *[w.run_closed(c, obs) for w, c in zip(workers, clients)]
                )
            else:
                await asyncio.gather(
                    *[w.run_open(c, obs) for w, c in zip(workers, clients)]
                )
        wall_ns = time.perf_counter_ns() - wall_start
        checks = 0
        if cfg.verify:
            checks = await _verify_against_single_node(clients[0], oracle, cfg)
        server_stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
        if server is not None:
            await server.stop()
        if tmp is not None:
            tmp.cleanup()

    # ---- aggregate -----------------------------------------------------
    merged: Dict[str, List[int]] = {}
    for worker in workers:
        for kind, samples in worker.latencies.items():
            merged.setdefault(kind, []).extend(samples)
    total_ops = sum(len(s) for s in merged.values())
    ops_per_s = total_ops / (wall_ns / 1e9) if wall_ns else 0.0
    obs.gauge("serve_ops_per_s", ops_per_s)

    kind_summary: Dict[str, Dict[str, object]] = {}
    # Enumerate the full op mix, not just the kinds that happened to fire:
    # a short run can miss a low-weight kind entirely, and a silently
    # absent bucket is indistinguishable from a forgotten one. Empty
    # buckets report explicit nulls and publish no latency gauges (a gauge
    # must never carry a fabricated 0 ns).
    all_kinds = sorted({kind for kind, _ in DEFAULT_MIX} | set(merged))
    for kind in all_kinds:
        samples = merged.get(kind, [])
        samples.sort()
        stats = {
            "n": len(samples),
            "p50_ns": _percentile(samples, 0.50),
            "p95_ns": _percentile(samples, 0.95),
            "p99_ns": _percentile(samples, 0.99),
            "mean_ns": sum(samples) / len(samples) if samples else None,
        }
        kind_summary[kind] = stats
        if not samples:
            continue
        obs.gauge(f"serve_{kind}_p50_ns", stats["p50_ns"])
        obs.gauge(f"serve_{kind}_p99_ns", stats["p99_ns"])

    return {
        "arrival": cfg.arrival,
        "clients": cfg.clients,
        "shards": server_stats["n_shards"],
        "splits": server_stats["splits"],
        "fsync_policy": cfg.fsync_policy,
        "total_ops": total_ops,
        "wall_s": wall_ns / 1e9,
        "ops_per_s": ops_per_s,
        "oracle_checks": checks,
        "latency": kind_summary,
        "server": server_stats["server"],
    }


def run_load(
    cfg: LoadGenConfig,
    obs: Optional[Observability] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    root: Optional[str] = None,
) -> Dict[str, object]:
    """Run the load (self-hosting a server unless ``host`` is given)."""
    obs = obs if obs is not None else current_obs()
    return asyncio.run(_run_async(cfg, obs, host, port, root))
