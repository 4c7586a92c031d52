"""``serve_*``: the plan through ``IndexClient`` -> ``IndexServer`` -> shards.

The server is self-hosted on the benchmark's own event loop over real
loopback TCP (as ``repro.net.loadgen`` does): one process, one thread,
``NPROC`` connections. Load is a closed loop — a caller of an index waits
for its ack — with ``outstanding`` requests in flight per connection.

Requests are issued in rounds of ``ROUND_REQUESTS``; a round is the timed
unit of throughput (all connections start it together and it ends when the
last reply is in), a request the timed unit of latency.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
from array import array
from typing import Dict, List, Optional, Tuple

from repro import ReproError, WriteAheadLog
from repro.net import (
    IndexClient,
    IndexServer,
    ShardedConfig,
    ShardedSortednessAwareIndex,
    recover_sharded,
)
from repro.net import protocol as wire

from ladder import (
    batches,
    btree_rung,
    checkpoint_rung,
    split_by_zone,
    sware_metrics,
    sware_rung,
)
from measure import (
    Spans,
    by_kind,
    dir_bytes,
    fold_min,
    latency_metrics,
    mean,
    new_timings,
    now,
    peak_rss_mb,
    percentile,
    run_sync,
    state_divergence,
)
from plans import GET, GET_MANY, MUTATING, PUT, PUT_MANY, RANGE, ZONE, ZONE_BITS, Plan, own_rows
from spec import NPROC, PER_LAYER, ROUND_REQUESTS, Workload

USER_BYTES_PER_RECORD = 8 + 16  # int64 key + 16-byte value
EVERYTHING = (-(1 << 62), 1 << 62)
WAL_NAME = "wal.log"
CALL_NAMES = ("put", "get", "range_query", "put_many", "get_many")  # by opcode


def shard_config() -> ShardedConfig:
    """Two shards, one per key zone; splits off; acks wait for the group fsync."""
    return ShardedConfig(
        n_shards=2, split_threshold=0, fsync_policy="batch", initial_key_range=(0, 2 * ZONE)
    )


def build_root(root: str, plan: Plan, opener=open) -> ShardedSortednessAwareIndex:
    """The prepared root — a checkpoint plus a WAL tail — and its open index."""
    index = ShardedSortednessAwareIndex(root, shard_config(), opener=opener)
    for batch in batches(plan.preload[: plan.checkpointed]):
        index.put_many(batch)
    index.checkpoint_all()
    for batch in batches(plan.preload[plan.checkpointed :]):
        index.put_many(batch)
    index.commit()
    return index


async def serve(index) -> Tuple[IndexServer, List[IndexClient]]:
    server = IndexServer(index)
    await server.start()
    clients = [await IndexClient.connect(server.host, server.port) for _ in range(NPROC)]
    return server, clients


async def shutdown(server: IndexServer, clients: List[IndexClient]) -> None:
    for client in clients:
        await client.close()
    await server.stop()


async def timed_setup(root: str):
    """Nothing -> ready to serve: recover the root, start, connect."""
    t0 = now()
    index, reports = recover_sharded(root)
    recover_ns = now() - t0
    server, clients = await serve(index)
    return server, clients, now() - t0, recover_ns, reports


async def drive(clients, plan: Plan, workload: Workload, start: array, lat: array,
                rounds: list, acked: Optional[list] = None) -> int:
    """Issue the plan over the wire; returns wrong or failed requests."""
    failures = 0

    async def worker(client: IndexClient, requests) -> None:
        nonlocal failures
        for idx, conn, op, a, b, expected in requests:
            ok = True
            t0 = now()
            try:
                if op == PUT:
                    await client.put(a, b)
                    t1 = now()
                elif op == GET:
                    got = await client.get(a)
                    t1 = now()
                    ok = got == expected
                elif op == RANGE:
                    got = await client.range_query(a, b)
                    t1 = now()
                    ok = own_rows(got, plan, conn) == expected
                elif op == PUT_MANY:
                    await client.put_many(a)
                    t1 = now()
                else:
                    got = await client.get_many(a)
                    t1 = now()
                    ok = got == expected
            except (ReproError, ConnectionError):  # an error reply is a failed op
                t1 = now()
                ok = False
            start[idx] = t0
            lat[idx] = t1 - t0
            if not ok:
                failures += 1
            elif acked is not None and op in MUTATING:
                acked.append(idx)

    per_conn = plan.by_conn()
    share = ROUND_REQUESTS // NPROC
    for first in range(0, len(per_conn[0]), share):
        t0 = now()
        # The workers of one connection share an iterator: requests leave in
        # plan order, ``outstanding`` of them in flight.
        slices = [iter(requests[first : first + share]) for requests in per_conn]
        await asyncio.gather(
            *(
                worker(client, requests)
                for client, requests in zip(clients, slices)
                for _ in range(workload.outstanding)
            )
        )
        rounds.append(now() - t0)
    return failures


async def repeat(workload: Workload, plan: Plan, reps: int, work: str):
    """The deployment as a user runs it, ``reps`` times from the prepared
    root: recover, start, connect, issue the plan, check the final state.
    Returns (template root, last root, set-up ns per repetition, best
    recover ns, recovery reports, per-request minima, per-round minima,
    wrong results)."""
    template, root = os.path.join(work, "template"), os.path.join(work, "root")
    build_root(template, plan).close()
    setup_ns = []
    lat_best = rounds_best = recover_best = None
    failed = 0
    for rep in range(reps):
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(template, root)
        gc.collect()
        server, clients, ns, recover_ns, reports = await timed_setup(root)
        setup_ns.append(ns)
        recover_best = min(recover_ns, recover_best or recover_ns)
        start, lat = new_timings(plan)
        rounds: List[int] = []
        failed += await drive(clients, plan, workload, start, lat, rounds)
        lat_best, rounds_best = fold_min(lat_best, lat), fold_min(rounds_best, rounds)
        if rep == reps - 1:
            failed += state_divergence(await clients[0].range_query(*EVERYTHING), plan)
        await shutdown(server, clients)
    return template, root, setup_ns, recover_best, reports, lat_best, rounds_best, failed


async def run_e2e(workload: Workload, plan: Plan, reps: int, work: str, _spans=None):
    """End-to-end metrics with tracing off: (metrics, attempted, failed)."""
    _template, root, setup_ns, _recover, _reports, lat_best, rounds_best, failed = await repeat(
        workload, plan, reps, work)
    metrics = {
        "setup_s": min(setup_ns) / 1e9,
        "ops_per_s": len(plan.requests) / (sum(rounds_best) / 1e9),
        **latency_metrics(plan, lat_best, 0.50, "p50_ms"),
        "peak_rss_mb": peak_rss_mb(),
        # What the deployment leaves on disk for the final state: the
        # prepared checkpoints plus WALs that now hold the measured writes.
        "disk_bytes_per_user_byte": dir_bytes(root) / (len(plan.model) * USER_BYTES_PER_RECORD),
    }
    return metrics, reps * len(plan.requests) + len(plan.model), failed


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
class CountingOpener:
    """``open``-compatible factory whose files count bytes and fsyncs and
    remember their length at the last fsync (what a power cut would keep)."""

    def __init__(self) -> None:
        self.bytes_written: Dict[str, int] = {}
        self.synced_length: Dict[str, int] = {}
        self.fsync_ns: List[Tuple[str, int]] = []

    def __call__(self, path: str, mode: str = "r"):
        return _CountingFile(open(path, mode), os.path.abspath(path), self)

    def wal_paths(self) -> List[str]:
        return [path for path in self.bytes_written if os.path.basename(path) == WAL_NAME]

    def wal_fsync_ns(self) -> List[int]:
        return [ns for path, ns in self.fsync_ns if os.path.basename(path) == WAL_NAME]


class _CountingFile:
    def __init__(self, fobj, path: str, log: CountingOpener):
        self._file, self._path, self._log = fobj, path, log
        log.bytes_written.setdefault(path, 0)

    def write(self, data) -> int:
        self._log.bytes_written[self._path] += len(data)
        return self._file.write(data)

    def fsync(self) -> None:  # the hook ``repro.storage.wal.fsync_file`` honours
        t0 = now()
        self._file.flush()
        os.fsync(self._file.fileno())
        self._log.fsync_ns.append((self._path, now() - t0))
        self._log.synced_length[self._path] = self._file.tell()

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()


class TracedIndex:
    """The sharded index as the server sees it, with a span around every call."""

    def __init__(self, inner: ShardedSortednessAwareIndex):
        self._inner = inner
        self.calls: List[Tuple[int, int, int, int]] = []  # (op, first key, start, end)
        self.commits: List[Tuple[int, int]] = []  # (start, end)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _call(self, op: int, first_key: int, method, *args):
        t0 = now()
        result = method(*args)
        self.calls.append((op, first_key, t0, now()))
        return result

    def put(self, key, value):
        return self._call(PUT, key, self._inner.put, key, value)

    def get(self, key):
        return self._call(GET, key, self._inner.get, key)

    def range_query(self, lo, hi):
        return self._call(RANGE, lo, self._inner.range_query, lo, hi)

    def put_many(self, items):
        return self._call(PUT_MANY, items[0][0], self._inner.put_many, items)

    def get_many(self, keys):
        return self._call(GET_MANY, keys[0], self._inner.get_many, keys)

    def commit(self):
        t0 = now()
        synced = self._inner.commit()
        self.commits.append((t0, now()))
        return synced


def link_calls(traced: TracedIndex, plan: Plan):
    """Pair the server's index calls with the requests that caused them.

    A connection's frames are handled in the order it sent them and the
    class of a call's first key names the connection, so the k-th call on a
    class is that connection's k-th request. Returns per-request (call
    start, call ns, commit wait ns) — the wait is from the end of a mutating
    call to the end of the first commit that starts after it, 0 for reads.
    """
    n = len(plan.requests)
    call_start, call_ns, wait_ns = (array("q", bytes(8 * n)) for _ in range(3))
    queues = [iter(requests) for requests in plan.by_conn()]
    commits = traced.commits
    commit = 0
    for op, first_key, t0, t1 in traced.calls:
        request = next(queues[first_key % NPROC], None)
        if request is None:
            continue  # the final full scan, after the plan
        if request[2] != op:
            raise RuntimeError(f"server call {op} does not match request {request[:3]}")
        idx = request[0]
        call_start[idx] = t0
        call_ns[idx] = t1 - t0
        if op in MUTATING:
            while commit < len(commits) - 1 and commits[commit][0] < t1:
                commit += 1
            wait_ns[idx] = max(0, commits[commit][1] - t1)
    return call_start, call_ns, wait_ns


def lost_acked_writes(root: str, plan: Plan, acked: List[int], synced: Dict[str, int]) -> int:
    """The durability check: cut every WAL back to its length at the last
    fsync before the final ack, recover, and count acked records missing."""
    for path, length in synced.items():
        os.truncate(path, length)
    index, _reports = recover_sharded(root)
    try:
        lost = 0
        for idx in acked:
            _idx, _conn, op, a, b, _expected = plan.requests[idx]
            items = [(a, b)] if op == PUT else a
            values = index.get_many([key for key, _value in items])
            lost += sum(1 for (_key, value), got in zip(items, values) if got != value)
        return lost
    finally:
        index.close()


def codec_rung(plan: Plan, replies: list, reps: int, spans: Spans):
    """``net.protocol``: encode and decode every request and its reply, both
    ends. Returns (per-request minima, wire bytes, records carried)."""
    codecs = {
        PUT: (wire.OP_PUT, wire.encode_put, wire.decode_put),
        GET: (wire.OP_GET, lambda a, b: wire.encode_key(a), wire.decode_key),
        RANGE: (wire.OP_RANGE, wire.encode_range, wire.decode_range),
        PUT_MANY: (wire.OP_PUT_MANY, lambda a, b: wire.encode_put_many(a), wire.decode_put_many),
        GET_MANY: (wire.OP_GET_MANY, lambda a, b: wire.encode_get_many(a), wire.decode_get_many),
    }
    header = wire.HEADER.size

    def there_and_back(opcode: int, request_id: int, payload: bytes, decode) -> int:
        frame = wire.encode_frame(opcode, request_id, payload)
        _op, _rid, _length, crc = wire.decode_header(frame[:header])
        body = frame[header:]
        wire.check_payload(opcode, request_id, body, crc)
        decode(body)
        return len(frame)

    best = None
    for _rep in range(reps):
        gc.collect()
        start, lat = new_timings(plan)
        wire_bytes = records = 0
        for idx, _conn, op, a, b, _expected in plan.requests:
            opcode, encode, decode = codecs[op]
            reply = replies[idx]
            t0 = now()
            size = there_and_back(opcode, idx, encode(a, b), decode)
            size += there_and_back(wire.RESP_OK, idx, wire.encode_result(reply), wire.decode_result)
            lat[idx] = now() - t0
            start[idx] = t0
            wire_bytes += size
            records += len(reply) if op == RANGE else len(a) if op in (PUT_MANY, GET_MANY) else 1
        best = fold_min(best, lat)
    spans.add_requests("net.protocol", start, lat)
    return best, wire_bytes, records


def every(n: int, action):
    """A callback that runs ``action`` on every n-th call (the commit cadence)."""
    calls = [0]

    def tick() -> None:
        calls[0] += 1
        if calls[0] % n == 0:
            action()

    return tick


def sharded_rung(plan: Plan, template: str, work: str, reps: int, commit_every: int,
                 spans: Spans):
    """``net.sharded``: the index's own entry points, called directly, with a
    ``commit()`` every ``commit_every`` mutations as the server would issue.
    Returns (per-request minima, replies, wrong results, shards per RANGE)."""
    best = None
    failed = 0
    root = os.path.join(work, "sharded")
    for _rep in range(reps):
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(template, root)
        gc.collect()
        index, _reports = recover_sharded(root)
        start, lat = new_timings(plan)
        replies: list = [None] * len(plan.requests)
        methods = (index.put, index.put_many, index.get, index.get_many, index.range_query)
        failed += run_sync(methods, plan, start, lat, replies, every(commit_every, index.commit))
        best = fold_min(best, lat)
        bounds = [lower for lower, _shard in index.shard_map()[1:]]
        index.close()
    spans.add_requests("net.sharded", start, lat)
    ranges = [(request[3], request[4]) for request in plan.requests if request[2] == RANGE]
    hit = [1 + sum(1 for bound in bounds if lo < bound <= hi) for lo, hi in ranges]
    return best, replies, failed, mean(hit)


def wal_rung(plan: Plan, work: str, reps: int, commit_every: int, spans: Spans):
    """``storage.wal``: the appends the plan's writes cause, one log per
    zone, synced at the server's cadence, through a counting opener.
    Returns (per-request append minima, the last repetition's opener, records)."""
    best = None
    for rep in range(reps):
        gc.collect()
        opener = CountingOpener()
        folder = os.path.join(work, f"wal-{rep}")
        wals = []
        for zone in range(plan.n_zones):
            os.makedirs(os.path.join(folder, str(zone)))
            wals.append(WriteAheadLog(os.path.join(folder, str(zone), WAL_NAME),
                                      fsync_policy="batch", opener=opener))
        dirty = set()

        def sync_dirty() -> None:
            for wal in dirty:
                wal.sync()
            dirty.clear()

        tick = every(commit_every, sync_dirty)
        start, lat = new_timings(plan)
        records = 0
        for idx, _conn, op, a, b, _expected in plan.requests:
            if op == PUT:
                wal = wals[a >> ZONE_BITS]
                t0 = now()
                wal.append_put(a, b)
                t1 = now()
                dirty.add(wal)
                records += 1
            elif op == PUT_MANY:
                chunks = split_by_zone(a, len(wals))  # routing is the sharded rung's cost
                t0 = now()
                for wal, chunk in zip(wals, chunks):
                    if chunk:
                        wal.append_puts(chunk)
                        dirty.add(wal)
                t1 = now()
                records += len(a)
            else:
                continue
            start[idx] = t0
            lat[idx] = t1 - t0
            tick()
        sync_dirty()
        for wal in wals:
            wal.close()
        best = fold_min(best, lat)
    for idx, (t0, dt) in enumerate(zip(start, lat)):
        if dt:  # a write
            spans.add("storage.wal", t0, t0 + dt, -1, idx)
    return best, opener, records


async def run_traced(workload: Workload, plan: Plan, reps: int, work: str, spans: Spans):
    """Per-layer metrics: the plan down the ladder of public entry points."""
    n = len(plan.requests)
    # The untraced run: what tracing is compared against, and where recovery is read off.
    template, root, _setups, recover_ns, reports, _lat, untraced_rounds, failed = await repeat(
        workload, plan, reps, work)

    # client.request: the same run, the index behind a span-recording proxy
    # and its files behind the counting opener.
    lat_best = rounds_best = call_best = wait_best = None
    for rep in range(reps):
        shutil.rmtree(root, ignore_errors=True)
        gc.collect()
        opener = CountingOpener()
        traced = TracedIndex(build_root(root, plan, opener))
        server, clients = await serve(traced)
        start, lat = new_timings(plan)
        rounds, acked = [], []
        failed += await drive(clients, plan, workload, start, lat, rounds, acked)
        # Every ack is in: what the logs held at their last fsync must cover them.
        synced = {path: opener.synced_length.get(path, 0) for path in opener.wal_paths()}
        call_start, call_ns, wait_ns = link_calls(traced, plan)
        lat_best, rounds_best = fold_min(lat_best, lat), fold_min(rounds_best, rounds)
        call_best, wait_best = fold_min(call_best, call_ns), fold_min(wait_best, wait_ns)
        if rep == reps - 1:
            failed += state_divergence(await clients[0].range_query(*EVERYTHING), plan)
        await shutdown(server, clients)
    failed += lost_acked_writes(root, plan, acked, synced)
    mutations = sum(1 for request in plan.requests if request[2] in MUTATING)
    commits = max(1, server.commits)
    commit_every = max(1, round(mutations / commits))
    first = spans.add_requests("client.request", start, lat)
    for request, t0, dt in zip(plan.requests, call_start, call_ns):
        idx, op = request[0], request[2]
        spans.add(f"net.sharded.{CALL_NAMES[op]}", t0, t0 + dt, first + idx, idx)
    for t0, t1 in traced.commits:
        spans.add("net.server.commit", t0, t1)

    sharded_best, replies, wrong, shards_per_range = sharded_rung(
        plan, template, work, reps, commit_every, spans)
    failed += wrong
    codec_best, wire_bytes, wire_records = codec_rung(plan, replies, reps, spans)
    del replies
    wal_best, wal_log, wal_records = wal_rung(plan, work, reps, commit_every, spans)
    sware = sware_rung(plan, reps, spans)
    baseline, wrong = btree_rung(plan, reps, spans)
    failed += sware.failed + wrong + state_divergence(sware.items(), plan)

    client_ns, codec_ns, call_ns = mean(lat_best), mean(codec_best), mean(call_best)
    wait_ns, sharded_ns, append_ns = mean(wait_best), mean(sharded_best), mean(wal_best)
    sharded_by_kind = by_kind(plan, sharded_best)
    wal_bytes = sum(wal_log.bytes_written[path] for path in wal_log.wal_paths())
    metrics = dict.fromkeys((name for name, *_rest in PER_LAYER), 0.0)
    metrics.update(sware_metrics(plan, sware, baseline))
    metrics.update(checkpoint_rung(sware, work, reps))
    metrics.update({f"client.{name}": value
                    for name, value in latency_metrics(plan, lat_best, 0.99, "p99_ms").items()})
    metrics.update({
        "net.protocol.codec_us_per_req": codec_ns / 1e3,
        "net.protocol.bytes_per_req": wire_bytes / n,
        "net.protocol.bytes_per_record": wire_bytes / wire_records,
        "net.server.commits": commits,
        "net.server.acks_per_commit": mutations / commits,
        "net.server.commit_wait_ms": percentile(
            [wait for wait, request in zip(wait_best, plan.requests) if request[2] in MUTATING], 0.5
        ) / 1e6,
        # What is left of a request once codec, index call and commit wait
        # are taken out: asyncio, sockets, framing, the other connection's turn.
        "net.server.transport_us_per_req": (client_ns - codec_ns - call_ns - wait_ns) / 1e3,
        "net.sharded.put_us_per_op": mean(sharded_by_kind["put"]) / 1e3,
        "net.sharded.get_us_per_op": mean(sharded_by_kind["get"]) / 1e3,
        "net.sharded.range_us_per_op": mean(sharded_by_kind["range"]) / 1e3,
        "net.sharded.route_self_us_per_op": (sharded_ns - append_ns - mean(sware.lat)) / 1e3,
        "net.sharded.shards_per_range": shards_per_range,
        "ledger.service_tax_x": sum(lat_best) / sum(sware.lat),
        # The server's index calls took this much longer than the same calls
        # replayed directly; with it the rungs sum to the client's latency.
        "ledger.unattributed_pct": (call_ns - sharded_ns) / client_ns * 100.0,
        "storage.wal.append_us_per_record": sum(wal_best) / wal_records / 1e3,
        "storage.wal.bytes_per_record": wal_bytes / wal_records,
        "storage.wal.fsyncs": len(wal_log.wal_fsync_ns()),
        "storage.wal.fsync_ms_p50": percentile(wal_log.wal_fsync_ns(), 0.5) / 1e6,
        "storage.recover.total_s": recover_ns / 1e9,
        "storage.recover.wal_records_replayed": sum(r.wal_records_replayed for r in reports.values()),
        "client.samples": min(len(values) for values in sharded_by_kind.values()),
        "obs.trace_overhead_pct": (sum(rounds_best) / sum(untraced_rounds) - 1.0) * 100.0,
    })
    # Checked: the requests of five rungs, two final states, the acked writes.
    return metrics, 5 * reps * n + 2 * len(plan.model) + len(acked), failed
