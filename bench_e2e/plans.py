"""Deterministic plans: every input the program sees, made from ``--seed``.

A plan is generated before anything is timed and carries, next to each
request, the result a dict model says it must return. The program under
test only ever sees ``preload`` and ``requests``.

Keys. Embedded plans use the dense key space ``range(n)`` in the arrival
order the sortedness generator gives. Served plans give each connection
(a tenant with its own near-sorted stream) the keys of one congruence
class modulo the connection count, and spread every stream over two
*zones* — ``[0, ZONE)`` and ``[ZONE, 2*ZONE)``, the two shards' assigned
ranges — by alternating stream elements between them. Both shards then
ingest a near-sorted stream, a batch scatters over both, and the class of a
key names the connection that wrote it, which is what makes the expected
results independent of how the two connections interleave: a connection
reads back only its own class, and a RANGE is checked on the rows of its
own class.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sortedness.generator import generate_kl_keys, scrambled_keys

from spec import NPROC, RECENT_WINDOW, Workload

PUT, GET, RANGE, PUT_MANY, GET_MANY = range(5)
#: Metric family of each opcode (a batch call is one op of its family).
KIND = ("put", "get", "range", "put", "get")
MUTATING = (PUT, PUT_MANY)

#: Width of one shard's key zone in the served plans.
ZONE_BITS = 32
ZONE = 1 << ZONE_BITS
K_FRACTION, L_FRACTION = 0.10, 0.05

# (idx, conn, op, a, b, expected): PUT a=key b=value; GET a=key; RANGE a=lo
# b=hi expected=rows of the connection's class; PUT_MANY a=items;
# GET_MANY a=keys expected=values. ``idx`` is the position in issue order.
Request = Tuple[int, int, int, object, object, object]


@dataclass
class Plan:
    preload: List[Tuple[int, object]]  # arrival order
    checkpointed: int  # served: preload[:checkpointed] is in the checkpoint, the rest in the WAL
    requests: List[Request]  # issue order; connections alternate
    n_conns: int
    n_zones: int  # key zones the plan's keys fall in (``key >> ZONE_BITS``)
    model: Dict[int, object]  # state after every request

    def by_conn(self) -> List[List[Request]]:
        return [[r for r in self.requests if r[1] == c] for c in range(self.n_conns)]

    def digest(self) -> str:
        """Identity of the inputs (same seed and sizes -> same digest)."""
        return hashlib.sha256(repr((self.preload, self.requests)).encode()).hexdigest()


def int_value(key: int) -> int:
    return 2 * key + 1


def bytes_value(key: int) -> bytes:
    return struct.pack("<qq", key, ~key)


def _kinds(workload: Workload, n_ops: int, rng: random.Random) -> List[int]:
    n_put = round(n_ops * workload.mix[0])
    n_range = round(n_ops * workload.mix[2])
    kinds = [PUT] * n_put + [RANGE] * n_range + [GET] * (n_ops - n_put - n_range)
    rng.shuffle(kinds)
    return kinds


def embedded_plan(workload: Workload, seed: int) -> Plan:
    rng = random.Random(seed)
    kinds = _kinds(workload, workload.ops, rng)
    total = workload.preload + kinds.count(PUT)
    if workload.scrambled:
        stream = scrambled_keys(total, seed=seed)
    else:
        stream = generate_kl_keys(total, K_FRACTION, L_FRACTION, seed=seed)
    present = bytearray(total)  # the key space is range(total)
    for key in stream[: workload.preload]:
        present[key] = 1
    inserted = workload.preload  # stream[:inserted] is live
    span = workload.range_span
    requests: List[Request] = []
    for idx, op in enumerate(kinds):
        if op == PUT:
            key = stream[inserted]
            inserted += 1
            present[key] = 1
            requests.append((idx, 0, PUT, key, int_value(key), None))
        elif op == GET:
            low = 0
            if workload.recent_gets and rng.random() < 0.5:
                low = max(0, inserted - RECENT_WINDOW)
            key = stream[rng.randrange(low, inserted)]
            requests.append((idx, 0, GET, key, None, int_value(key)))
        else:
            # Below the insert frontier, so every RANGE returns about
            # ``span`` rows and the kind's latencies are comparable.
            lo = rng.randrange(0, inserted - span)
            hi = lo + span - 1
            requests.append((idx, 0, RANGE, lo, hi, sum(present[lo : hi + 1])))
    preload = [(key, int_value(key)) for key in stream[: workload.preload]]
    return Plan(preload, len(preload), requests, 1, 1, {key: int_value(key) for key in stream})


def served_key(element: int, conn: int) -> int:
    """Stream element -> key: zone by parity of the element, class = conn."""
    return (element % 2) * ZONE + NPROC * (element // 2) + conn


def served_plan(workload: Workload, seed: int) -> Plan:
    per_conn = workload.ops // NPROC
    pre_per_conn = (workload.preload + workload.tail) // NPROC
    batch, span = workload.batch, workload.range_span
    put_op, get_op = (PUT, GET) if batch == 1 else (PUT_MANY, GET_MANY)
    streams: List[List[int]] = []
    conn_requests: List[List[tuple]] = []
    for conn in range(NPROC):
        rng = random.Random(seed * 1000 + conn)
        kinds = _kinds(workload, per_conn, rng)
        total = pre_per_conn + kinds.count(PUT) * batch
        stream = generate_kl_keys(total, K_FRACTION, L_FRACTION, seed=seed * NPROC + conn)
        streams.append(stream)
        present = bytearray(total)  # by stream element; this connection's class only
        for element in stream[:pre_per_conn]:
            present[element] = 1
        inserted = pre_per_conn
        requests = []
        for op in kinds:
            if op == PUT:
                keys = [served_key(e, conn) for e in stream[inserted : inserted + batch]]
                for element in stream[inserted : inserted + batch]:
                    present[element] = 1
                inserted += batch
                if batch == 1:
                    requests.append((put_op, keys[0], bytes_value(keys[0]), None))
                else:
                    requests.append((put_op, [(k, bytes_value(k)) for k in keys], None, None))
            elif op == GET:
                keys = [served_key(stream[rng.randrange(inserted)], conn) for _ in range(batch)]
                if batch == 1:
                    requests.append((get_op, keys[0], None, bytes_value(keys[0])))
                else:
                    requests.append((get_op, keys, None, [bytes_value(k) for k in keys]))
            else:
                # ``span`` keys of one zone, starting on this connection's
                # class: span/NPROC of them are its own, at stream elements
                # zone, zone+2, ... from 2*offset.
                own = span // NPROC
                zone = rng.randrange(2)
                offset = rng.randrange(0, inserted // 2 - own)  # below the insert frontier
                lo = zone * ZONE + NPROC * offset + conn
                first = 2 * offset + zone
                rows = sum(present[first : first + 2 * own : 2])
                requests.append((RANGE, lo, lo + span - 1, rows))
        conn_requests.append(requests)
    merged: List[Request] = []
    for position in range(per_conn):
        for conn in range(NPROC):
            op, a, b, expected = conn_requests[conn][position]
            merged.append((len(merged), conn, op, a, b, expected))
    preload_keys = [
        served_key(streams[conn][position], conn)
        for position in range(pre_per_conn)
        for conn in range(NPROC)
    ]
    preload = [(key, bytes_value(key)) for key in preload_keys]
    all_keys = (served_key(e, conn) for conn, stream in enumerate(streams) for e in stream)
    model = {key: bytes_value(key) for key in all_keys}
    return Plan(preload, workload.preload, merged, NPROC, 2, model)


def build_plan(workload: Workload, seed: int) -> Plan:
    return (served_plan if workload.served else embedded_plan)(workload, seed)


def own_rows(rows, plan: Plan, conn: int) -> int:
    """Rows of a RANGE reply that the issuing connection can vouch for."""
    if plan.n_conns == 1:
        return len(rows)
    return sum(1 for key, _value in rows if key % plan.n_conns == conn)
