"""The measurement rule and the tools every rung shares.

**Rule.** A workload is repeated R times from identical state. Every timed
unit (one op, one request, one round of requests, one build batch) keeps
the *minimum* of its R timings, and metrics are computed over those
per-unit minima. Noise on a shared VM only ever adds time, so the minimum
removes it without dropping any unit of work: the op that triggers a flush
cycle triggers it in every repetition and stays as expensive as its
cheapest run. ``gc.collect()`` runs before each repetition and GC stays on
during it.
"""

from __future__ import annotations

import json
import os
import resource
import time
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from plans import GET, KIND, MUTATING, PUT, PUT_MANY, RANGE, Plan, own_rows

now = time.perf_counter_ns


def fold_min(best: Optional[array], sample: Sequence[int]) -> array:
    """Per-unit minimum of ``best`` (None on the first repetition) and ``sample``."""
    return array("q", sample) if best is None else array("q", map(min, best, sample))


def percentile(values: Iterable[int], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (a layer not on the path)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))])


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if len(values) else 0.0


def by_kind(plan: Plan, per_request: Sequence[int]) -> Dict[str, List[int]]:
    """Per-request values grouped by metric family (put / get / range)."""
    out: Dict[str, List[int]] = {"put": [], "get": [], "range": []}
    for request, value in zip(plan.requests, per_request):
        out[KIND[request[2]]].append(value)
    return out


def latency_metrics(plan: Plan, best: Sequence[int], q: float, suffix: str) -> Dict[str, float]:
    """``<kind>_<suffix>`` in ms over per-request minima (ns)."""
    return {
        f"{kind}_{suffix}": percentile(values, q) / 1e6
        for kind, values in by_kind(plan, best).items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(path)
        for name in names
    )


def run_sync(methods, plan: Plan, start: array, lat: array, replies: Optional[list] = None,
             after_mutation=None) -> int:
    """Issue the plan against in-process ``methods`` (put, put_many, get,
    get_many, range_query), timing each call; returns wrong results.
    ``after_mutation`` runs, untimed, after every put (the commit cadence)."""
    put, put_many, get, get_many, range_query = methods
    failed = 0
    for idx, conn, op, a, b, expected in plan.requests:
        got = None
        if op == PUT:
            t0 = now()
            put(a, b)
            t1 = now()
        elif op == GET:
            t0 = now()
            got = get(a)
            t1 = now()
            failed += got != expected
        elif op == RANGE:
            t0 = now()
            got = range_query(a, b)
            t1 = now()
            failed += own_rows(got, plan, conn) != expected
        elif op == PUT_MANY:
            t0 = now()
            put_many(a)
            t1 = now()
        else:
            t0 = now()
            got = get_many(a)
            t1 = now()
            failed += got != expected
        start[idx] = t0
        lat[idx] = t1 - t0
        if replies is not None:
            replies[idx] = got
        if after_mutation is not None and op in MUTATING:
            after_mutation()
    return failed


def state_divergence(items, plan: Plan) -> int:
    """Keys on which the final state differs from the model."""
    got = dict(items)
    model = plan.model
    if got == model:
        return 0
    return sum(1 for key in got.keys() | model.keys() if got.get(key) != model.get(key))


def new_timings(plan: Plan):
    n = len(plan.requests)
    return array("q", bytes(8 * n)), array("q", bytes(8 * n))


class Spans:
    """In-memory span table, written as JSON when the benchmark ends.

    One row per call: name, start, end (``perf_counter_ns``), the row of the
    span that caused it (-1 = none) and the request it belongs to (the
    request's position in the plan; -1 = background work such as a commit).
    """

    COLUMNS = ("name", "start_ns", "end_ns", "parent", "request")

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.rows = [array("q") for _ in self.COLUMNS]

    def __len__(self) -> int:
        return len(self.rows[0])

    def add(self, name: str, start: int, end: int, parent: int = -1, request: int = -1) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        for column, value in zip(self.rows, (name_id, start, end, parent, request)):
            column.append(value)
        return len(self) - 1

    def add_requests(self, name: str, start: array, lat: array) -> int:
        """One span per request of a rung; returns the row of request 0."""
        first = len(self)
        for idx, (t0, dt) in enumerate(zip(start, lat)):
            self.add(name, t0, t0 + dt, -1, idx)
        return first

    def write(self, path: str, **header) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(header, unit="ns", columns=self.COLUMNS, names=self.names,
                   spans=list(zip(*self.rows)))
        with open(path, "w") as fobj:
            json.dump(doc, fobj, separators=(",", ":"))
