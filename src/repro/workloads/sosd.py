"""SOSD-style dataset layer: realistic key distributions with measured (K,L).

SOSD ("SOSD: A Benchmark for Learned Indexes", PAPERS.md) fixed the learned
-index evaluation methodology by benchmarking on *real* key sets — Amazon
book-popularity ids (``books``), OpenStreetMap cell ids (``osm``), Facebook
user ids (``fb``), Wikipedia edit timestamps (``wiki``) — instead of
synthetic uniform keys. The real binaries are not shipped with this
repository, so this module provides both:

* **faithful synthetic twins** — generators reproducing each dataset's
  headline distributional property (heavy-tailed gaps for books, clustered
  bursts for osm, a near-linear body with catastrophic outliers for fb,
  bounded-lateness timestamp arrival for wiki, dbgen's date derivation for
  tpch via :mod:`repro.workloads.tpch`);
* **file-backed loading** — :func:`load_sosd_file` reads the standard SOSD
  binary layout (little-endian uint64 count, then count uint64 keys) so real
  downloads drop in via ``REPRO_SOSD_DIR`` when present.

Because SWARE's subject is *arrival order*, a dataset here is an ordered
stream, not a set: sorted-distribution families are replayed through
:func:`displaced_order` (the BoDS pairwise-swap scheme of
:mod:`repro.sortedness.generator`, applied to arbitrary key sets) to realize
each sortedness regime, while ``wiki``/``tpch`` carry their natural
near-sorted arrival. Every built dataset ships its **measured** (K,L) from
:func:`repro.sortedness.metrics.measure_sortedness` — reported numbers, not
requested ones.
"""

from __future__ import annotations

import os
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sortedness.generator import NAMED_DEGREES
from repro.sortedness.metrics import measure_sortedness
from repro.workloads.tpch import receiptdate_keys

#: The synthetic families this layer can build (``file`` rides on top).
SOSD_FAMILIES: Tuple[str, ...] = ("books", "osm", "fb", "wiki", "tpch")

#: Families whose generator produces an inherently ordered arrival stream;
#: the others are key *sets* replayed under an explicit sortedness regime.
NATURAL_STREAM_FAMILIES: Tuple[str, ...] = ("wiki", "tpch")

#: Environment variable pointing at a directory of real SOSD binaries.
SOSD_DIR_ENV = "REPRO_SOSD_DIR"

#: Keys are capped well inside int64 so every key column stays an int64
#: array (real uint64 datasets above this are shifted).
MAX_KEY = (1 << 62) - 1


@dataclass(frozen=True)
class SOSDDataset:
    """An ordered key stream plus its measured sortedness.

    ``keys`` is the arrival order an experiment ingests; ``k``/``l`` (and
    their fractions) are *measured* on that order, so the ``sosd`` report
    prints the stream's true sortedness rather than a generator request.
    """

    name: str
    family: str
    keys: Tuple[int, ...]
    regime: str
    k: int
    l: int
    k_fraction: float
    l_fraction: float
    inversions: int
    source: str = "synthetic"
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.keys)


# ----------------------------------------------------------------------
# synthetic distribution twins (sorted unique key sets)
# ----------------------------------------------------------------------
def books_like_keys(n: int, seed: int = 0) -> List[int]:
    """Amazon-books style: heavy-tailed gap distribution (Pareto gaps).

    Popularity-ranked ids are dense among bestsellers and sparse in the
    long tail; successive gaps follow a power law, which is what defeats a
    single linear model and makes books a mid-hardness SOSD dataset.
    """
    rng = random.Random(seed * 2654435761 + 101)
    keys: List[int] = []
    key = rng.randrange(1 << 20)
    for _ in range(n):
        gap = int(rng.paretovariate(1.15))
        if gap > 1 << 32:
            gap = 1 << 32
        key += max(1, gap)
        if key > MAX_KEY:  # pragma: no cover - astronomically unlikely
            key = MAX_KEY - (n - len(keys))
        keys.append(key)
    return keys


def osm_like_keys(n: int, seed: int = 0) -> List[int]:
    """OpenStreetMap cell-id style: dense clusters split by empty space.

    Cell ids of mapped areas come in bursts (cities) separated by oceans of
    unused id space: small intra-cluster gaps, rare enormous inter-cluster
    jumps.
    """
    rng = random.Random(seed * 2654435761 + 211)
    keys: List[int] = []
    key = rng.randrange(1 << 24)
    remaining = n
    while remaining:
        cluster = min(remaining, 1 + int(rng.expovariate(1.0 / 256)))
        for _ in range(cluster):
            key += rng.randint(1, 16)
            keys.append(key)
        remaining -= cluster
        key += rng.randrange(1 << 24, 1 << 38)
        if key > MAX_KEY - (1 << 40):  # pragma: no cover - unlikely at bench n
            key = rng.randrange(1 << 24)
            keys.sort()
    if len(set(keys)) != len(keys):  # pragma: no cover - wrap fallback only
        keys = sorted(set(keys))
        while len(keys) < n:
            keys.append(keys[-1] + rng.randint(1, 16))
    return keys


def fb_like_keys(n: int, seed: int = 0) -> List[int]:
    """Facebook user-id style: near-linear body, catastrophic outlier tail.

    SOSD's fb is famously adversarial for learned indexes: ~99.9% of keys
    are almost uniformly spaced, but the top fraction jumps by many orders
    of magnitude, wrecking any global linear fit.
    """
    rng = random.Random(seed * 2654435761 + 307)
    body = max(1, n - max(1, n // 1000))
    keys: List[int] = []
    key = rng.randrange(1 << 16)
    for _ in range(body):
        key += rng.randint(1, 64)
        keys.append(key)
    for _ in range(n - body):
        key += rng.randrange(1 << 34, 1 << 44)
        keys.append(min(key, MAX_KEY))
    # The outlier tail can saturate at MAX_KEY; re-uniquify defensively.
    if len(set(keys)) != len(keys):  # pragma: no cover - saturation only
        keys = sorted(set(keys))
        while len(keys) < n:
            keys.append(keys[-1] - 1)
        keys.sort()
    return keys


def wiki_timestamp_keys(n: int, seed: int = 0, lateness: int = 64) -> List[int]:
    """Wikipedia edit-timestamp style **arrival stream** (naturally near-
    sorted).

    Edits arrive roughly in time order with bounded reordering (replication
    and batching delay delivery by a bounded number of positions) and
    duplicate timestamps under load. Duplicates are disambiguated into
    unique keys order-preservingly (``ts * 2**16 + counter``), exactly as
    :func:`repro.workloads.tpch.receiptdate_keys` does for dates.
    """
    rng = random.Random(seed * 2654435761 + 401)
    ts = 1_600_000_000
    stamps: List[int] = []
    for _ in range(n):
        # Bursts: many edits can share a second; quiet gaps in between.
        if rng.random() < 0.55:
            ts += rng.randint(1, 4)
        stamps.append(ts)
    # Bounded-lateness reordering: each element may arrive up to
    # ``lateness`` positions early, mirroring out-of-order log delivery.
    order = sorted(
        range(n), key=lambda i: (i + rng.randint(0, lateness), rng.random())
    )
    seen: Dict[int, int] = {}
    keys: List[int] = []
    for i in order:
        stamp = stamps[i]
        occurrence = seen.get(stamp, 0)
        seen[stamp] = occurrence + 1
        keys.append(stamp * (1 << 16) + occurrence)
    return keys


def tpch_receiptdate_stream(n: int, seed: int = 0) -> List[int]:
    """TPC-H receiptdate arrival stream (clustered by shipdate, §V-H)."""
    return receiptdate_keys(n, seed=seed)


# ----------------------------------------------------------------------
# arrival-order synthesis
# ----------------------------------------------------------------------
def displaced_order(
    keys: Sequence[int], k_fraction: float, l_fraction: float, seed: int = 0
) -> List[int]:
    """A (K,L)-near sorted replay order for an arbitrary sorted key set.

    The same BoDS pairwise-swap scheme as
    :func:`repro.sortedness.generator.generate_kl_keys`, generalized from
    the ``0..n`` integer sequence to any sorted collection: swap distance is
    bounded by ``L*N`` with one swap pinned at the maximum so measured L
    reaches the target, and swapped positions stay disjoint while possible
    so measured K tracks the request.
    """
    if not 0.0 <= k_fraction <= 1.0:
        raise ValueError("k_fraction must be within [0, 1]")
    if not 0.0 <= l_fraction <= 1.0:
        raise ValueError("l_fraction must be within [0, 1]")
    out = list(keys)
    n = len(out)
    if n < 2 or k_fraction == 0.0 or l_fraction == 0.0:
        return out
    rng = random.Random(seed)
    max_distance = max(1, int(l_fraction * n))
    target_displaced = int(k_fraction * n)
    if target_displaced < 2:
        return out
    displaced: set = set()
    n_displaced = 0
    attempts = 0
    max_attempts = 6 * n
    if max_distance < n:
        anchor = rng.randrange(0, n - max_distance)
        partner = anchor + max_distance
        out[anchor], out[partner] = out[partner], out[anchor]
        displaced.update((anchor, partner))
        n_displaced += 2
    while n_displaced < target_displaced and attempts < max_attempts:
        attempts += 1
        p = rng.randrange(n)
        if p in displaced:
            continue
        lo = max(0, p - max_distance)
        hi = min(n - 1, p + max_distance)
        q = rng.randint(lo, hi)
        if q == p or q in displaced:
            continue
        out[p], out[q] = out[q], out[p]
        displaced.update((p, q))
        n_displaced += 2
    return out


def scrambled_order(keys: Sequence[int], seed: int = 0) -> List[int]:
    """A uniformly shuffled replay order (the paper's ``scrambled``)."""
    out = list(keys)
    random.Random(seed).shuffle(out)
    return out


# ----------------------------------------------------------------------
# file-backed real SOSD binaries
# ----------------------------------------------------------------------
def sosd_data_dir() -> Optional[Path]:
    """The real-binaries directory (``REPRO_SOSD_DIR``), when configured."""
    value = os.environ.get(SOSD_DIR_ENV, "").strip()
    if not value:
        return None
    path = Path(value)
    return path if path.is_dir() else None


def available_sosd_files(directory: Optional[Path] = None) -> List[Path]:
    """Real SOSD binaries present on this machine (empty when none)."""
    directory = directory if directory is not None else sosd_data_dir()
    if directory is None:
        return []
    out = [
        path
        for pattern in ("*.bin", "*.uint64", "*.uint32")
        for path in sorted(directory.glob(pattern))
        if path.is_file()
    ]
    return out


def load_sosd_file(
    path, limit: Optional[int] = None, unique: bool = True
) -> List[int]:
    """Load keys from the standard SOSD binary layout.

    The format is a little-endian uint64 element count followed by that
    many little-endian keys — 8 bytes each for ``*.bin``/``*.uint64``
    files, 4 bytes for ``*.uint32``. Keys above :data:`MAX_KEY` (possible
    in real uint64 sets) are right-shifted by two bits, preserving order;
    ``unique=True`` drops duplicates (SOSD's own preprocessing).
    """
    path = Path(path)
    width = 4 if path.suffix == ".uint32" else 8
    fmt = "<I" if width == 4 else "<Q"
    with open(path, "rb") as fobj:
        (count,) = struct.unpack("<Q", fobj.read(8))
        if limit is not None:
            count = min(count, limit)
        raw = fobj.read(count * width)
    if len(raw) < count * width:
        raise ValueError(f"{path} truncated: expected {count} keys")
    keys = [
        struct.unpack_from(fmt, raw, i * width)[0] for i in range(count)
    ]
    if any(key > MAX_KEY for key in keys):
        keys = [key >> 2 for key in keys]
    if unique:
        seen: set = set()
        deduped: List[int] = []
        for key in keys:
            if key not in seen:
                seen.add(key)
                deduped.append(key)
        keys = deduped
    return keys


# ----------------------------------------------------------------------
# dataset assembly
# ----------------------------------------------------------------------
_SET_GENERATORS = {
    "books": books_like_keys,
    "osm": osm_like_keys,
    "fb": fb_like_keys,
}

_STREAM_GENERATORS = {
    "wiki": wiki_timestamp_keys,
    "tpch": tpch_receiptdate_stream,
}


def make_dataset(
    family: str,
    n: int,
    regime: str = "near_sorted",
    seed: int = 7,
    file_path=None,
) -> SOSDDataset:
    """Build one dataset: a replay stream with measured (K,L).

    ``family`` is one of :data:`SOSD_FAMILIES` or ``"file"`` (with
    ``file_path``). Sorted-set families honour ``regime`` (a
    :data:`repro.sortedness.generator.NAMED_DEGREES` name); natural-stream
    families (``wiki``, ``tpch``) carry their inherent arrival order and
    accept only ``regime="natural"``.
    """
    params: Dict[str, object] = {"seed": seed}
    if family == "file":
        if file_path is None:
            raise ValueError("family 'file' requires file_path")
        base = load_sosd_file(file_path, limit=n)
        params["path"] = str(file_path)
        source = "file"
        name = f"file:{Path(file_path).stem}"
        stream = _apply_regime(base, regime, seed)
    elif family in _SET_GENERATORS:
        base = _SET_GENERATORS[family](n, seed=seed)
        source = "synthetic"
        name = family
        stream = _apply_regime(base, regime, seed)
    elif family in _STREAM_GENERATORS:
        if regime not in ("natural",):
            raise ValueError(
                f"family {family!r} is a natural arrival stream; "
                "use regime='natural'"
            )
        stream = _STREAM_GENERATORS[family](n, seed=seed)
        source = "synthetic"
        name = family
    else:
        raise ValueError(
            f"unknown dataset family {family!r}; expected one of "
            f"{SOSD_FAMILIES + ('file',)}"
        )
    report = measure_sortedness(stream)
    return SOSDDataset(
        name=f"{name}/{regime}",
        family=family,
        keys=tuple(stream),
        regime=regime,
        k=report.k,
        l=report.l,
        k_fraction=report.k_fraction,
        l_fraction=report.l_fraction,
        inversions=report.inversions,
        source=source,
        params=params,
    )


def _apply_regime(base: Sequence[int], regime: str, seed: int) -> List[int]:
    if regime == "natural":
        raise ValueError(
            "regime 'natural' applies only to stream families (wiki, tpch)"
        )
    if regime not in NAMED_DEGREES:
        raise ValueError(
            f"unknown regime {regime!r}; expected one of "
            f"{sorted(NAMED_DEGREES) + ['natural']}"
        )
    degree = NAMED_DEGREES[regime]
    if degree is None:
        return scrambled_order(base, seed=seed)
    k_fraction, l_fraction = degree
    return displaced_order(base, k_fraction, l_fraction, seed=seed)


def default_benchmark_datasets(
    n: int, seed: int = 7, regimes: Sequence[str] = ("near_sorted", "scrambled")
) -> List[SOSDDataset]:
    """The ``sosd`` experiment's grid: every family, every applicable regime.

    Sorted-set families (books/osm/fb) appear once per requested regime;
    natural streams (wiki/tpch) once each; any real binaries found under
    ``REPRO_SOSD_DIR`` are appended with the first requested regime.
    """
    datasets: List[SOSDDataset] = []
    for family in _SET_GENERATORS:
        for regime in regimes:
            datasets.append(make_dataset(family, n, regime=regime, seed=seed))
    for family in _STREAM_GENERATORS:
        datasets.append(make_dataset(family, n, regime="natural", seed=seed))
    for path in available_sosd_files():
        datasets.append(
            make_dataset(
                "file", n, regime=regimes[0], seed=seed, file_path=path
            )
        )
    return datasets
