"""Sampling profiler: wall-clock time attribution by layer.

A :class:`SamplingProfiler` runs a background thread that snapshots every
other thread's Python stack (``sys._current_frames``) at a configurable
rate, off by default. Each sample is attributed to a *layer* — buffer,
bloom, zonemap, btree, betree, lsm, wal, kernels, … — by mapping the
innermost ``repro`` frame's module through :data:`LAYER_PREFIXES`, so a run
answers "where does the wall time go?" at the same granularity the paper's
Fig. 13 breakdown uses for simulated cost.

Two output shapes:

* :meth:`collapsed` — collapsed-stack lines (``frame;frame;frame count``),
  the input format of every flamegraph renderer;
* :meth:`layer_table` / :meth:`format_table` — the per-layer sample counts
  and fractions ``repro experiment --profile`` prints.

Cost model: the profiled program runs **zero** additional code — sampling
happens entirely on the profiler's own thread, which wakes ``hz`` times a
second, grabs the interpreter's frame map, and walks at most
``max_depth`` frames per thread. At the default rate the steal is a few
hundred microseconds per second of run (≤5% is asserted by the obs-smoke
CI job, with :func:`measure_overhead` as the measuring stick). When no
profiler is constructed there is nothing to pay anywhere: no hook, no
check, no attribute — the hot paths do not know the module exists.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Default sampling rate. A prime-ish off-round frequency avoids lockstep
#: with periodic program behavior (the classic profiler aliasing trap).
DEFAULT_HZ = 67.0

#: Ordered (module prefix, layer) table; first match wins, so the specific
#: entries must precede their package prefixes.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.buffer", "buffer"),
    ("repro.core.zonemap", "zonemap"),
    ("repro.core.sware", "sware"),
    ("repro.core.concurrent", "concurrency"),
    ("repro.filters", "bloom"),
    ("repro.btree", "btree"),
    ("repro.betree", "betree"),
    ("repro.lsm", "lsm"),
    ("repro.storage.wal", "wal"),
    ("repro.storage", "storage"),
    ("repro.kernels", "kernels"),
    ("repro.sortedness", "sortedness"),
    ("repro.search", "search"),
    ("repro.bench", "bench"),
    ("repro.workloads", "bench"),
    ("repro.obs", "obs"),
    ("repro", "repro-other"),
)

#: Layer assigned to samples whose stack never enters ``repro``.
OTHER_LAYER = "other"


def layer_for_module(module: str) -> Optional[str]:
    """Layer for a module name, or None when the module is outside repro."""
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class SamplingProfiler:
    """See module docstring."""

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = 64):
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = hz
        self.max_depth = max_depth
        self.samples = 0  # stack samples taken (one per thread per tick)
        self.ticks = 0  # sampling wakeups
        self.layer_samples: Counter = Counter()
        self.stack_samples: Counter = Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._exclude: set = set()
        self._started_at: Optional[float] = None
        self.duration_s = 0.0

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        # Exclude only the sampling thread itself: its ident lands in the
        # set before the first sample because _loop registers it on entry.
        self._exclude = set()
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._started_at is not None:
            self.duration_s += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        self._exclude.add(threading.get_ident())
        period = 1.0 / self.hz
        while not self._stop.wait(period):
            self.sample_once()

    # -- sampling ----------------------------------------------------------
    def sample_once(self) -> int:
        """Take one sample of every foreign thread; returns threads seen."""
        self.ticks += 1
        seen = 0
        for ident, frame in sys._current_frames().items():
            if ident in self._exclude:
                continue
            seen += 1
            self._attribute(frame)
        return seen

    def _attribute(self, frame) -> None:
        """Attribute one thread's stack to a layer + collapsed stack."""
        stack: List[str] = []
        layer: Optional[str] = None
        depth = 0
        while frame is not None and depth < self.max_depth:
            module = frame.f_globals.get("__name__", "?")
            stack.append(f"{module}.{frame.f_code.co_name}")
            if layer is None:
                # Innermost repro frame wins: that is where time is spent.
                layer = layer_for_module(module)
            frame = frame.f_back
            depth += 1
        stack.reverse()  # collapsed-stack order is outermost-first
        self.samples += 1
        self.layer_samples[layer if layer is not None else OTHER_LAYER] += 1
        self.stack_samples[tuple(stack)] += 1

    # -- reading -----------------------------------------------------------
    def collapsed(self, limit: Optional[int] = None) -> str:
        """Collapsed-stack flamegraph lines: ``frame;frame;frame count``."""
        rows = self.stack_samples.most_common(limit)
        return "\n".join(f"{';'.join(stack)} {count}" for stack, count in rows)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per-layer sample counts, fractions, and wall-time estimates."""
        total = sum(self.layer_samples.values())
        period_ns = 1e9 / self.hz
        return {
            layer: {
                "samples": float(count),
                "fraction": count / total if total else 0.0,
                "est_wall_ns": count * period_ns,
            }
            for layer, count in sorted(
                self.layer_samples.items(), key=lambda kv: -kv[1]
            )
        }

    def format_table(self) -> str:
        """The per-layer time table, human-formatted for reports."""
        table = self.layer_table()
        if not table:
            return "(no profile samples collected)\n"
        lines = [f"{'layer':<14} {'samples':>8} {'share':>7} {'est wall':>10}"]
        for layer, row in table.items():
            lines.append(
                f"{layer:<14} {int(row['samples']):>8} "
                f"{row['fraction']:>6.1%} {row['est_wall_ns'] / 1e6:>8.1f} ms"
            )
        return "\n".join(lines) + "\n"


def measure_overhead(
    workload: Callable[[], object],
    hz: float = DEFAULT_HZ,
    repeats: int = 3,
) -> Dict[str, float]:
    """Measure the profiler's wall-clock overhead on ``workload``.

    Runs the workload ``repeats`` times bare and ``repeats`` times under a
    profiler, takes the best of each (the standard noise-floor
    estimator), and reports the ratio. The obs-smoke CI job asserts
    ``ratio <= 1.05`` at the default rate.
    """
    def best(profiled: bool) -> float:
        runs = []
        for _ in range(repeats):
            profiler = SamplingProfiler(hz=hz) if profiled else None
            if profiler is not None:
                profiler.start()
            start = time.perf_counter()
            workload()
            elapsed = time.perf_counter() - start
            if profiler is not None:
                profiler.stop()
            runs.append(elapsed)
        return min(runs)

    bare = best(False)
    under = best(True)
    return {
        "bare_s": bare,
        "profiled_s": under,
        "ratio": under / bare if bare else 1.0,
    }
