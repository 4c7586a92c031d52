"""Streaming workload monitors and threshold health rules (obs v2).

The paper's premise is that index behavior should adapt to *measured* data
properties; the future self-tuning loop (ROADMAP: "online self-tuning from
observed sortedness drift") needs those properties as live, windowed feeds
rather than end-of-run snapshots. This module is that sensory layer:

* :class:`SortednessDriftMonitor` — windowed (K,L) estimates over the
  insert stream, so a mid-stream sortedness collapse is visible as drift
  between early and late windows;
* :class:`SaturationMonitor` — buffer fill trajectory plus flush-cycle
  accounting (effortless vs sorted flushes, bulk vs top routing);
* :class:`BloomMonitor` — theoretical false-positive rate sampled at each
  metered flush, compared against the observed rate from the filter
  counters (which count metered lookups only);
* :class:`MonitorHub` — the bundle components feed; it serializes into the
  ``monitors`` section of :meth:`~repro.obs.Observability.snapshot`.

Health evaluation is deliberately snapshot-shaped: :func:`build_signals`
assembles one flat signal dict from the three sections of that snapshot
(metrics, monitors, trace) — the same dict whether it was taken in process
or read off a running server's STATS reply — and :func:`evaluate_signals`
applies the threshold rules to produce structured
:class:`HealthFinding`\\ s. The doctor and dashboard views of ``repro
observe`` share this one code path.

Cost discipline: monitors are opt-in (``Observability(monitors=True)``).
When off, ``obs.monitors`` is ``None`` and the instrumented components pay
a single attribute test per *batch* entry point and per insert — the same
gating budget the tracer's ``enabled`` check already set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.sortedness.metrics import RunningSortednessEstimate

#: Insert-stream window size for the (K,L) drift estimates.
WINDOW = 512

#: Drift windows kept (the newest), like the other monitors' sample rings.
MAX_WINDOWS = 1024

#: Fill-trajectory and expected-FPR samples kept (the newest).
SAMPLE_CAPACITY = 1024

#: How often (in observed keys) the fill trajectory is sampled.
FILL_SAMPLE_EVERY = 64

# -- rule thresholds (module constants so tests and docs can cite them) ----
SORTEDNESS_COLLAPSE_DELTA = 0.20  #: windowed K% rise that flags a collapse
BULK_FRACTION_FLOOR = 0.60  #: bulk-load share below this = undersized buffer
BF_FPR_FLOOR = 0.02  #: observed FPR below this never fires
BF_FPR_FACTOR = 5.0  #: observed FPR must exceed factor x theoretical
FSYNC_P99_NS = 10_000_000.0  #: 10 ms p99 fsync latency threshold
MIN_FLUSHES = 5  #: flush-rule confidence floor
MIN_WINDOWS = 4  #: drift-rule confidence floor
MIN_BF_DECISIONS = 200  #: FPR-rule confidence floor (negatives + FPs)
MIN_FSYNCS = 20  #: fsync-rule confidence floor

SEVERITIES = ("info", "warning", "critical")


@dataclass
class HealthFinding:
    """One structured health verdict from a threshold rule.

    ``remediation`` is phrased against the knobs ``repro.core.advisor``
    actually exposes (buffer_fraction, flush_fraction, split_factor,
    query_sorting_threshold) plus the WAL fsync policy, so the future
    closed-loop tuner can act on findings mechanically.
    """

    severity: str  # "info" | "warning" | "critical"
    code: str
    message: str
    remediation: str
    value: float = 0.0
    threshold: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


class SortednessDriftMonitor:
    """Windowed (K,L) estimates over the arriving key stream.

    Each full window of :data:`WINDOW` keys is reduced to (k_fraction,
    l_fraction) with the same descent/displacement estimator the
    SWARE-buffer runs per flush epoch
    (:class:`~repro.sortedness.metrics.RunningSortednessEstimate`), giving
    a drift series: near-sorted ingest holds k% near its baseline; a
    sortedness collapse mid-stream shows as late windows far above it.

    Only the newest :data:`MAX_WINDOWS` windows are kept (a served index
    observes an unbounded stream), like the saturation and Bloom rings, so
    the ``sortedness_collapse`` rule's baseline is the oldest window still
    kept, not the start of the stream.
    """

    def __init__(self):
        self.keys_observed = 0
        self.windows: Deque[Dict[str, float]] = deque(maxlen=MAX_WINDOWS)
        self._estimate = RunningSortednessEstimate()

    def observe_key(self, key: int) -> None:
        self._estimate.observe(key)
        self.keys_observed += 1
        if self._estimate.n >= WINDOW:
            self._close_window()

    def observe_keys(self, keys: Sequence[int]) -> None:
        for key in keys:
            self.observe_key(key)

    def _close_window(self) -> None:
        est = self._estimate
        self.windows.append(
            {
                "n": float(est.n),
                "k_fraction": est.k_fraction,
                "l_fraction": est.l_fraction,
            }
        )
        est.reset()

    def snapshot(self) -> Dict[str, object]:
        return {
            "window": WINDOW,
            "keys_observed": self.keys_observed,
            "windows": [dict(w) for w in list(self.windows)],
        }


class SaturationMonitor:
    """Buffer-fill trajectory + flush-cycle routing accounting."""

    def __init__(self) -> None:
        self.fill_trajectory: Deque[float] = deque(maxlen=SAMPLE_CAPACITY)
        self.flushes = 0
        self.sorted_flushes = 0
        self.flush_entries = 0
        self.retained_entries = 0

    def observe_fill(self, fill: float) -> None:
        self.fill_trajectory.append(fill)

    def observe_flush(self, entries: int, retained: int, effortless: bool) -> None:
        self.flushes += 1
        if not effortless:
            self.sorted_flushes += 1
        self.flush_entries += entries
        self.retained_entries += retained

    def snapshot(self) -> Dict[str, object]:
        trajectory = list(self.fill_trajectory)
        return {
            "flushes": self.flushes,
            "sorted_flushes": self.sorted_flushes,
            "flush_entries": self.flush_entries,
            "retained_entries": self.retained_entries,
            "fill_trajectory": trajectory,
            "mean_fill": sum(trajectory) / len(trajectory) if trajectory else 0.0,
        }


class BloomMonitor:
    """Theoretical FPR sampled per flush epoch (the filter resets there)."""

    def __init__(self) -> None:
        self.expected_fpr_samples: Deque[float] = deque(maxlen=SAMPLE_CAPACITY)

    def observe_expected_fpr(self, fpr: float) -> None:
        self.expected_fpr_samples.append(fpr)

    @property
    def mean_expected_fpr(self) -> float:
        samples = self.expected_fpr_samples
        return sum(samples) / len(samples) if samples else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "expected_fpr_samples": list(self.expected_fpr_samples),
            "mean_expected_fpr": self.mean_expected_fpr,
        }


class MonitorHub:
    """The monitor bundle an :class:`~repro.obs.Observability` carries.

    Components feed it through three entry points (key stream, flush cycle,
    WAL fsync); everything else is derived at snapshot/evaluate time.
    """

    def __init__(self):
        self.sortedness = SortednessDriftMonitor()
        self.saturation = SaturationMonitor()
        self.bloom = BloomMonitor()
        self.fsync_count = 0
        self.fsync_total_ns = 0.0

    # -- feeds -------------------------------------------------------------
    def observe_insert(self, key: int, buffer=None) -> None:
        """One arriving key; samples the fill trajectory every few keys."""
        self.sortedness.observe_key(key)
        if buffer is not None and self.sortedness.keys_observed % FILL_SAMPLE_EVERY == 0:
            capacity = buffer.capacity
            if capacity:
                self.saturation.observe_fill(len(buffer) / capacity)

    def observe_inserts(self, keys: Sequence[int], buffer=None) -> None:
        self.sortedness.observe_keys(keys)
        if buffer is not None:
            capacity = buffer.capacity
            if capacity:
                self.saturation.observe_fill(len(buffer) / capacity)

    def observe_flush(self, entries: int, retained: int, effortless: bool) -> None:
        self.saturation.observe_flush(entries, retained, effortless)

    def observe_fsync(self, duration_ns: float) -> None:
        self.fsync_count += 1
        self.fsync_total_ns += duration_ns

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The ``monitors`` section of an observability snapshot."""
        return {
            "sortedness": self.sortedness.snapshot(),
            "saturation": self.saturation.snapshot(),
            "bloom": self.bloom.snapshot(),
            "fsync": {"count": self.fsync_count, "total_ns": self.fsync_total_ns},
        }


# ---------------------------------------------------------------------------
# Signal assembly + threshold rules
# ---------------------------------------------------------------------------

def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def build_signals(
    metrics: Optional[Dict[str, object]] = None,
    monitors: Optional[Dict[str, object]] = None,
    trace: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Flatten the sections of one observability snapshot into one signal
    dict (``build_signals(**obs.snapshot())``).

    A sharded index exports its shards' summed ``SWAREStats`` under the
    same ``sware_*`` gauge names an in-process index uses, so a served
    snapshot reads like an in-process one. Gauges written by the ``sware``
    collector are the fallback for runs that had metrics but no monitor hub.
    """
    gauges: Dict[str, float] = dict((metrics or {}).get("gauges", {}) or {})
    histograms: Dict[str, Dict] = dict((metrics or {}).get("histograms", {}) or {})
    monitors = monitors or {}

    def gauge(name: str, default: float = 0.0) -> float:
        # Collector names deduplicate as sware, sware_2, ... — the first is
        # the primary index of the run, which is what health rules target.
        return float(gauges.get(name, default))

    sortedness = monitors.get("sortedness") or {}
    saturation = monitors.get("saturation") or {}
    bloom = monitors.get("bloom") or {}
    fsync_hist = histograms.get("wal_fsync_ns") or {}

    signals: Dict[str, object] = {
        "windows": list(sortedness.get("windows") or []),
        "flushes": gauge("sware_flushes", float(saturation.get("flushes", 0.0))),
        "flushes_with_sort": gauge("sware_flushes_with_sort"),
        "bulk_loaded_entries": gauge("sware_bulk_loaded_entries"),
        "top_inserted_entries": gauge("sware_top_inserted_entries"),
        "bulk_load_fraction": gauge("sware_bulk_load_fraction"),
        "inserts": gauge("sware_inserts"),
        "bf_false_positives": gauge("sware_global_bf_false_positives"),
        "bf_negatives": gauge("sware_global_bf_negatives"),
        "expected_fpr_mean": float(bloom.get("mean_expected_fpr", 0.0)),
        "fsync_count": float(fsync_hist.get("count", 0.0)),
        "fsync_p99_ns": float(fsync_hist.get("p99", 0.0)),
        "trace_dropped": float((trace or {}).get("dropped", 0.0)),
        "mean_fill": float(saturation.get("mean_fill", 0.0)),
    }
    return signals


def evaluate_signals(signals: Dict[str, object]) -> List[HealthFinding]:
    """Apply every threshold rule; returns findings, most severe first."""
    findings: List[HealthFinding] = []

    # Rule 1: sortedness collapse — late windows far above the baseline K%
    # (the oldest quarter of the windows the drift monitor still keeps).
    windows = signals.get("windows") or []
    if len(windows) >= MIN_WINDOWS:
        quarter = max(1, len(windows) // 4)
        baseline = _mean([w["k_fraction"] for w in windows[:quarter]])
        recent = _mean([w["k_fraction"] for w in windows[-quarter:]])
        delta = recent - baseline
        if delta > SORTEDNESS_COLLAPSE_DELTA:
            findings.append(
                HealthFinding(
                    severity="critical",
                    code="sortedness_collapse",
                    message=(
                        f"windowed K rose from {baseline:.1%} to {recent:.1%} "
                        f"of keys over {len(windows)} windows — arrival "
                        "sortedness is collapsing mid-stream"
                    ),
                    remediation=(
                        "re-run repro.core.advisor.recommend with the drifted "
                        "(K,L): expect split_factor toward 0.5 and buffer_fraction "
                        "raised toward the L/4 rule's 5% cap (SWAREConfig "
                        "buffer_capacity / split_factor)"
                    ),
                    value=delta,
                    threshold=SORTEDNESS_COLLAPSE_DELTA,
                    attrs={"baseline_k": baseline, "recent_k": recent},
                )
            )

    # Rule 2: undersized buffer — flush batches mostly overlap the tree, so
    # ingestion degrades to top-inserts instead of opportunistic bulk loads.
    flushes = float(signals.get("flushes") or 0.0)
    bulk = float(signals.get("bulk_loaded_entries") or 0.0)
    top = float(signals.get("top_inserted_entries") or 0.0)
    if flushes >= MIN_FLUSHES and (bulk + top) > 0:
        bulk_fraction = bulk / (bulk + top)
        if bulk_fraction < BULK_FRACTION_FLOOR:
            findings.append(
                HealthFinding(
                    severity="warning",
                    code="buffer_undersized",
                    message=(
                        f"only {bulk_fraction:.1%} of flushed entries were "
                        f"bulk-loadable across {flushes:.0f} flushes — the buffer "
                        "is too small to absorb the workload's displacement"
                    ),
                    remediation=(
                        "increase buffer_fraction (advisor sizes it at L/4, "
                        "capped at 5%) or SWAREConfig.buffer_capacity so flushed "
                        "batches clear the tree's max key; consider flush_fraction "
                        "0.5 per the §V-D sweep"
                    ),
                    value=bulk_fraction,
                    threshold=BULK_FRACTION_FLOOR,
                    attrs={"bulk_entries": bulk, "top_entries": top},
                )
            )

    # Rule 3: Bloom FPR degraded — observed rate far above theoretical. It
    # reads metered runs only: the filters are walked to bill a meter, so an
    # unmetered index (a live `repro serve`) counts no decisions and this
    # rule has nothing to read; `observe --scenario` and the doctor run
    # their scenarios under a Meter.
    fps = float(signals.get("bf_false_positives") or 0.0)
    negatives = float(signals.get("bf_negatives") or 0.0)
    decisions = fps + negatives
    if decisions >= MIN_BF_DECISIONS:
        observed = fps / decisions
        expected = float(signals.get("expected_fpr_mean") or 0.0)
        threshold = max(BF_FPR_FLOOR, BF_FPR_FACTOR * expected)
        if observed > threshold:
            findings.append(
                HealthFinding(
                    severity="warning",
                    code="bloom_fpr_degraded",
                    message=(
                        f"observed Bloom FPR {observed:.2%} exceeds "
                        f"{threshold:.2%} (theoretical {expected:.2%}) over "
                        f"{decisions:.0f} absent-key probes"
                    ),
                    remediation=(
                        "raise SWAREConfig.bits_per_entry above 10; a saturated "
                        "filter also points at an oversized unsorted tail — lower "
                        "query_sorting_threshold"
                    ),
                    value=observed,
                    threshold=threshold,
                    attrs={"false_positives": fps, "true_negatives": negatives},
                )
            )

    # Rule 4: slow WAL fsync tail.
    fsync_count = float(signals.get("fsync_count") or 0.0)
    fsync_p99 = float(signals.get("fsync_p99_ns") or 0.0)
    if fsync_count >= MIN_FSYNCS and fsync_p99 > FSYNC_P99_NS:
        findings.append(
            HealthFinding(
                severity="warning",
                code="wal_fsync_slow",
                message=(
                    f"WAL fsync p99 is {fsync_p99 / 1e6:.1f} ms over "
                    f"{fsync_count:.0f} syncs"
                ),
                remediation=(
                    "switch WriteAheadLog fsync_policy to 'batch' and group "
                    "commits through put_many (append_puts pays one fsync per "
                    "batch), or place the log on faster storage"
                ),
                value=fsync_p99,
                threshold=FSYNC_P99_NS,
            )
        )

    # Rule 5 (informational): the trace window is truncated.
    dropped = float(signals.get("trace_dropped") or 0.0)
    if dropped > 0:
        findings.append(
            HealthFinding(
                severity="info",
                code="trace_truncated",
                message=(
                    f"{dropped:.0f} trace events were dropped by the ring "
                    "buffer — trace-derived analysis is biased toward the end "
                    "of the run"
                ),
                remediation=(
                    "raise Observability(trace_capacity=...) or trace a "
                    "shorter window"
                ),
                value=dropped,
                threshold=0.0,
            )
        )

    findings.sort(key=lambda f: SEVERITIES.index(f.severity), reverse=True)
    return findings
