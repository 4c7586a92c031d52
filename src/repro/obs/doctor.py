"""The doctor view of ``repro observe``: evaluate health rules on a snapshot.

The doctor closes the loop the monitors open: it takes one
:meth:`~repro.obs.Observability.snapshot` — taken in process after a
seeded scenario, or read off a running server's STATS reply — evaluates
every threshold rule in :mod:`repro.obs.monitors`, and renders the findings
with remediation hints phrased against the knobs
:mod:`repro.core.advisor` exposes.

Two seeded scenarios make the diagnosis testable end to end:

* ``healthy`` — the paper's near-sorted sweet spot (K=10%, L=5%) with an
  adequately sized buffer; evaluates clean (no warning/critical findings);
* ``drift`` — the same stream whose sortedness collapses mid-run (the
  second part is a uniform shuffle) in front of an undersized buffer; the
  doctor reports the collapse (critical) and the degraded bulk-load
  fraction (warning).

A served index fed a scenario's insert stream reports the same finding
codes as the scenario run in process (``tests/test_doctor.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import SWAREConfig
from repro.obs import Observability, observe
from repro.obs.monitors import (
    HealthFinding,
    build_signals,
    evaluate_signals,
)

#: The seeded scenarios (also the CLI choices).
SCENARIOS = ("healthy", "drift")

#: Share of a scenario's operations that are point lookups.
READ_FRACTION = 0.3


def scenario_workload(
    scenario: str = "healthy", n: int = 20_000, seed: int = 7
) -> Tuple[SWAREConfig, list]:
    """(buffer config, mixed operation stream) of one seeded scenario.

    ``drift`` splits the stream 50/50: a (K=10%, L=5%) near-sorted prefix,
    then a uniform shuffle of the next key range — the arrival sortedness
    collapse of the paper's motivating scenario — in front of a buffer a
    quarter of the healthy size.
    """
    from repro.bench.experiments import common
    from repro.sortedness.generator import generate_kl_keys, scrambled_keys

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} (choices: {SCENARIOS})")

    if scenario == "healthy":
        keys = list(common.keys_for(n, 0.10, 0.05, seed=seed))
        fraction = 0.02
    else:
        n_sorted = n // 2
        keys = generate_kl_keys(n_sorted, 0.10, 0.05, seed=seed)
        # The collapse: the rest of the key range arrives uniformly
        # shuffled, so late drift windows sit near K%=100.
        keys = keys + scrambled_keys(n - n_sorted, seed=seed + 1, start=n_sorted)
        fraction = 0.005
    ops = common.mixed_ops(tuple(keys), READ_FRACTION, seed=seed)
    return common.buffer_config(n, fraction), ops


def run_scenario(
    scenario: str = "healthy",
    n: int = 20_000,
    seed: int = 7,
    obs: Optional[Observability] = None,
) -> Observability:
    """Run one seeded scenario observed by ``obs``; returns it.

    By default a fresh monitored Observability (tracing off) is created;
    pass one to share it with a concurrent reader or to turn tracing on.
    """
    from repro.bench.experiments import common
    from repro.bench.runner import run_phases

    config, ops = scenario_workload(scenario, n, seed)
    if obs is None:
        obs = Observability(monitors=True)
    with observe(obs):
        run_phases(
            common.sa_btree_factory(config),
            [("mixed", ops)],
            label=f"doctor-{scenario}",
        )
    return obs


def evaluate(snap: Dict[str, object]) -> List[HealthFinding]:
    """Evaluate every health rule on one observability snapshot."""
    return evaluate_signals(build_signals(**snap))


_SEVERITY_MARK = {"critical": "✗", "warning": "!", "info": "·"}


def split_findings(
    findings: List[HealthFinding],
) -> Tuple[List[HealthFinding], List[HealthFinding]]:
    """(actionable, notes): warning/critical findings vs info notes."""
    actionable = [f for f in findings if f.severity in ("warning", "critical")]
    notes = [f for f in findings if f.severity == "info"]
    return actionable, notes


def format_report(findings: List[HealthFinding], source: str = "run") -> str:
    """The human findings report (severities, values, remediation hints)."""
    actionable, notes = split_findings(findings)
    lines = [f"repro doctor — {source}"]
    if not actionable:
        lines.append("health: OK — no findings")
    else:
        worst = actionable[0].severity
        lines.append(
            f"health: {worst.upper()} — "
            f"{len(actionable)} finding{'s' if len(actionable) != 1 else ''}"
        )
    for finding in actionable:
        mark = _SEVERITY_MARK.get(finding.severity, "?")
        lines.append(f"  {mark} [{finding.severity}] {finding.code}")
        lines.append(f"      {finding.message}")
        lines.append(f"      fix: {finding.remediation}")
    for note in notes:
        lines.append(f"  · [note] {note.code}: {note.message}")
    return "\n".join(lines) + "\n"
