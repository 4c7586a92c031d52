"""The experiment table (``repro.bench.experiments.EXPERIMENTS``).

Every entry's paper-shape check holds at its reduced size, every committed
report belongs to exactly one entry, and a result that violates its shape
makes ``repro experiment`` exit 1. The pinned-size runs, whose reports must
equal ``results/``, are CI's job (they take about a minute).
"""

from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments.fig10 import Fig10Result
from repro.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_shape_check_holds_at_reduced_size(name):
    entry = EXPERIMENTS[name]
    result = entry.module.run(**entry.run_kwargs(entry.quick_n))
    assert result.report
    entry.module.check(result)


def test_committed_reports_are_the_table_reports():
    reports = [entry.report for entry in EXPERIMENTS.values()]
    assert len(set(reports)) == len(reports)
    assert {path.stem for path in RESULTS.glob("*.txt")} == set(reports)


def test_run_kwargs_pin_and_override():
    fig10 = EXPERIMENTS["fig10"]
    assert fig10.run_kwargs() == {"n": 20_000}
    assert fig10.run_kwargs(1_000) == {"n": 1_000}
    assert EXPERIMENTS["fig19"].run_kwargs() == {}


def test_violated_shape_exits_1(monkeypatch, capsys):
    def scrambled_beats_baseline(**kwargs):
        data = {
            ("sorted", 0.10): 8.0,
            ("sorted", 0.90): 1.5,
            ("near-sorted", 0.10): 3.0,
            ("near-sorted", 0.90): 1.2,
            ("scrambled", 0.50): 1.1,
        }
        return Fig10Result(report="fig10 stand-in", data=data, runs={})

    monkeypatch.setattr(EXPERIMENTS["fig10"].module, "run", scrambled_beats_baseline)
    assert main(["experiment", "fig10"]) == 1
    captured = capsys.readouterr()
    assert "fig10 stand-in" in captured.out
    assert 'assert result.data[("scrambled", 0.50)] < 1.0' in captured.err
