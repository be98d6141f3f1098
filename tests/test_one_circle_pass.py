"""``criteria.boundary_measure_check`` samples the circle once per check.

The check reads every rung of its ladder off one stacked pass of the
circle layer: one ``h2.resolvent_apply_grid`` and one
``h2.eval_circle_grid``, each over the whole ladder, whatever its
length.  The counts are of outermost calls: the resolvent evaluates A
through ``eval_circle_grid`` itself, and that inner call is its own.
The per-rung reference the criteria tests keep makes one call of each
per rung, the planted violation the same count sees.  ex3_1 and ex3_2,
the scenarios that run the check, still exit 0 through ``cli.main``
with their golden verdicts.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from liftlab import cli, criteria, h2
from liftlab.h2 import MatPoly

from test_criteria import EX3_1_EXCLUSIONS, ex3_1_symbol, per_rung_ladders

NAMES = ("eval_circle_grid", "resolvent_apply_grid")
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports"


def count_circle_calls(monkeypatch) -> list:
    """Wrap both functions of the circle layer in every module that binds
    them, as the benchmark's tracer does; the returned list grows by the
    name of each outermost call."""
    calls, depth = [], [0]
    for name in NAMES:
        original = getattr(h2, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            if not depth[0]:
                calls.append(_name)
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        for module in (h2, criteria, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def per_check_counts(monkeypatch) -> list:
    """The circle calls made inside each boundary check, one dict per check."""
    calls, counts = count_circle_calls(monkeypatch), []
    original = criteria.boundary_measure_check

    def check(*args, **kwargs):
        start = len(calls)
        try:
            return original(*args, **kwargs)
        finally:
            counts.append({name: calls[start:].count(name) for name in NAMES})

    monkeypatch.setattr(criteria, "boundary_measure_check", check)
    return counts


ONE_PASS = {"eval_circle_grid": 1, "resolvent_apply_grid": 1}


@pytest.mark.parametrize("ladder", [(0.99,), criteria.DEFAULT_LADDER, (0.5, 0.8, 0.9, 0.99, 0.999)])
def test_one_pass_whatever_the_ladder_length(monkeypatch, ladder):
    counts = per_check_counts(monkeypatch)
    criteria.boundary_measure_check(ex3_1_symbol(degree=64, grid=256), ladder=ladder, grid=256,
                                    exclusions=EX3_1_EXCLUSIONS)
    criteria.boundary_measure_check(MatPoly.constant([[0.5], [0.5]]), ladder=ladder, grid=256)
    assert counts == [ONE_PASS, ONE_PASS]


def test_the_count_sees_a_pass_per_rung(monkeypatch):
    calls = count_circle_calls(monkeypatch)
    per_rung_ladders(MatPoly.constant([[0.5], [0.5]]), criteria.DEFAULT_LADDER, 256)
    assert sorted(calls) == sorted(NAMES * len(criteria.DEFAULT_LADDER))


@pytest.mark.parametrize("scenario", ["ex3_1", "ex3_2"])
def test_the_scenarios_keep_their_golden_verdicts(tmp_path, monkeypatch, scenario):
    counts = per_check_counts(monkeypatch)
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["examples", scenario, "--out", str(out)]) == 0
    assert counts == [ONE_PASS]
    got, want = (json.loads(p.read_text(encoding="utf-8")) for p in (out, GOLDEN / f"{scenario}.json"))
    assert [r["verdict"] for r in got["reports"]] == [r["verdict"] for r in want["reports"]]
    assert got["expected"] == want["expected"] and got["matched"] is True
    np.testing.assert_allclose([v for _, v in got["reports"][0]["rho_ladder"]],
                               [v for _, v in want["reports"][0]["rho_ladder"]], rtol=1e-12)
