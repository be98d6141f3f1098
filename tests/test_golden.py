"""Every command's report matches its committed golden.

``golden/regenerate.py`` wrote the goldens and holds the runs: the five
scenarios at their defaults and each other command on the fixtures in
``golden/inputs``.  Exit codes, verdicts, ``matched``, strings,
integers and list lengths (trace lengths among them) must match
exactly; floats within the tolerance recorded in
``golden/manifest.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate = load_regenerate()


def notes(report) -> list:
    """Every `notes` string of a report, at any depth."""
    if isinstance(report, dict):
        return [v for k, v in report.items() if k == "notes"] + [n for v in report.values() for n in notes(v)]
    if isinstance(report, list):
        return [n for v in report for n in notes(v)]
    return []


def with_digits(strings) -> list:
    return [s for s in strings if any(c.isdigit() for c in s)]


def test_every_run_has_a_golden():
    names = {p.stem for p in (GOLDEN / "reports").glob("*.json")}
    assert names == set(regenerate.RUNS) == set(MANIFEST["exit_codes"])


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_report_matches_its_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    code, report = regenerate.run(name, tmp_path / "report.json")
    want = json.loads((GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8"))
    assert code == MANIFEST["exit_codes"][name]
    assert regenerate.mismatches(report, want, **MANIFEST["tolerance"]) == []
    # notes are matched exactly, so they carry no computed number: the
    # values sit in extras, compared within the tolerance
    assert with_digits(notes(report)) == []


def test_no_golden_note_has_a_digit():
    found = [(path.stem, n) for path in sorted((GOLDEN / "reports").glob("*.json"))
             for n in notes(json.loads(path.read_text(encoding="utf-8")))]
    assert found
    assert [(name, n) for name, n in found if with_digits([n])] == []


def test_the_comparison_sees_each_kind_of_change():
    want = {"verdict": "pass", "n": 3, "trace": [[0, 1.0], [1, 0.5]], "value": 1e-16, "big": 2.0}
    tol = {"atol": 1e-12, "rtol": 1e-9}
    mismatches = regenerate.mismatches
    assert mismatches(json.loads(json.dumps(want)), want, **tol) == []
    # rounding noise within the absolute bound, a large value within the relative one
    assert mismatches({**want, "value": 7e-16, "big": 2.0 + 1e-9}, want, **tol) == []
    moved = {**want, "verdict": "fail", "n": 4, "trace": [[0, 1.0]], "big": 2.0 + 1e-8, "value": 1}
    assert [m.split(":")[0] for m in mismatches(moved, want, **tol)] == [
        "$.verdict", "$.n", "$.trace", "$.value", "$.big"]
    # a key added or dropped does not hide a value that moved beside it
    assert [m.split(":")[0] for m in mismatches({**want, "n": 4, "steps": 11}, want, **tol)] == ["$", "$.n"]


def test_the_check_lists_every_move_and_flags_those_beyond_the_tolerance():
    want = {"value": 0.5, "noise": 1e-16, "verdict": "pass"}
    got = {"value": 0.5 + 1e-6, "noise": 2e-16, "verdict": "pass"}
    exact, beyond = regenerate.moved_paths(0, got, 0, want)
    assert [m.split(":")[0] for m in exact] == ["$.value", "$.noise"]
    assert beyond == exact[:1]
    assert regenerate.moved_paths(0, want, 0, want) == ([], [])
    exact, beyond = regenerate.moved_paths(1, want, 0, want)
    assert exact == beyond == ["exit code 1 against 0"]
