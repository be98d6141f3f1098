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


def mismatches(got, want, atol: float, rtol: float, path: str = "$") -> list:
    """Where `got` differs from `want`: floats beyond atol + rtol |want|,
    anything else at all, a differing type included."""
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r} against {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [m for key in want for m in mismatches(got[key], want[key], atol, rtol, f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} against {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, atol, rtol, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if abs(got - want) <= atol + rtol * abs(want) else [f"{path}: {got!r} against {want!r}"]
    return [] if got == want else [f"{path}: {got!r} against {want!r}"]


def test_every_run_has_a_golden():
    names = {p.stem for p in (GOLDEN / "reports").glob("*.json")}
    assert names == set(regenerate.RUNS) == set(MANIFEST["exit_codes"])


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_report_matches_its_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    code, report = regenerate.run(name, tmp_path / "report.json")
    want = json.loads((GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8"))
    assert code == MANIFEST["exit_codes"][name]
    assert mismatches(report, want, **MANIFEST["tolerance"]) == []


def test_the_comparison_sees_each_kind_of_change():
    want = {"verdict": "pass", "n": 3, "trace": [[0, 1.0], [1, 0.5]], "value": 1e-16, "big": 2.0}
    tol = {"atol": 1e-12, "rtol": 1e-9}
    assert mismatches(json.loads(json.dumps(want)), want, **tol) == []
    # rounding noise within the absolute bound, a large value within the relative one
    assert mismatches({**want, "value": 7e-16, "big": 2.0 + 1e-9}, want, **tol) == []
    moved = {**want, "verdict": "fail", "n": 4, "trace": [[0, 1.0]], "big": 2.0 + 1e-8, "value": 1}
    assert [m.split(":")[0] for m in mismatches(moved, want, **tol)] == [
        "$.verdict", "$.n", "$.trace", "$.value", "$.big"]
