"""Write the golden reports that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [--check]

It draws the command fixtures from FIXTURE_SEED into inputs/, runs
every entry of RUNS through ``cli.main`` with the working directory set
to this folder, and writes each report to reports/<name>.json and the
exit codes and float tolerance to manifest.json.  A report's
``config.out`` is set to null: it names the scratch file the report was
written to.  Before it overwrites a golden it prints every path that
moved against it, by the comparison tests/test_golden.py makes.  A
change that moves a golden lists in CHANGES.md every field that moved
and why; a golden is never regenerated to hide a defect.

With ``--check`` it writes nothing: it runs every entry on the
committed inputs, prints every path that moved at all (tolerance 0)
against the committed golden and exit code, marks with ``BEYOND`` the
paths that moved beyond the golden tolerance, and exits 1 only if
there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from liftlab import cli, clt, coiso, h2, linalg, serialize
from liftlab.h2 import MatPoly

HERE = Path(__file__).resolve().parent
FIXTURE_SEED = 20261019
# floats match within atol + rtol |golden|: BLAS rounding differs between
# hosts, and values that are rounding noise (~1e-16) move by a large
# relative amount, so the bound is absolute plus relative
TOLERANCE = {"atol": 1e-12, "rtol": 1e-9}

RUNS = {
    **{s: ["examples", s] for s in cli.SCENARIOS},
    "lift": ["lift", "--input", "inputs/lift.json"],
    "lift_schur": ["lift", "--input", "inputs/lift_schur.json", "--schur", "inputs/schur.json"],
    "coiso_feasible": ["coiso", "--input", "inputs/coiso_feasible.json"],
    "coiso_infeasible": ["coiso", "--input", "inputs/coiso_infeasible.json"],
    "dims": ["dims", "--input", "inputs/dims.json"],
    "bimodel": ["bimodel", "--input", "inputs/bimodel.json", "--grid", "64", "--degree", "8"],
}


def _complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _contraction(rng, rows: int, cols: int, norm: float) -> np.ndarray:
    m = _complex(rng, rows, cols)
    return m * (norm / np.linalg.norm(m, 2))


def _contractive_poly(rng, rows: int, cols: int, degree: int, norm: float) -> MatPoly:
    """A random polynomial scaled to sup norm `norm` on a 64-node circle grid."""
    p = MatPoly(_complex(rng, degree + 1, rows, cols))
    sup = max(np.linalg.norm(v, 2) for v in h2.eval_circle_grid(p, 1.0, 64))
    return MatPoly(p.coeffs * (norm / sup))


def _shift_problem_doc(rng, expect: dict) -> dict:
    """A mult-1 shift problem of degree 4 with a strict 2 x 2 contraction
    T', so D_T' has rank 2 and the shift's adjoint defect rank 1."""
    problem = clt.shift_intertwining_problem(rng, 1, 4, _contraction(rng, 2, 2, 0.8), x_norm=0.9)
    return {**serialize.encode_problem(problem), "expect": expect}


def _extension_doc(rng, hp_dim: int) -> dict:
    """2-dim M in C^3 and M' in C^hp_dim with a strict contraction C of
    full rank, so an extension exists iff hp_dim - 2 >= 3."""
    m = linalg.range_basis(_complex(rng, 3, 2))
    mp = linalg.range_basis(_complex(rng, hp_dim, 2))
    problem = coiso.ExtensionProblem(3, hp_dim, m, mp, _contraction(rng, 2, 2, 0.9))
    return {**serialize.encode_extension_problem(problem), "expect": {"feasible": hp_dim - 2 >= 3}}


def fixtures() -> dict:
    """The input files of RUNS, by file name."""
    rng = np.random.default_rng(FIXTURE_SEED)
    # the zero free parameter is not isometric on the coupling kernel,
    # and a parameter of sup norm 0.9 is a strict contraction: neither
    # lifting is an isometry
    docs = {"lift.json": _shift_problem_doc(rng, {"lifting_isometry": "fail"})}
    docs["lift_schur.json"] = _shift_problem_doc(rng, {"lifting_isometry": "fail"})
    ld = clt.build_omega(serialize.decode_problem(docs["lift_schur.json"]))
    r = _contractive_poly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, 2, 0.9)
    docs["schur.json"] = serialize.encode_matpoly(r)
    docs["dims.json"] = _shift_problem_doc(rng, {"dim_defect_tprime": 2, "dim_defect_tstar": 1})
    docs["coiso_feasible.json"] = _extension_doc(rng, 5)
    docs["coiso_infeasible.json"] = _extension_doc(rng, 4)
    docs["bimodel.json"] = serialize.encode_matpoly(_contractive_poly(rng, 2, 2, 2, 0.9))
    return docs


def mismatches(got, want, atol: float, rtol: float, path: str = "$") -> list:
    """Where `got` differs from `want`: floats beyond atol + rtol |want|,
    anything else at all, a differing type included."""
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r} against {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        keys = [f"{path}: keys {sorted(set(got) ^ set(want))} differ"] if set(got) != set(want) else []
        shared = [key for key in want if key in got]
        return keys + [m for key in shared for m in mismatches(got[key], want[key], atol, rtol, f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} against {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, atol, rtol, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if abs(got - want) <= atol + rtol * abs(want) else [f"{path}: {got!r} against {want!r}"]
    return [] if got == want else [f"{path}: {got!r} against {want!r}"]


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def run(name: str, out: Path) -> tuple[int, dict]:
    """The exit code and the report of RUNS[name], written to `out`; the
    working directory must be this folder."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*RUNS[name], "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    report["config"]["out"] = None
    return code, report


def moved_paths(code: int, report: dict, old_code, old) -> tuple[list, list]:
    """What moved in one run against its golden: every path at
    tolerance 0, then the paths beyond TOLERANCE."""
    if old is None:
        return ["no committed golden"], ["no committed golden"]
    exact, beyond = mismatches(report, old, 0.0, 0.0), mismatches(report, old, **TOLERANCE)
    if old_code != code:
        line = f"exit code {code!r} against {old_code!r}"
        exact, beyond = [line, *exact], [line, *beyond]
    return exact, beyond


def check() -> int:
    """Compare every run with its golden and write nothing."""
    os.chdir(HERE)
    old_codes = (_load(HERE / "manifest.json") or {}).get("exit_codes", {})
    flagged = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in RUNS:
            code, report = run(name, Path(scratch) / f"{name}.json")
            exact, beyond = moved_paths(code, report, old_codes.get(name), _load(HERE / "reports" / f"{name}.json"))
            for line in exact:
                print(f"{name}: {line}" + ("  BEYOND" if line in beyond else ""))
            flagged += len(beyond)
    print(f"checked {len(RUNS)} reports; {flagged} paths beyond atol {TOLERANCE['atol']:g} + rtol {TOLERANCE['rtol']:g}")
    return 1 if flagged else 0


def main() -> int:
    os.chdir(HERE)
    inputs, reports = HERE / "inputs", HERE / "reports"
    inputs.mkdir(exist_ok=True)
    reports.mkdir(exist_ok=True)
    for name, doc in fixtures().items():
        (inputs / name).write_text(serialize.dumps_canonical(doc), encoding="utf-8")
    codes, old_codes = {}, (_load(HERE / "manifest.json") or {}).get("exit_codes", {})
    for name in RUNS:
        path = reports / f"{name}.json"
        old = _load(path)
        codes[name], report = run(name, path)
        for line in moved_paths(codes[name], report, old_codes.get(name), old)[1]:
            print(f"{name}: {line}")
        path.write_text(serialize.dumps_canonical(report), encoding="utf-8")
    manifest = {"exit_codes": codes, "tolerance": TOLERANCE}
    (HERE / "manifest.json").write_text(serialize.dumps_canonical(manifest), encoding="utf-8")
    print(f"wrote {len(codes)} reports; exit codes {sorted(set(codes.values()))}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check the golden reports.")
    parser.add_argument("--check", action="store_true", help="compare with the goldens and write nothing")
    sys.exit(check() if parser.parse_args().check else main())
