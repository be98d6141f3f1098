"""Seeded inputs and the operation list of each workload.

``build(workload, seed, work_dir, tiny)`` draws the workload's inputs
from the seed, writes them as problem, polynomial and extension JSON
through ``serialize.encode_*`` into ``work_dir`` and returns the
operations of one pass.  An operation runs one ``liftlab`` command
through ``cli.main``, or one library round trip, and leaves a
deterministic JSON report at ``op.out`` whose ``matched`` flag says
whether every expectation held.  ``tiny`` shrinks degrees and grids so
the self-test runs in seconds; it changes no operation's kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from liftlab import cli, clt, h2, serialize
from liftlab.h2 import MatPoly

WORKLOADS = ("series", "lifting", "model")
HERGLOTZ_TOL = 1e-9
SIZE_KEYS = ("degree", "grid", "dim_ker", "dim_ker_star", "dim_defect_tprime", "dim_defect_tstar")


def _no_check(report: dict) -> list:
    return []


@dataclass
class Operation:
    """`call` runs the operation and returns its exit code; `check`
    returns the reasons the decoded report is wrong, beyond its own
    `matched` flag; `sizes` holds what the generator chose."""

    name: str
    call: Callable[[], int]
    out: Path
    sizes: dict = field(default_factory=dict)
    check: Callable[[dict], list] = _no_check


def report_sizes(report: dict) -> dict:
    """Degrees, grids and kernel and defect dimensions a report says it used."""
    sizes = {k: v for k, v in report.get("values", {}).items() if k in SIZE_KEYS}
    for rep in report.get("reports", []):
        for key in ("degree", "grid"):
            if key in rep.get("tolerances", {}):
                sizes[f"{rep['criterion_id']}.{key}"] = rep["tolerances"][key]
    return sizes


def _write(path: Path, doc) -> Path:
    path.write_text(serialize.dumps_canonical(doc), encoding="utf-8")
    return path


def _cli_op(name: str, args: list, work: Path, sizes=None, check=_no_check) -> Operation:
    out = work / f"{name}.report.json"
    argv = [*args, "--out", str(out)]
    return Operation(name, lambda: cli.main(argv), out, sizes or {}, check)


def _complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def contractive_poly(rng, dim: int, degree: int, norm: float) -> MatPoly:
    """Random square polynomial scaled to the given sup norm on a grid
    that resolves its degree."""
    p = MatPoly(_complex(rng, degree + 1, dim, dim))
    vals = h2.eval_circle_grid(p, 1.0, max(64, 8 * (degree + 1)))
    sup = max(np.linalg.norm(v, 2) for v in vals)
    return MatPoly(p.coeffs * (norm / sup))


def shift_problem(rng, mult: int, degree: int) -> clt.CLTProblem:
    """Truncated-shift lifting problem with a strict contraction T' of
    size mult + 1 (so D_T' has full rank mult + 1)."""
    p_dim = mult + 1
    raw = _complex(rng, p_dim, p_dim)
    t_prime = raw * (0.8 / np.linalg.norm(raw, 2))
    return clt.shift_intertwining_problem(rng, mult, degree, t_prime, x_norm=0.9)


def _defect_dims_check(mult: int) -> Callable[[dict], list]:
    """D_T' has full rank mult + 1 and the shift's adjoint defect has
    rank mult, whatever the seed."""
    want = {"dim_defect_tprime": mult + 1, "dim_defect_tstar": mult}

    def check(report: dict) -> list:
        values = report.get("values", {})
        return [f"{k} = {values.get(k)}, expected {v}" for k, v in want.items() if values.get(k) != v]

    return check


def _herglotz_op(name: str, path: Path, degree: int, work: Path) -> Operation:
    """A -> (I + zA)(I - zA)^-1 -> A at the given degree; A must come back."""
    out = work / f"{name}.report.json"

    def call() -> int:
        a = serialize.decode_matpoly(json.loads(path.read_text(encoding="utf-8")))
        back = h2.herglotz_to_symbol(h2.herglotz_from_A(a, degree), degree)
        err = float(np.max(np.abs(back.coeffs - h2.pad_coeffs(a, back.degree).coeffs)))
        matched = err <= HERGLOTZ_TOL
        report = {
            "command": "herglotz_round_trip",
            "matched": matched,
            "recovered": serialize.encode_matpoly(h2.pad_coeffs(back, a.degree)),
            "values": {"degree": back.degree, "round_trip_error": err},
        }
        out.write_text(serialize.dumps_canonical(report), encoding="utf-8")
        return 0 if matched else 1

    def check(report: dict) -> list:
        err = report["values"]["round_trip_error"]
        return [] if err <= HERGLOTZ_TOL else [f"round-trip error {err:.3e} above {HERGLOTZ_TOL:g}"]

    return Operation(name, call, out, {"dim": 3, "symbol_degree": 6, "degree": degree}, check)


def _series(rng, work: Path, tiny: bool) -> list:
    degree = 64 if tiny else 1024
    ex_args = ["--degree", "64"] if tiny else []
    ops = [_cli_op("ex3_1", ["examples", "ex3_1", *ex_args], work)]
    for i in range(2):
        path = _write(work / f"herglotz{i}.input.json", serialize.encode_matpoly(contractive_poly(rng, 3, 6, 0.9)))
        ops.append(_herglotz_op(f"herglotz{i}", path, degree, work))
    return ops


def _lifting(rng, work: Path, tiny: bool) -> list:
    shift_degree = 8 if tiny else 24
    ex_args = ["--degree", "64", "--grid", "256"] if tiny else []
    ops = [_cli_op("prop4_6", ["examples", "prop4_6", *ex_args], work)]
    for mult, degree in ((1, None), (2, None), (1, 1024)):
        if tiny:
            degree = 64 if degree else 32
        name = f"lift_mult{mult}" + (f"_degree{degree}" if degree else "")
        problem = shift_problem(rng, mult, shift_degree)
        path = _write(work / f"{name}.input.json", serialize.encode_problem(problem))
        args = ["lift", "--input", str(path)] + (["--degree", str(degree)] if degree else [])
        # ||X|| = 0.9 < 1, so D_X has full rank: the dimension of A in the Neumann series
        sizes = {"mult": mult, "shift_degree": shift_degree, "dim_defect_x": mult * (shift_degree + 1)}
        ops.append(_cli_op(name, args, work, sizes, _defect_dims_check(mult)))
    return ops


def _extension_doc(rng, h_dim: int, m_dim: int, mp_dim: int, hp_dim: int) -> dict:
    """Extension problem with a strict contraction C of full rank, so
    rank D_C* = m_dim and an extension exists iff hp_dim - mp_dim >= h_dim."""
    c = _complex(rng, m_dim, mp_dim)
    c *= 0.9 / np.linalg.norm(c, 2)
    return {
        "H_dim": h_dim,
        "H_prime_dim": hp_dim,
        "M": serialize.encode_matrix(_complex(rng, h_dim, m_dim)),
        "M_prime": serialize.encode_matrix(_complex(rng, hp_dim, mp_dim)),
        "C": serialize.encode_matrix(c),
        "expect": {"feasible": hp_dim - mp_dim >= h_dim},
    }


def _model(rng, work: Path, tiny: bool) -> list:
    ops = [_cli_op(s, ["examples", s], work) for s in ("ex3_2", "rk3_1", "cor3_3")]
    grid, degree = (128, 32) if tiny else (512, 128)
    path = _write(work / "bimodel.input.json", serialize.encode_matpoly(contractive_poly(rng, 3, 3, 0.9)))
    ops.append(_cli_op("bimodel", ["bimodel", "--input", str(path), "--grid", str(grid), "--degree", str(degree)],
                       work, {"dim": 3, "symbol_degree": 3}))
    for name, hp_dim in (("coiso_feasible", 10), ("coiso_infeasible", 9)):
        path = _write(work / f"{name}.input.json", _extension_doc(rng, 6, 3, 4, hp_dim))
        ops.append(_cli_op(name, ["coiso", "--input", str(path)], work,
                           {"H_dim": 6, "M_dim": 3, "M_prime_dim": 4, "H_prime_dim": hp_dim}))
    doc = serialize.encode_problem(shift_problem(rng, 2, 8 if tiny else 24))
    doc["expect"] = {"dim_defect_tprime": 3, "dim_defect_tstar": 2}
    path = _write(work / "dims.input.json", doc)
    ops.append(_cli_op("dims", ["dims", "--input", str(path)], work, {"mult": 2}))
    return ops


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> list:
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    return {"series": _series, "lifting": _lifting, "model": _model}[workload](rng, work, tiny)
