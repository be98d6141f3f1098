"""`lift` reads its intertwining residual off the coupling identity.

``criteria.intertwining_norm`` gives ||U'Y - YT|| on the window for the
untruncated lifting Y from the residual e = W c_T - [v'; c] of the
coupling identity, its p + 1 series terms and the Hardy Stein sum of
the state it leaves.  These tests hold it to the truncated Y of
``clt.lift`` (through ``conftest.lifting_of``) on couplings perturbed
away from the identity, and show that the `lift` command builds no part
of the truncated lifting and allocates nothing that grows with
`--degree`.
"""

import contextlib
import io
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liftlab import cli, clt, criteria, linalg
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly, lifting_of, random_contraction, random_unitary
from test_shift_slicing import load_regenerate
from test_window_isometry import golden_lift

GOLDEN = Path(__file__).resolve().parent / "golden"


def rotation(rng, n: int, delta: float) -> np.ndarray:
    """exp(i delta H) for a random Hermitian H of norm 1: a unitary within
    delta of the identity."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(g + g.conj().T)
    return (v * np.exp(1j * delta * w / np.max(np.abs(w)))) @ v.conj().T


def rotated(ld: clt.LiftingData, u: np.ndarray) -> clt.LiftingData:
    """The coupling U Omega with the kernel basis U K_* of its adjoint:
    the symbol assembled from it is U W, as contractive as W, and the
    coupling identity W c_T = [v'; c] is off by (U - I) [v'; c]."""
    return replace(ld, omega_bar=u @ ld.omega_bar,
                   ker_omega_star=linalg.SubspaceBasis(u @ ld.ker_omega_star.columns))


def identity_norm(problem, ld, r) -> float:
    comp = criteria.companion(clt.assemble_schur_W(ld, r), ld.basis_tprime.dim)
    return criteria.intertwining_norm(problem, ld, comp)


@pytest.mark.parametrize("name", ["lift", "lift_schur"])
@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-4])
def test_a_perturbed_coupling_reads_the_residual_of_the_truncated_y(name, delta):
    # zero parameter on lift.json, the golden schur.json on lift_schur.json;
    # at degree 2048 the truncated series has decayed far below rounding
    problem, ld, r = golden_lift(name)
    u = rotation(np.random.default_rng(2026), len(ld.omega_bar), delta)
    ld_u = rotated(ld, u)
    got = identity_norm(problem, ld_u, r)
    want = lifting_of(problem, r, 2048, ld_u).residuals()["intertwining"]
    assert got == pytest.approx(want, rel=1e-6)
    assert 0.1 * delta < got < 2 * delta


def mult_op_problem(rng):
    """Multiplication by z U on series truncated at degree 5, X = 0."""
    symbol = MatPoly(np.stack([np.zeros((2, 2)), random_unitary(rng, 2)]))
    t = clt.MultOp(symbol, 5)
    return clt.build_problem(t, random_contraction(rng, 2, 2, norm=0.7), np.zeros((2, t.dim)))


def isometric_x_problem(rng):
    """D_X = 0, so A has no rows and the residual is the T' defect alone."""
    u = random_unitary(rng, 2)
    t_prime = np.zeros((3, 3), dtype=complex)
    t_prime[:2, :2], t_prime[2, 2] = u, 0.5
    return clt.build_problem(u, t_prime, np.eye(3, 2))


def shift_problem(rng):
    return clt.shift_intertwining_problem(rng, 2, 6, random_contraction(rng, 3, 3, norm=0.8), x_norm=0.9)


# no dense T: a dense T is unitary, and with D_X invertible the top block
# A = D_X T* D_X^(-1) has spectral radius 1, so neither the truncated
# series nor the Stein sum reaches a limit
@pytest.mark.parametrize("make", [mult_op_problem, isometric_x_problem, shift_problem])
@pytest.mark.parametrize("r_degree", [None, 0, 2])
def test_every_operator_kind_matches_the_truncated_y(make, r_degree):
    rng = np.random.default_rng(31)
    problem = make(rng)
    ld = clt.build_omega(problem)
    shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
    r = None if r_degree is None or 0 in shape else contractive_matpoly(rng, *shape, r_degree, norm=0.9)
    # unperturbed, both read rounding; perturbed by 1e-6, they agree
    assert identity_norm(problem, ld, r) <= 1e-14
    ld_u = rotated(ld, rotation(rng, len(ld.omega_bar), 1e-6))
    got = identity_norm(problem, ld_u, r)
    want = lifting_of(problem, r, 1024, ld_u).residuals()["intertwining"]
    assert got == pytest.approx(want, rel=1e-6, abs=1e-15)


@pytest.mark.parametrize("name", ["lift", "lift_schur"])
def test_lift_builds_no_truncated_lifting(tmp_path, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("lift built a part of the truncated lifting")

    regenerate = load_regenerate()
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    for owner, attr in ((clt, "lift"), (clt, "minimal_isometric_lifting"), (clt.Lifting, "residuals")):
        monkeypatch.setattr(owner, attr, refuse)
    monkeypatch.chdir(GOLDEN)
    code, report = regenerate.run(name, tmp_path / "report.json")
    want = json.loads((GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8"))
    assert code == manifest["exit_codes"][name] == 0
    assert regenerate.mismatches(report, want, **manifest["tolerance"]) == []
    assert "degree" not in report["values"]


@pytest.mark.parametrize("degree", [1, 4096])
def test_lift_takes_the_degree_and_reads_it_nowhere(tmp_path, degree):
    # the benchmark passes --degree to lift: it changes nothing but its echo
    argv = ["lift", "--input", str(GOLDEN / "inputs" / "lift_schur.json"),
            "--schur", str(GOLDEN / "inputs" / "schur.json")]
    reports = []
    for extra in ([], ["--degree", str(degree)]):
        out = tmp_path / f"{len(extra)}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(out), *extra]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    assert reports[1]["config"].pop("degree") == degree
    assert reports[0]["config"].pop("degree") is None
    for report in reports:
        report["config"].pop("out")
    assert reports[0] == reports[1]


def test_one_stein_sum_serves_the_window_norm_and_the_residual(tmp_path, monkeypatch):
    # the Hardy sum is the only one with a single weight; the rungs sum a stack
    calls, original = [], linalg.stein_sum
    monkeypatch.setattr(linalg, "stein_sum", lambda powers, weights, *rest: (
        calls.append(np.ndim(weights)), original(powers, weights, *rest))[1])
    argv = ["lift", "--input", str(GOLDEN / "inputs" / "lift.json"), "--out", str(tmp_path / "r.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls.count(2) == 1


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_lift_memory_does_not_grow_with_the_degree(tmp_path):
    argv = ["lift", "--input", str(GOLDEN / "inputs" / "lift.json"), "--out", str(tmp_path / "r.json")]
    traced_peak(argv)
    low, high = (traced_peak([*argv, "--degree", str(degree)]) for degree in (256, 4096))
    assert high <= 1.05 * low
