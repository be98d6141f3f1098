"""Prop 4.6's "lifted map is isometric", decided on the untruncated lifting.

``criteria.window_gram_extremes`` reads the extreme eigenvalues of the
window Gram matrix X_k* X_k + C* S_inf C, S_inf the Stein limit of
``criteria.hardy_gram``, instead of applying a truncation of Y; prop4_6
reads its isometry deviation off them and `lift` its window norm.  These
tests tie that Gram matrix to the Y that ``clt.lift`` builds, show where
the truncation and the limit part ways, and show that a doubling which
reaches its cap fails prop4_6 and is recorded, not gated, by `lift`.
"""

import contextlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import cli, clt, criteria, h2, linalg, serialize
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly, lifting_of, random_contraction, random_isometry


def window_gram_of_y(problem, lifting) -> np.ndarray:
    y = lifting.y[:, : problem.window_dim]
    return y.conj().T @ y


def stein_window_gram(problem, ld, w, count: int) -> np.ndarray:
    """X_k* X_k + C* E S_count E* C with the companion M of A and the rows
    L_B of B, W = [B; A]: the window Gram matrix of Y truncated after
    count - 1 series terms."""
    k = problem.window_dim
    b, a = w.block_rows(ld.basis_tprime.dim)
    rows = h2.state_rows(b, a.degree + 1)
    s, _ = linalg.stein_sum(linalg.power_ladder(h2.realize(a), count), rows.conj().T @ rows, count)
    c = (ld.basis_x.columns.conj().T @ ld.d_x)[:, :k]
    x = problem.x[:, :k]
    return x.conj().T @ x + c.conj().T @ s[: a.in_dim, : a.in_dim] @ c


def deviation_of(low: float, top: float) -> float:
    """sup | ||Yh|| - 1 | over unit window vectors h, from the extreme
    eigenvalues of the window Gram matrix."""
    return max(abs(math.sqrt(max(top, 0.0)) - 1.0), abs(1.0 - math.sqrt(max(low, 0.0))))


def deviation(gram: np.ndarray) -> float:
    return deviation_of(*np.linalg.eigvalsh(gram)[[0, -1]])


def window_deviation(problem, ld, w) -> tuple[float, bool]:
    """The deviation of the untruncated lifting of the symbol w and
    whether its Stein sum converged."""
    low, top, converged = criteria.window_gram_extremes(problem, ld, criteria.companion(w, ld.basis_tprime.dim))
    return deviation_of(low, top), converged


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mult=st.integers(1, 2), degree=st.integers(0, 80),
       r_degree=st.integers(0, 2))
def test_the_window_gram_of_y_is_the_truncated_stein_sum(seed, mult, degree, r_degree):
    rng = np.random.default_rng(seed)
    t_prime = random_contraction(rng, mult + 1, mult + 1, norm=0.8)
    problem = clt.shift_intertwining_problem(rng, mult, 6, t_prime, x_norm=0.9)
    ld = clt.build_omega(problem)
    shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
    r = MatPoly.constant(random_isometry(rng, *shape)) if r_degree == 0 else \
        contractive_matpoly(rng, *shape, r_degree, norm=0.9)
    lifting = lifting_of(problem, r, degree, ld)
    want = stein_window_gram(problem, ld, lifting.w, degree + 1)
    assert np.linalg.norm(window_gram_of_y(problem, lifting) - want, 2) <= 1e-13 * max(1.0, np.linalg.norm(want, 2))


def slow_problem():
    """A mult-1 shift problem whose isometric parameter gives a top block A
    of spectral radius above 0.999; T' of norm 0.99 pushes it there."""
    rng = np.random.default_rng(27)
    t_prime = random_contraction(rng, 2, 2, norm=0.99)
    problem = clt.shift_intertwining_problem(rng, 1, 24, t_prime, x_norm=0.9)
    ld = clt.build_omega(problem)
    r0 = MatPoly.constant(random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim))
    return problem, ld, r0


def test_the_limit_decides_where_degree_512_does_not():
    problem, ld, r0 = slow_problem()
    lifting = lifting_of(problem, r0, 512, ld)
    assert linalg.spectral_radius(lifting.w.coeffs[0, ld.basis_tprime.dim :]) >= 0.999
    truncated = deviation(window_gram_of_y(problem, lifting))
    dev, converged = window_deviation(problem, ld, lifting.w)
    assert truncated > 1e-4 > 1e-12 > dev and converged
    # the truncation is the Stein sum after 513 terms, not a sampling artefact
    assert truncated == pytest.approx(deviation(stein_window_gram(problem, ld, lifting.w, 513)), rel=1e-9)


def test_a_unimodular_eigenvalue_reaches_the_cap_and_fails():
    # W = [B; A], A = diag(1, 0.5), B = [0 sqrt(0.75)] and X = [1 0]: the
    # window Gram matrix is I in the limit, but A^G never vanishes, so the
    # doubling reaches the cap and the statement is not decided
    a, b = np.diag([1.0, 0.5]), np.array([[0.0, np.sqrt(0.75)]])
    full, empty = linalg.SubspaceBasis.full, linalg.SubspaceBasis.empty
    ld = clt.LiftingData(np.diag([0.0, 1.0]), full(2), full(1), np.vstack([b, a]), empty(2), empty(3))
    problem = SimpleNamespace(window_dim=2, x=np.array([[1.0, 0.0]]))
    dev, converged = window_deviation(problem, ld, MatPoly.constant(np.vstack([b, a])))
    assert not converged
    assert np.isfinite(dev) and dev <= 1e-12


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def golden_lift(name: str):
    """The problem, coupling and free parameter `lift` reads for the
    golden input `name`, the coupling by the route `lift` takes."""
    def load(file):
        return json.loads((GOLDEN_INPUTS / file).read_text(encoding="utf-8"))

    problem = serialize.decode_problem(load(f"{name}.json"))
    try:
        ld = clt.build_omega_explicit(problem)
    except clt.DefectSingular:
        ld = clt.build_omega(problem)
    r = serialize.decode_matpoly(load("schur.json")) if name == "lift_schur" else None
    return problem, ld, r


@pytest.mark.parametrize("name", ["lift", "lift_schur"])
def test_the_window_norm_is_that_of_the_truncated_y(name):
    # oracle: ||Y_k|| of the lifting truncated at degree 256, whose series
    # has decayed below rounding there
    problem, ld, r = golden_lift(name)
    lifting = lifting_of(problem, r, 256, ld)
    want = linalg.operator_norm(lifting.y[:, : problem.window_dim])
    _, top, converged = criteria.window_gram_extremes(problem, ld, criteria.companion(lifting.w, ld.basis_tprime.dim))
    assert converged
    assert abs(math.sqrt(top) - want) <= 1e-12


def run_lift(tmp_path, name: str) -> tuple[int, dict]:
    argv = ["lift", "--input", str(GOLDEN_INPUTS / f"{name}.json")]
    if name == "lift_schur":
        argv += ["--schur", str(GOLDEN_INPUTS / "schur.json")]
    out = tmp_path / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["lift", "lift_schur"])
def test_lift_reads_its_window_norm_off_the_window_gram_matrix(tmp_path, name):
    problem, ld, r = golden_lift(name)
    w = clt.assemble_schur_W(ld, r)
    _, top, converged = criteria.window_gram_extremes(problem, ld, criteria.companion(w, ld.basis_tprime.dim))
    code, report = run_lift(tmp_path, name)
    assert code == 0
    assert report["values"]["window_norm"] == math.sqrt(top)
    assert report["values"]["hardy_converged"] is converged is True
    assert "projection" not in report["values"]


def test_lift_records_a_sum_that_did_not_converge_without_gating(tmp_path, monkeypatch):
    # planted: the Stein sum reports that it reached its cap; the window
    # norm is still read, and the verdicts and exit code stay as they were
    original = criteria.hardy_gram
    monkeypatch.setattr(criteria, "hardy_gram", lambda comp, cols: (original(comp, cols)[0], False))
    code, report = run_lift(tmp_path, "lift")
    assert code == 0
    assert report["values"]["hardy_converged"] is False
    assert report["expected"]["lifting is contractive on the window"] is True


def run_prop4_6(tmp_path, seed: int) -> tuple[int, dict]:
    out = tmp_path / f"prop4_6_{seed}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["examples", "prop4_6", "--seed", str(seed), "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert "Infinity" not in text
    return code, json.loads(text)


def test_prop4_6_exits_0_on_every_seed(tmp_path):
    failed = [seed for seed in range(8100, 8140) if run_prop4_6(tmp_path, seed)[0] != 0]
    assert failed == []


def test_a_doubling_that_reaches_the_cap_fails_prop4_6(tmp_path, monkeypatch):
    # seed 8123's mult-1 top block has spectral radius 0.9995: its powers
    # vanish to eps at the 16th doubling, so a cap of 15 leaves a partial
    # sum.  That sum already reads far below 1e-4, but a sum that has not
    # converged decides nothing
    monkeypatch.setattr(criteria, "TAYLOR_SQUARINGS", 15)
    code, report = run_prop4_6(tmp_path, 8123)
    assert code == 1
    assert report["values"]["mult1_hardy_converged"] is False
    assert report["values"]["mult1_isometry_deviation"] <= 1e-12
    assert report["expected"]["mult 1: lifted map is isometric within 1e-4"] is False
