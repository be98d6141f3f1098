"""A truncated shift is applied by slicing, with the bits of its matrix.

``clt.TruncatedShift`` never builds T: m T, m T* and T* m are shifted
copies of m's blocks, its window isometry gap is 0 or 1 by structure
and the range of D_(T*) is its degree-0 slot.  Every slice is held to
the product with ``matrix()``, and the coupling, its kernels, the
intertwining residual and the dimension counts to a dense-T oracle kept
here, bit for bit.  The last test runs the commands with ``matrix``
raising, so no command path can build a dense shift.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from liftlab import clt, linalg, serialize

from conftest import lifting_of, random_contraction

GOLDEN = Path(__file__).resolve().parent / "golden"
SHAPES = [(1, 0), (1, 1), (1, 4), (2, 3), (3, 8), (2, 24)]


def complex_block(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("mult, degree", SHAPES)
def test_every_slice_is_the_dense_product(mult, degree):
    rng = np.random.default_rng(100 * mult + degree)
    t = clt.TruncatedShift(mult, degree)
    tm, n = t.matrix(), t.dim
    m = complex_block(rng, 7, n)
    assert np.array_equal(t.right(m), m @ tm)
    # every window, inside the shift's own and past it
    for cols in range(1, n + 1):
        assert np.array_equal(t.right(m, cols), m @ tm[:, :cols])
        assert t.window_gap(cols) == linalg.isometry_gap(tm[:, :cols])
    assert np.array_equal(t.right_adjoint(m), m @ tm.conj().T)
    tall = complex_block(rng, n, 5)
    assert np.array_equal(t.left_adjoint(tall), tm.conj().T @ tall)


@pytest.mark.parametrize("mult, degree", SHAPES)
def test_the_adjoint_defect_range_is_the_degree_zero_slot(mult, degree):
    t = clt.TruncatedShift(mult, degree)
    got = t.adjoint_defect_range(1e-6)
    want = linalg.range_basis(linalg.defect_adjoint(t.matrix(), 1e-6))
    assert got.dim == want.dim == mult
    assert np.max(np.abs(got.projector() - want.projector())) <= 1e-15


@pytest.mark.parametrize("mult, degree", [(1, 4), (2, 3), (3, 8)])
def test_a_window_past_the_shift_raises(mult, degree):
    rng = np.random.default_rng(degree)
    t = clt.TruncatedShift(mult, degree)
    p = clt.shift_intertwining_problem(rng, mult, degree, random_contraction(rng, mult + 1, mult + 1, norm=0.8))
    # a window inside the shift's is isometric; one more column is zero
    assert clt.build_problem(t, p.t_prime, p.x, window=mult * degree).window_dim == mult * degree
    for window in range(mult * degree + 1, t.dim + 1):
        with pytest.raises(clt.NotIsometryOnWindow):
            clt.build_problem(t, p.t_prime, p.x, window=window)


# the dense-T oracle: the constructions with T as its matrix

def dense_omega(p):
    tm, k = p.t.matrix(), p.window_dim
    d_x, d_tp, qx, qp = p.d_x, p.d_tprime, p.basis_x, p.basis_tprime
    g = (qx.columns.conj().T @ d_x @ tm)[:, :k]
    v = np.vstack([(qp.columns.conj().T @ d_tp @ p.x)[:, :k], (qx.columns.conj().T @ d_x)[:, :k]])
    ker, g_pinv = linalg.kernel_and_adjoint_pinv(g.conj().T)
    return v @ g_pinv, ker, linalg.kernel_basis(v.conj().T)


def dense_explicit(p):
    tm = p.t.matrix()
    d_x, d_tp, qx, qp = p.d_x, p.d_tprime, p.basis_x, p.basis_tprime
    reach = linalg.pinv(tm.conj().T @ d_x @ d_x @ tm) @ tm.conj().T @ d_x
    full = np.vstack([d_tp @ p.x @ reach, d_x @ reach])
    hp_dim = p.t_prime.shape[0]
    return np.vstack([qp.columns.conj().T @ full[:hp_dim] @ qx.columns,
                      qx.columns.conj().T @ full[hp_dim:] @ qx.columns])


def dense_intertwining(lifting) -> float:
    k, y = lifting.problem.window_dim, lifting.y
    defect = lifting.minimal.apply(y[:, :k])
    defect -= y @ lifting.problem.t.matrix()[:, :k]
    return linalg.operator_norm(defect)


def dense_dims(ld, p) -> clt.DimsReport:
    rng_tstar = linalg.range_basis(linalg.defect_adjoint(p.t.matrix(), max(p.tol, 1e-6)))
    rng_xstar = linalg.range_basis(linalg.defect_adjoint(p.x, p.tol))
    return clt.DimsReport(
        dim_ker=ld.ker_omega.dim,
        dim_ker_star=ld.ker_omega_star.dim,
        dim_defect_tprime=ld.basis_tprime.dim,
        dim_defect_tstar=rng_tstar.dim,
        dim_meet_left=linalg.subspace_intersection(ld.basis_x, rng_tstar).dim,
        dim_meet_right=linalg.subspace_intersection(ld.basis_tprime, rng_xstar).dim,
    )


def seeded_problem(seed: int) -> clt.CLTProblem:
    """Shift problem `seed` of ten: mult 1-3, degree 4-22, T' a strict
    contraction of size mult + 1 or mult + 2; every third one has a
    window override one block short of the shift's."""
    rng = np.random.default_rng(7700 + seed)
    mult, degree = 1 + seed % 3, 4 + 2 * seed
    t_prime = random_contraction(rng, mult + 1 + seed % 2, mult + 1 + seed % 2, norm=0.8)
    p = clt.shift_intertwining_problem(rng, mult, degree, t_prime, x_norm=0.9)
    if seed % 3 == 2:
        p = clt.build_problem(p.t, p.t_prime, p.x, window=p.window_dim - mult)
    return p


def golden_case(name: str):
    doc = json.loads((GOLDEN / "inputs" / f"{name}.json").read_text(encoding="utf-8"))
    schur = None
    if name == "lift_schur":
        schur = serialize.decode_matpoly(json.loads((GOLDEN / "inputs" / "schur.json").read_text(encoding="utf-8")))
    return serialize.decode_problem(doc), schur


CASES = [("golden", name) for name in ("lift", "lift_schur", "dims")] + [("seeded", s) for s in range(10)]


@pytest.mark.parametrize("kind, which", CASES)
def test_the_coupling_keeps_the_bits_of_the_dense_oracle(kind, which):
    p, r = golden_case(which) if kind == "golden" else (seeded_problem(which), None)
    assert isinstance(p.t, clt.TruncatedShift)
    ld = clt.build_omega(p)
    omega, ker, ker_star = dense_omega(p)
    assert ld.omega_bar.tobytes() == omega.tobytes()
    assert ld.ker_omega.columns.tobytes() == ker.columns.tobytes()
    assert ld.ker_omega_star.columns.tobytes() == ker_star.columns.tobytes()
    if p.basis_x.dim == p.d_x.shape[0]:
        explicit = clt.build_omega_explicit(p)
        want = dense_explicit(p)
        assert explicit.omega_bar.tobytes() == want.tobytes()
        assert explicit.ker_omega.columns.tobytes() == linalg.kernel_basis(want).columns.tobytes()
        assert explicit.ker_omega_star.columns.tobytes() == linalg.kernel_basis(want.conj().T).columns.tobytes()
    else:
        with pytest.raises(clt.DefectSingular):
            clt.build_omega_explicit(p)
    assert clt.dims_report(ld, p) == dense_dims(ld, p)
    lifting = lifting_of(p, r, 64, ld)
    assert lifting.residuals()["intertwining"] == dense_intertwining(lifting)


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lift", "lift_schur", "dims", "prop4_6"])
def test_no_command_builds_a_dense_shift(tmp_path, monkeypatch, name):
    def refuse(self):
        raise AssertionError("a command built the dense matrix of a truncated shift")

    regenerate = load_regenerate()
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(clt.TruncatedShift, "matrix", refuse)
    monkeypatch.chdir(GOLDEN)
    code, report = regenerate.run(name, tmp_path / "report.json")
    want = json.loads((GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8"))
    assert code == manifest["exit_codes"][name] == 0
    assert regenerate.mismatches(report, want, **manifest["tolerance"]) == []
