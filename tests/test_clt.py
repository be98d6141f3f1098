import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from liftlab import clt, h2, linalg, serialize
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly, lifting_of, per_term_series, random_contraction, random_isometry, random_unitary


def window_vectors(problem, rng, count):
    k = problem.window_dim
    h = np.zeros((count, problem.t.dim), dtype=complex)
    h[:, :k] = rng.standard_normal((count, k)) + 1j * rng.standard_normal((count, k))
    return h


def lifted_dim(ml) -> int:
    return ml.h_dim + ml.defect_basis.dim * (ml.degree + 1)


def dense_lifting(ml) -> np.ndarray:
    """Oracle: the matrix of U', read off `apply` on identity columns,
    256 at a time so that no identity of the lifted size is held."""
    n = lifted_dim(ml)
    u = np.empty((n, n), dtype=complex)
    for i in range(0, n, 256):
        u[:, i : i + 256] = ml.apply(np.eye(n, min(256, n - i), k=-i, dtype=complex))
    return u


def random_shift_problem(rng, mult=None, degree=None, p_dim=None, x_norm=0.9):
    mult = mult or int(rng.integers(1, 3))
    degree = degree or int(rng.integers(4, 9))
    p_dim = p_dim or int(rng.integers(mult, mult + 3))
    t_prime = random_contraction(rng, p_dim, p_dim, norm=rng.uniform(0.3, 0.95))
    return clt.shift_intertwining_problem(rng, mult, degree, t_prime, x_norm=x_norm)


class TestOperatorSpecs:
    def test_truncated_shift_matrix(self):
        s = clt.TruncatedShift(1, 3)
        m = s.matrix()
        expected = np.diag(np.ones(3), -1)
        np.testing.assert_allclose(m, expected)
        assert s.window_dim == 3

    def test_multop_with_z_symbol_is_the_shift(self):
        sym = MatPoly(np.stack([np.zeros((2, 2)), np.eye(2)]))
        mo = clt.MultOp(sym, 4)
        np.testing.assert_allclose(mo.matrix(), clt.TruncatedShift(2, 4).matrix())
        assert mo.window_dim == clt.TruncatedShift(2, 4).window_dim

    def test_dense(self, rng):
        u = random_unitary(rng, 3)
        spec = clt.DenseOp(u)
        assert spec.window_dim == 3
        np.testing.assert_allclose(spec.matrix(), u)


class TestBuildProblem:
    def test_identity_problem(self):
        p = clt.build_problem(np.eye(2), np.eye(2), 0.5 * np.eye(2))
        assert p.window_dim == 2

    def test_shift_to_scalar(self):
        x = np.zeros((1, 65), dtype=complex)
        x[0, 0] = 0.5
        p = clt.build_problem(clt.TruncatedShift(1, 64), np.array([[0.0]]), x)
        residual = np.linalg.norm((p.t_prime @ p.x - p.x @ p.t.matrix())[:, : p.window_dim], 2)
        assert residual == 0.0

    def test_intertwining_violation(self, rng):
        t = np.eye(2)
        t_prime = np.array([[0.0, 1.0], [0.0, 0.0]])
        x = 0.5 * np.eye(2)
        with pytest.raises(clt.IntertwiningViolated):
            clt.build_problem(t, t_prime, x)

    def test_intertwining_residual_is_decided_by_its_spectral_norm(self):
        # T'X - XT = -e X with X = I/2: spectral norm e/2, Frobenius norm e/sqrt(2)
        e = 1e-6
        t, t_prime, x = np.eye(2), (1 - e) * np.eye(2), 0.5 * np.eye(2)
        clt.build_problem(t, t_prime, x, tol=0.6 * e)
        with pytest.raises(clt.IntertwiningViolated, match="intertwining residual 5.000e-07 exceeds") as exc:
            clt.build_problem(t, t_prime, x, tol=0.4 * e)
        assert exc.value.residual == pytest.approx(0.5 * e, rel=1e-9)

    def test_rejects_expansive_x(self):
        with pytest.raises(clt.NotContraction):
            clt.build_problem(np.eye(2), np.eye(2), 2 * np.eye(2))

    def test_rejects_non_isometric_t(self):
        with pytest.raises(clt.NotIsometryOnWindow):
            clt.build_problem(0.5 * np.eye(2), np.eye(2), 0.1 * np.eye(2))


class TestMinimalLifting:
    def test_zero_contraction_gives_shift(self):
        ml = clt.minimal_isometric_lifting(np.array([[0.0]]), 4)
        assert ml.u.shape == (2, 1)
        np.testing.assert_allclose(dense_lifting(ml), np.diag(np.ones(5), -1), atol=1e-15)

    def test_unitary_needs_no_room(self, rng):
        u = random_unitary(rng, 3)
        ml = clt.minimal_isometric_lifting(u, 8)
        assert ml.defect_basis.dim == 0
        np.testing.assert_allclose(ml.u, u)
        np.testing.assert_allclose(dense_lifting(ml), u)

    @pytest.mark.parametrize("p_dim, degree", [(1, 3), (2, 6), (3, 32)])
    def test_one_column_and_a_shift(self, rng, p_dim, degree):
        t_prime = random_contraction(rng, p_dim, p_dim, norm=0.8)
        ml = clt.minimal_isometric_lifting(t_prime, degree)
        q, r = ml.defect_basis.columns, ml.defect_basis.dim
        assert ml.u.shape == (p_dim + r, p_dim)
        # the Sz.-Nagy--Foias layout written out block by block
        expected = np.zeros((lifted_dim(ml),) * 2, dtype=complex)
        expected[:p_dim, :p_dim] = t_prime
        expected[p_dim : p_dim + r, :p_dim] = q.conj().T @ linalg.defect(t_prime)
        for n in range(degree):
            lo = p_dim + n * r
            expected[lo + r : lo + 2 * r, lo : lo + r] = np.eye(r)
        oracle = dense_lifting(ml)
        np.testing.assert_allclose(oracle, expected, atol=1e-15)
        v = rng.standard_normal((lifted_dim(ml), 3)) + 1j * rng.standard_normal((lifted_dim(ml), 3))
        np.testing.assert_allclose(ml.apply(v[:, 0]), oracle @ v[:, 0], atol=1e-13)
        np.testing.assert_allclose(ml.apply(v), oracle @ v, atol=1e-13)

    def test_isometric_on_window(self, rng):
        t_prime = random_contraction(rng, 2, 2, norm=0.9)
        ml = clt.minimal_isometric_lifting(t_prime, 6)
        window = lifted_dim(ml) - ml.defect_basis.dim
        oracle = dense_lifting(ml)[:, :window]
        gram = oracle.conj().T @ oracle
        assert np.linalg.norm(gram - np.eye(window), 2) <= 1e-12

    def test_projection_intertwines(self, rng):
        t_prime = random_contraction(rng, 3, 3, norm=0.8)
        ml = clt.minimal_isometric_lifting(t_prime, 5)
        projection = np.eye(lifted_dim(ml))[:3]
        oracle = dense_lifting(ml)
        np.testing.assert_allclose(projection @ oracle, t_prime @ projection, atol=1e-12)

    def test_minimality_spot_check(self, rng):
        t_prime = random_contraction(rng, 2, 2, norm=0.9)
        ml = clt.minimal_isometric_lifting(t_prime, 5)
        oracle = dense_lifting(ml)
        current = np.eye(lifted_dim(ml))[:, :2]
        blocks = [current]
        for _ in range(ml.degree + 1):
            current = oracle @ current
            blocks.append(current)
        span = linalg.range_basis(np.hstack(blocks))
        assert span.dim == lifted_dim(ml)


class TestBuildOmega:
    def test_zero_x_maps_th_to_bottom(self, rng):
        u = random_unitary(rng, 3)
        p = clt.build_problem(u, 0.5 * random_unitary(rng, 3), np.zeros((3, 3)))
        ld = clt.build_omega(p)
        full = clt.omega_full(ld)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = full @ (u @ h)
        np.testing.assert_allclose(got[:3], 0, atol=1e-10)
        np.testing.assert_allclose(got[3:], h, atol=1e-10)

    def test_unitary_x_gives_empty_coupling(self, rng):
        u = random_unitary(rng, 3)
        p = clt.build_problem(u, u, np.eye(3))
        ld = clt.build_omega(p)
        assert ld.basis_x.dim == 0
        assert ld.omega_bar.shape[1] == 0

    def test_isometry_identity(self, rng):
        for _ in range(10):
            p = random_shift_problem(rng)
            d_x = linalg.defect(p.x)
            d_tp = linalg.defect(p.t_prime)
            for h in window_vectors(p, rng, 10):
                lhs = np.linalg.norm(d_x @ p.t.matrix() @ h) ** 2
                rhs = np.linalg.norm(d_tp @ p.x @ h) ** 2 + np.linalg.norm(d_x @ h) ** 2
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    def test_partial_isometry(self, rng):
        for _ in range(5):
            p = random_shift_problem(rng)
            om = clt.build_omega(p).omega_bar
            assert np.linalg.norm(om @ om.conj().T @ om - om, 2) <= 1e-10

    def test_kernel_dim_matches_shift_multiplicity(self, rng):
        for mult in (1, 2):
            p = random_shift_problem(rng, mult=mult, degree=6)
            ld = clt.build_omega(p)
            assert ld.ker_omega.dim == mult

    def test_pseudo_inverse_and_kernel_share_the_rank(self):
        """D_X T on the window has one singular value, 8e-8, below the
        rank cut: the coupling must treat it as kernel in its
        pseudo-inverse too, or Omega stops being a partial isometry."""
        c = 1e-7
        s = np.sqrt(1.0 - c * c)
        u = np.array([[s, -c], [c, s]])
        t_prime = np.array([[s, 0.0], [0.6 * c, 0.5]])
        p = clt.build_problem(u, t_prime, np.diag([1.0, 0.6]), window=1)
        ld = clt.build_omega(p)
        om = ld.omega_bar
        assert np.linalg.norm(om @ om.conj().T @ om - om, 2) <= 1e-12
        assert linalg.range_basis(om).dim + ld.ker_omega.dim == ld.basis_x.dim
        r0 = np.eye(ld.ker_omega_star.dim, ld.ker_omega.dim)
        w0 = clt.assemble_schur_W(ld, MatPoly.constant(r0)).coeffs[0]
        assert np.linalg.norm(w0.conj().T @ w0 - np.eye(ld.basis_x.dim), 2) <= 1e-12


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def coupling_g(p) -> np.ndarray:
    """g = Q_X* D_X T on the window, the matrix build_omega factors."""
    return (p.basis_x.columns.conj().T @ p.d_x @ p.t.matrix())[:, : p.window_dim]


def golden_problem(name):
    return serialize.decode_problem(json.loads((GOLDEN_INPUTS / name).read_text(encoding="utf-8")))


class TestSharedSVD:
    """build_omega reads pinv(g) off the SVD of g* that gives ker g*:
    against numpy's pseudo-inverse arithmetic (``linalg.pinv``) within
    1e-13 relative and at the same rank, with the kernel's bits."""

    @staticmethod
    def check(g):
        ker, g_pinv = linalg.kernel_and_adjoint_pinv(g.conj().T)
        want = linalg.pinv(g)
        assert g_pinv.shape == want.shape
        assert np.linalg.norm(g_pinv - want, 2) <= 1e-13 * max(np.linalg.norm(want, 2), 1e-300)
        rank = g.shape[0] - ker.dim
        assert linalg.range_basis(g_pinv).dim == linalg.range_basis(want).dim == rank
        assert np.array_equal(ker.columns, linalg.kernel_basis(g.conj().T).columns)
        return ker

    @pytest.mark.parametrize("name", ["lift.json", "lift_schur.json", "dims.json"])
    def test_golden_inputs(self, name):
        p = golden_problem(name)
        ker = self.check(coupling_g(p))
        assert np.array_equal(clt.build_omega(p).ker_omega.columns, ker.columns)

    @pytest.mark.parametrize("rank, scale", [(0, 1.0), (1, 1.0), (3, 1e-3), (3, 1e3), (5, 1.0)])
    def test_random_rank_deficient(self, rng, rank, scale):
        for rows, cols in ((7, 5), (5, 7), (6, 6)):
            g = scale * (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) @ (
                rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))
            assert self.check(g).dim == rows - min(rank, rows, cols)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_empty(self, shape):
        # no SVD: g* has no rows or no columns, so its kernel is all of C^rows
        ker, g_pinv = linalg.kernel_and_adjoint_pinv(np.zeros(shape).T)
        assert g_pinv.shape == shape[::-1] and ker.dim == shape[0]


class TestBuildOmegaExplicit:
    def test_scalar_hand_evaluation(self):
        p = clt.build_problem(np.eye(1), np.eye(1), np.array([[0.5]]))
        ld = clt.build_omega_explicit(p)
        gram = ld.omega_bar.conj().T @ ld.omega_bar
        np.testing.assert_allclose(gram, [[1.0]], atol=1e-12)

    def test_zero_x_matches_definitional(self, rng):
        u = random_unitary(rng, 3)
        p = clt.build_problem(u, 0.4 * random_unitary(rng, 3), np.zeros((3, 3)))
        a = clt.omega_full(clt.build_omega(p))
        b = clt.omega_full(clt.build_omega_explicit(p))
        assert np.linalg.norm(a - b, 2) <= 1e-10

    def test_matches_definitional_on_random_problems(self, rng):
        for _ in range(10):
            p = random_shift_problem(rng, x_norm=rng.uniform(0.2, 0.9))
            a = clt.omega_full(clt.build_omega(p))
            b = clt.omega_full(clt.build_omega_explicit(p))
            assert np.linalg.norm(a - b, 2) <= 1e-8

    def test_rejects_singular_defect(self, rng):
        u = random_unitary(rng, 2)
        p = clt.build_problem(u, u, np.eye(2))
        with pytest.raises(clt.DefectSingular):
            clt.build_omega_explicit(p)


class TestAssembleW:
    def test_zero_parameter_gives_constant_coupling(self, rng):
        p = random_shift_problem(rng)
        ld = clt.build_omega(p)
        w = clt.assemble_schur_W(ld, None)
        assert w.degree == 0
        np.testing.assert_allclose(w.coeffs[0], ld.omega_bar, atol=1e-14)

    def test_trivial_kernel_ignores_parameter(self, rng):
        u = random_unitary(rng, 3)
        p = clt.build_problem(u, 0.5 * random_unitary(rng, 3), np.zeros((3, 3)))
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim == 0
        w = clt.assemble_schur_W(ld, MatPoly.zero(ld.ker_omega_star.dim, 0))
        np.testing.assert_allclose(w.coeffs[0], ld.omega_bar, atol=1e-14)

    def test_isometric_parameter_gives_isometric_w0(self, rng):
        p = random_shift_problem(rng, mult=1, degree=6, p_dim=2)
        ld = clt.build_omega(p)
        k, ks = ld.ker_omega.dim, ld.ker_omega_star.dim
        assert k >= 1 and ks >= k
        r0 = random_isometry(rng, ks, k)
        w = clt.assemble_schur_W(ld, MatPoly.constant(r0))
        w0 = w.coeffs[0]
        np.testing.assert_allclose(w0.conj().T @ w0, np.eye(ld.basis_x.dim), atol=1e-10)

    def test_wrong_shapes_rejected(self, rng):
        p = random_shift_problem(rng)
        ld = clt.build_omega(p)
        with pytest.raises(clt.WrongKernelShapes):
            clt.assemble_schur_W(ld, MatPoly.zero(ld.ker_omega_star.dim + 1, ld.ker_omega.dim))

    def test_expansive_parameter_rejected(self, rng):
        p = random_shift_problem(rng, mult=1, degree=5, p_dim=2)
        ld = clt.build_omega(p)
        r = MatPoly.constant(2.0 * np.eye(ld.ker_omega_star.dim, ld.ker_omega.dim))
        with pytest.raises(clt.NotContractiveOnGrid):
            clt.assemble_schur_W(ld, r)


class TestLift:
    def test_identity_problem_zero_x(self, rng):
        u = random_unitary(rng, 2)
        p = clt.build_problem(u, 0.5 * random_unitary(rng, 2), np.zeros((2, 2)))
        lifting = lifting_of(p, None, 16)
        res = lifting.residuals()
        # Y's top rows are X, written, not computed
        assert np.array_equal(lifting.y[:2], p.x)
        assert list(res) == ["intertwining"] and res["intertwining"] <= 1e-10
        assert linalg.operator_norm(lifting.y) <= 1.0 + 1e-10

    def test_contract_on_random_problems(self, rng):
        for _ in range(10):
            p = random_shift_problem(rng)
            ld = clt.build_omega(p)
            k, ks = ld.ker_omega.dim, ld.ker_omega_star.dim
            r = MatPoly.constant(random_contraction(rng, ks, k, norm=rng.uniform(0, 1)))
            lifting = lifting_of(p, r, 48, ld)
            assert np.array_equal(lifting.y[: p.x.shape[0]], p.x)
            assert lifting.residuals()["intertwining"] <= 1e-8
            assert linalg.operator_norm(lifting.y[:, : p.window_dim]) <= 1.0 + 1e-8

    def test_contraction_on_window_vectors(self, rng):
        p = random_shift_problem(rng, mult=1, degree=8)
        lifting = lifting_of(p, None, 64)
        for h in window_vectors(p, rng, 100):
            assert np.linalg.norm(lifting.y @ h) <= np.linalg.norm(h) * (1 + 1e-10)

    def test_distinct_parameters_give_distinct_liftings(self, rng):
        for _ in range(5):
            p = random_shift_problem(rng, mult=1, degree=6, p_dim=2)
            ld = clt.build_omega(p)
            k, ks = ld.ker_omega.dim, ld.ker_omega_star.dim
            r1 = MatPoly.constant(random_isometry(rng, ks, k))
            r2 = MatPoly.constant(-r1.coeffs[0])
            l1 = lifting_of(p, r1, 24, ld)
            l2 = lifting_of(p, r2, 24, ld)
            h = window_vectors(p, rng, 1)[0]
            assert np.linalg.norm(l1.y @ h - l2.y @ h) > 1e-6

    @pytest.mark.parametrize("mult, degree", [(1, 8), (2, 32), (1, 1024)])
    def test_residuals_match_dense_oracle(self, rng, mult, degree):
        p = random_shift_problem(rng, mult=mult, degree=6)
        ld = clt.build_omega(p)
        r = MatPoly.constant(random_contraction(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, norm=0.9))
        lifting = lifting_of(p, r, degree, ld)
        oracle = dense_lifting(lifting.minimal)
        y, k = lifting.y, p.window_dim
        want = np.linalg.norm((oracle @ y - y @ p.t.matrix())[:, :k], 2)
        assert lifting.residuals() == {"intertwining": pytest.approx(want, abs=1e-12)}
        # the projection onto H' is X, bit for bit
        assert np.array_equal(np.eye(p.t_prime.shape[0], y.shape[0]) @ y, p.x)

    @pytest.mark.parametrize("degree", [8, 1024])
    @pytest.mark.parametrize("r_degree", [0, 2])
    def test_y_matches_the_gamma_oracle(self, rng, degree, r_degree):
        # oracle: Gamma = B J with J = (I - zA)^(-1) as dense coefficients
        p = random_shift_problem(rng, mult=2, degree=6, p_dim=3)
        ld = clt.build_omega(p)
        shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
        r = contractive_matpoly(rng, *shape, r_degree, norm=0.9)
        lifting = lifting_of(p, r, degree, ld)
        b, a = lifting.w.block_rows(ld.basis_tprime.dim)
        gamma = h2.polymul(b, h2.neumann_inverse(a, degree), degree)
        coords = ld.basis_x.columns.conj().T @ ld.d_x
        series = h2.pad_coeffs(gamma, degree).coeffs @ coords
        want = np.vstack([p.x, series.reshape(-1, p.t.dim)])
        assert lifting.y.shape == want.shape
        assert np.max(np.abs(lifting.y - want)) <= 1e-12

    @pytest.mark.parametrize("r_degree", [0, 2])
    def test_y_off_a_block_boundary_matches_the_per_term_series(self, rng, r_degree):
        # Y against the reference recursion applied to Q* D_X column by column
        degree = 100
        p = random_shift_problem(rng, mult=2, degree=6, p_dim=3)
        ld = clt.build_omega(p)
        r = contractive_matpoly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, r_degree, norm=0.9)
        lifting = lifting_of(p, r, degree, ld)
        r_prime = ld.basis_tprime.dim
        coords = ld.basis_x.columns.conj().T @ ld.d_x
        series = per_term_series(lifting.w.coeffs, slice(r_prime, None), coords, degree + 1)[:, :r_prime]
        want = np.vstack([p.x, series.reshape(-1, p.t.dim)])
        assert lifting.y.shape == want.shape
        assert np.max(np.abs(lifting.y - want)) <= 1e-12

    @pytest.mark.parametrize("degree", [1, 63, 64, 65, 1024])
    @pytest.mark.parametrize("r_degree", [0, 2])
    def test_y_at_doubling_boundaries_matches_the_per_term_series(self, rng, degree, r_degree):
        # Y's series rows double at 1, 2, 4, ...: degree + 1 = 64 and 65
        # terms end on and just past a doubling, 66 one term further
        p = random_shift_problem(rng, mult=2, degree=6, p_dim=3)
        ld = clt.build_omega(p)
        r = contractive_matpoly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, r_degree, norm=0.9)
        lifting = lifting_of(p, r, degree, ld)
        r_prime = ld.basis_tprime.dim
        coords = ld.basis_x.columns.conj().T @ ld.d_x
        series = per_term_series(lifting.w.coeffs, slice(r_prime, None), coords, degree + 1)[:, :r_prime]
        want = np.vstack([p.x, series.reshape(-1, p.t.dim)])
        assert lifting.y.shape == want.shape
        assert np.max(np.abs(lifting.y - want)) <= 1e-12

    @pytest.mark.parametrize("degree", [1, 64, 65])
    def test_zero_defect_of_x_gives_zero_series_at_doubling_boundaries(self, rng, degree):
        # D_X = 0: A has no rows, its companion is empty and the doubling
        # has nothing to square; T' = U (+) 1/2 keeps one series row per term
        u = random_unitary(rng, 2)
        t_prime = np.zeros((3, 3), dtype=complex)
        t_prime[:2, :2], t_prime[2, 2] = u, 0.5
        lifting = lifting_of(clt.build_problem(u, t_prime, np.eye(3, 2)), None, degree)
        assert lifting.data.basis_x.dim == 0
        assert lifting.y.shape == (3 + degree + 1, 2)
        assert not np.any(lifting.y[3:])

    @pytest.mark.parametrize("defect_of_t_prime", [False, True])
    def test_isometric_x_lifts_to_x_over_zero_series(self, rng, defect_of_t_prime):
        # D_X = 0, so Gamma has no columns; T' is unitary (no series rows)
        # or T' = U (+) 1/2 with X = [I; 0] (one series row per term)
        u = random_unitary(rng, 2)
        if defect_of_t_prime:
            t_prime = np.zeros((3, 3), dtype=complex)
            t_prime[:2, :2], t_prime[2, 2] = u, 0.5
            x = np.eye(3, 2)
        else:
            t_prime, x = u, np.eye(2)
        p = clt.build_problem(u, t_prime, x)
        lifting = lifting_of(p, None, 5)
        r_prime = lifting.data.basis_tprime.dim
        assert lifting.data.basis_x.dim == 0
        assert r_prime == int(defect_of_t_prime)
        assert lifting.y.shape == (x.shape[0] + 6 * r_prime, 2)
        assert np.array_equal(lifting.y[: x.shape[0]], x)
        assert not np.any(lifting.y[x.shape[0] :])
        assert lifting.residuals()["intertwining"] == 0.0

    def test_residuals_memory_does_not_grow_with_lifted_dim_squared(self, rng):
        # at degree 1024 the lifted space has 2 + 2 * 1025 dimensions:
        # a dense U' alone would take 2052^2 * 16 bytes, about 67 MB
        p = random_shift_problem(rng, mult=1, degree=6, p_dim=2)
        ld = clt.build_omega(p)
        assert ld.basis_tprime.dim == 2
        tracemalloc.start()
        try:
            lifting_of(p, None, 1024, ld).residuals()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_shift_with_isometric_parameter_is_isometric(self, rng):
        p = random_shift_problem(rng, mult=1, degree=10, p_dim=2, x_norm=0.85)
        ld = clt.build_omega(p)
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        lifting = lifting_of(p, MatPoly.constant(r0), 256, ld)
        for h in window_vectors(p, rng, 20):
            ratio = np.linalg.norm(lifting.y @ h) / np.linalg.norm(h)
            assert abs(ratio - 1.0) <= 1e-6


class TestDimsReport:
    def test_identity_zero_x(self, rng):
        u = random_unitary(rng, 2)
        p = clt.build_problem(u, u, np.zeros((2, 2)))
        ld = clt.build_omega(p)
        rep = clt.dims_report(ld, p)
        assert rep.dim_ker == 0 and rep.dim_ker_star == 0
        assert rep.kernel_inequality and rep.defect_inequality and rep.meet_inequality

    def test_shift_fixture_reduction(self, rng):
        for mult in (1, 2):
            p = random_shift_problem(rng, mult=mult, degree=6, p_dim=mult + 1)
            ld = clt.build_omega(p)
            rep = clt.dims_report(ld, p)
            assert rep.dim_ker == mult
            assert rep.dim_defect_tstar == mult
            # strict contraction on both sides: the meets collapse to the defects
            assert rep.dim_meet_left == rep.dim_defect_tstar
            assert rep.dim_meet_right == rep.dim_defect_tprime
            assert rep.kernel_inequality == rep.defect_inequality == rep.meet_inequality
