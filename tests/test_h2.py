import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import cli, h2, linalg
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly, per_term_series, random_contraction, random_matpoly, random_unitary


class TestEval:
    def test_constant_identity(self, rng):
        p = MatPoly.constant(np.eye(3))
        for z in [0.0, 0.3 + 0.4j, 1j]:
            np.testing.assert_allclose(p(z), np.eye(3), atol=1e-15)

    def test_z_times_identity(self):
        p = MatPoly(np.stack([np.zeros((2, 2)), np.eye(2)]))
        np.testing.assert_allclose(p(1j), 1j * np.eye(2), atol=1e-15)

    def test_value_at_zero_is_constant_term(self, rng):
        p = random_matpoly(rng, 3, 2, 5)
        np.testing.assert_allclose(p(0.0), p.coeffs[0], atol=1e-15)


class TestCircleGrid:
    def test_constant(self):
        p = MatPoly.constant([[2.0, 0], [0, 3.0]])
        vals = h2.eval_circle_grid(p, 1.0, 8)
        assert vals.shape == (8, 2, 2)
        for v in vals:
            np.testing.assert_allclose(v, p.coeffs[0], atol=1e-14)

    @pytest.mark.parametrize("rho, grid", [(1.0, 64), (0.9, 65)])
    def test_constant_is_a_read_only_broadcast_of_the_fft_values(self, rng, rho, grid):
        c = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
        c /= np.max(np.abs(c))
        vals = h2.eval_circle_grid(MatPoly(c), rho, grid)
        # a zero degree-1 term sends the same value through the FFT path
        fft_vals = h2.eval_circle_grid(MatPoly(np.concatenate([c, np.zeros_like(c)])), rho, grid)
        assert vals.shape == fft_vals.shape == (grid, 3, 2)
        assert not vals.flags.writeable
        assert np.max(np.abs(vals - fft_vals)) <= 1e-15

    def test_constant_keeps_the_guards(self):
        p = MatPoly.constant(np.eye(2))
        for rho in (0.0, 1.5):
            with pytest.raises(h2.H2Error):
                h2.eval_circle_grid(p, rho, 8)
        with pytest.raises(h2.GridTooCoarse):
            h2.eval_circle_grid(p, 1.0, 0)

    def test_fourth_roots(self):
        p = MatPoly(np.stack([np.zeros((1, 1)), np.eye(1)]))
        vals = h2.eval_circle_grid(p, 1.0, 4)[:, 0, 0]
        np.testing.assert_allclose(vals, [1, 1j, -1, -1j], atol=1e-14)

    def test_grid_too_coarse(self, rng):
        p = random_matpoly(rng, 1, 1, 4)
        with pytest.raises(h2.GridTooCoarse):
            h2.eval_circle_grid(p, 1.0, 8)

    def test_parseval_cross_check(self, rng):
        p = random_matpoly(rng, 3, 2, 6)
        d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals = np.einsum("nij,j->ni", h2.eval_circle_grid(p, 1.0, 2 * 6 + 1), d)
        grid_mean = np.mean(np.sum(np.abs(vals) ** 2, axis=1))
        coeff_sum = np.sum(np.abs(np.einsum("nij,j->ni", p.coeffs, d)) ** 2)
        assert abs(grid_mean - coeff_sum) <= 1e-12 * max(1, coeff_sum)


class TestNeumannInverse:
    def test_zero(self):
        j = h2.neumann_inverse(MatPoly.zero(2, 2), 5)
        np.testing.assert_allclose(j.coeffs[0], np.eye(2), atol=1e-15)
        assert np.linalg.norm(j.coeffs[1:].ravel()) == 0

    def test_geometric_series(self):
        c = 0.5
        j = h2.neumann_inverse(MatPoly.constant([[c]]), 8)
        np.testing.assert_allclose(j.coeffs[:, 0, 0], c ** np.arange(9), atol=1e-14)

    def test_not_square(self, rng):
        with pytest.raises(h2.NotSquare):
            h2.neumann_inverse(random_matpoly(rng, 3, 2, 1), 4)

    def test_multiply_back_oracle(self, rng):
        # oracle: explicit polynomial multiplication of (I - zA) by J
        for _ in range(8):
            dim = int(rng.integers(1, 7))
            deg = int(rng.integers(0, 9))
            n = int(rng.integers(deg + 1, 257))
            a = contractive_matpoly(rng, dim, dim, deg, norm=0.9)
            j = h2.neumann_inverse(a, n)
            za = MatPoly(np.concatenate([np.zeros((1, dim, dim)), a.coeffs], axis=0))
            prod = h2.polymul(za, j, n)
            residual = h2.pad_coeffs(j, n).coeffs - prod.coeffs
            residual[0] -= np.eye(dim)
            assert np.max(np.abs(residual)) <= 1e-12


def series(a: np.ndarray, c: np.ndarray, count: int) -> np.ndarray:
    """The first `count` terms of h2.resolvent_terms(a, c), stacked."""
    return np.stack([term for _, term in zip(range(count), h2.resolvent_terms(a, c))])


def gamma_terms(w: MatPoly, a_rows: slice, b_rows: slice, block, count: int) -> np.ndarray:
    """Coefficients of B (I - zA)^(-1) block, A = W[a_rows] and B =
    W[b_rows], from the recursion on the transposes as clt.lift runs it:
    Gamma_n^T is term n of (I - z A^T)^(-1) B^T."""
    wt = w.coeffs.transpose(0, 2, 1)
    gamma = series(wt[:, :, a_rows], wt[:, :, b_rows], count).transpose(0, 2, 1)
    return gamma @ np.asarray(block, dtype=complex)


class TestResolventTerms:
    """The per-term recursion against the neumann_inverse oracle and the
    reference recursion of conftest."""

    @pytest.mark.parametrize("dim, deg, m", [(1, 0, 1), (3, 0, 5), (3, 2, 2), (4, 5, 7)])
    @pytest.mark.parametrize("a_on_top", [True, False])
    def test_matches_the_neumann_oracle(self, rng, dim, deg, m, a_on_top):
        a = contractive_matpoly(rng, dim, dim, deg, norm=0.9)
        b = random_matpoly(rng, 2, dim, deg)
        block = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
        n = 96
        j = h2.neumann_inverse(a, n).coeffs @ block
        gamma = h2.polymul(b, MatPoly(j), n).coeffs
        if a_on_top:
            w, a_rows, b_rows = h2.vstack_polys(a, b), slice(0, dim), slice(dim, None)
        else:
            w, a_rows, b_rows = h2.vstack_polys(b, a), slice(2, None), slice(0, 2)
        got = series(w.coeffs[:, a_rows], block[None], n + 1)
        assert got.shape == (n + 1, dim, m)
        assert np.max(np.abs(got - j)) <= 1e-12
        assert np.max(np.abs(gamma_terms(w, a_rows, b_rows, block, n + 1) - gamma)) <= 1e-12

    def test_vector_block(self, rng):
        a = contractive_matpoly(rng, 3, 3, 1, norm=0.9)
        d = rng.standard_normal(3)
        got = series(a.coeffs, d[None], 33)
        assert got.shape == (33, 3)
        assert np.max(np.abs(got - series(a.coeffs, d[:, None][None], 33)[..., 0])) == 0

    @pytest.mark.parametrize("dim, deg, m", [(3, 0, 5), (4, 3, 7), (25, 0, 29), (50, 0, 54), (7, 0, None)])
    def test_equals_the_per_term_series_bit_for_bit(self, rng, dim, deg, m):
        # Z_(n+1) = Y_n, the reference's term n for W = A, and Z_0 = block;
        # a 0.999-scaled unitary keeps a constant's terms far from rounding
        if deg:
            a = contractive_matpoly(rng, dim, dim, deg, norm=0.95).coeffs
        else:
            a = 0.999 * random_unitary(rng, dim)[None]
        shape = (dim,) if m is None else (dim, m)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        count = 256 if dim > 8 else 1024
        got = series(a, block[None], count + 1)
        assert got[0].tobytes() == block.tobytes()
        assert got[1:].tobytes() == per_term_series(a, slice(None), block, count).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), a_deg=st.integers(0, 4),
           c_deg=st.integers(0, 6), m=st.integers(1, 3), n=st.integers(0, 80))
    def test_a_polynomial_c_matches_the_neumann_product(self, seed, dim, a_deg, c_deg, m, n):
        rng = np.random.default_rng(seed)
        a = contractive_matpoly(rng, dim, dim, a_deg, norm=0.9)
        c = random_matpoly(rng, dim, m, c_deg)
        want = h2.pad_coeffs(h2.polymul(h2.neumann_inverse(a, n), c, n), n).coeffs
        assert np.max(np.abs(series(a.coeffs, c.coeffs, n + 1) - want)) <= 1e-12


class TestGamma:
    def test_constant_isometry_column(self):
        g = gamma_terms(MatPoly.constant([[0.0], [1.0]]), slice(0, 1), slice(1, None), [1.0], 7)
        np.testing.assert_allclose(g[0], [1.0], atol=1e-15)
        assert np.linalg.norm(g[1:].ravel()) == 0

    def test_scalar_half_geometric(self):
        w0 = np.array([[0.5], [0.5]])
        g = gamma_terms(MatPoly.constant(w0), slice(0, 1), slice(1, None), [1.0], 65)
        np.testing.assert_allclose(g[:, 0], 0.5 ** (np.arange(65) + 1), atol=1e-15)
        assert abs(cli.gamma_norms_sq(w0, [1.0], 64) - 1.0 / 3.0) <= 1e-9

    def test_zero_bottom_block(self, rng):
        a = contractive_matpoly(rng, 2, 2, 2, norm=0.8)
        w = h2.vstack_polys(a, MatPoly.zero(1, 2, a.degree))
        assert np.max(np.abs(gamma_terms(w, slice(0, 2), slice(2, None), np.eye(2), 17))) <= 1e-14


class TestHardyNorm:
    def test_constant(self):
        # A = 0 and B = [3; 4]: Gamma d is the constant (3, 4)
        assert cli.gamma_norms_sq([[0.0], [3.0], [4.0]], [1.0], 8) == pytest.approx(25.0)

    def test_orthonormal_coefficients(self):
        # A the nilpotent shift and B = I: Gamma e_1 = e_1 + e_2 z, two
        # orthonormal coefficients
        w0 = np.vstack([[[0.0, 0.0], [1.0, 0.0]], np.eye(2)])
        assert cli.gamma_norms_sq(w0, [1.0, 0.0], 8) == pytest.approx(2.0)

    @pytest.mark.parametrize("dim, rows, m, degree", [(1, 1, 1, 0), (2, 1, 3, 7), (4, 3, 2, 64), (6, 2, 5, 300)])
    def test_equals_the_summed_coefficients(self, rng, dim, rows, m, degree):
        # sum over n <= degree of ||B A^n c||^2 for each column c, term by term
        w0 = random_contraction(rng, dim + rows, dim, norm=0.99)
        a, b = w0[:dim], w0[dim:]
        block = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
        want, x = np.zeros(m), block
        for _ in range(degree + 1):
            want += linalg.sq_norms(b @ x)
            x = a @ x
        got = cli.gamma_norms_sq(w0, block, degree)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert cli.gamma_norms_sq(w0, block[:, 0], degree) == pytest.approx(want[0], rel=1e-12)


class TestResolventGrid:
    def test_matches_series_when_coefficients_decay(self, rng):
        a = contractive_matpoly(rng, 3, 3, 3, norm=0.8)
        d = rng.standard_normal(3)
        rho, grid = 0.7, 512
        direct = h2.resolvent_apply_grid(a, d, rho, grid)
        j = h2.neumann_inverse(a, 200)
        series = np.einsum("nij,j->ni", h2.eval_circle_grid(j, rho, grid), d)
        assert np.max(np.abs(direct - series)) <= 1e-10

    def test_scalar_closed_form(self):
        a = MatPoly.constant([[0.5]])
        vals = h2.resolvent_apply_grid(a, [1.0], 0.5, 8)[:, 0]
        z = h2.circle_nodes(0.5, 8)
        np.testing.assert_allclose(vals, 1.0 / (1.0 - 0.5 * z), atol=1e-14)

    def test_probe_block_equals_stacked_columns(self, rng):
        a = contractive_matpoly(rng, 3, 3, 2, norm=0.9)
        probes = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        block = h2.resolvent_apply_grid(a, probes, 0.95, 64)
        assert block.shape == (64, 3, 5)
        columns = [h2.resolvent_apply_grid(a, probes[:, k], 0.95, 64) for k in range(5)]
        assert np.array_equal(block, np.stack(columns, axis=2))


class TestHerglotzFromMeasure:
    def test_lebesgue_gives_one(self):
        mu = h2.CircleMeasure(density_pieces=[(0.0, 2 * np.pi, 1.0)])
        f = h2.herglotz_from_measure(mu, 16)
        np.testing.assert_allclose(f.coeffs[0], [[1.0]], atol=1e-14)
        assert np.max(np.abs(f.coeffs[1:])) <= 1e-14

    def test_point_mass_gives_cayley(self):
        mu = h2.CircleMeasure(point_masses=[(0.0, 1.0)])
        f = h2.herglotz_from_measure(mu, 8)
        np.testing.assert_allclose(f.coeffs[:, 0, 0], [1] + [2] * 8, atol=1e-14)

    def test_split_density_plus_mass(self):
        # density 3/4 on (0, pi), 1/4 on (pi, 2 pi), atom of mass 1/2 at 1
        mu = h2.CircleMeasure(
            density_pieces=[(0.0, np.pi, 0.75), (np.pi, 2 * np.pi, 0.25)],
            point_masses=[(0.0, 0.5)],
        )
        f = h2.herglotz_from_measure(mu, 32)
        assert f(0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(h2.H2Error):
            h2.CircleMeasure(density_pieces=[(0.0, 1.0, -2.0)])
        with pytest.raises(h2.H2Error):
            h2.CircleMeasure(density_pieces=[(0.0, 2.0, 1.0), (1.0, 3.0, 1.0)])


class TestHerglotzFromA:
    def test_zero(self):
        f = h2.herglotz_from_A(MatPoly.zero(2, 2), 6)
        np.testing.assert_allclose(f.coeffs[0], np.eye(2), atol=1e-15)
        assert np.max(np.abs(f.coeffs[1:])) == 0

    def test_scalar_one(self):
        f = h2.herglotz_from_A(MatPoly.constant([[1.0]]), 6)
        np.testing.assert_allclose(f.coeffs[:, 0, 0], [1] + [2] * 6, atol=1e-14)

    def test_real_part_psd_on_grid(self, rng):
        for _ in range(5):
            a = contractive_matpoly(rng, 3, 3, 2, norm=0.9)
            f = h2.herglotz_from_A(a, 128)
            vals = h2.eval_circle_grid(f, 0.9, 512)
            re = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
            eigs = np.linalg.eigvalsh(re)
            assert eigs.min() >= -1e-10


class TestOuter:
    def test_unit_modulus(self):
        res = h2.outer_from_boundary_modulus(np.ones(64), 32)
        np.testing.assert_allclose(res.poly.coeffs[0], [[1.0]], atol=1e-12)
        assert np.max(np.abs(res.poly.coeffs[1:])) <= 1e-12
        assert res.max_modulus_error <= 1e-12

    def test_constant_modulus(self):
        res = h2.outer_from_boundary_modulus(np.full(64, 2.5), 32)
        assert res.poly(0.0)[0, 0] == pytest.approx(2.5, abs=1e-12)

    def test_reconstructs_one_minus_half_z(self):
        # oracle: b(z) = 1 - z/2 has boundary modulus |1 - exp(i t)/2|
        grid = 256
        theta = 2 * np.pi * np.arange(grid) / grid
        m = np.abs(1 - np.exp(1j * theta) / 2)
        res = h2.outer_from_boundary_modulus(m, grid // 2)
        expected = np.zeros(grid // 2 + 1)
        expected[0], expected[1] = 1.0, -0.5
        np.testing.assert_allclose(res.poly.coeffs[:, 0, 0], expected, atol=1e-10)
        assert res.max_modulus_error <= 1e-10
        assert res.clamped == 0

    def test_all_zero_rejected(self):
        with pytest.raises(h2.AllZeroModulus):
            h2.outer_from_boundary_modulus(np.zeros(16), 8)

    def test_szego_equality(self, rng):
        # log|b(0)| equals the grid mean of log|b| for the constructed outer b;
        # bandlimited modulus data so the truncated exp series holds the mass
        grid = 128
        theta = 2 * np.pi * np.arange(grid) / grid
        logm = sum(
            0.2 * rng.standard_normal() * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
            for k in range(1, 7)
        )
        m = np.exp(logm)
        res = h2.outer_from_boundary_modulus(m, grid // 2)
        vals = h2.unit_circle_values(res.poly.coeffs[:, 0, 0], grid)
        lhs = np.log(abs(res.poly(0.0)[0, 0]))
        rhs = np.mean(np.log(np.abs(vals)))
        assert abs(lhs - rhs) <= 1e-8
        assert res.poly(0.0)[0, 0].real > 0


def loop_series_exp(coeffs, degree):
    """Reference loop n b_n = sum_{k=1..n} k l_k b_{n-k}, one arange,
    product and sum per coefficient."""
    l = np.zeros(degree + 1, dtype=complex)
    src = np.asarray(coeffs, dtype=complex).reshape(-1)
    l[: min(len(src), degree + 1)] = src[: degree + 1]
    b = np.zeros(degree + 1, dtype=complex)
    b[0] = np.exp(l[0])
    for n in range(1, degree + 1):
        b[n] = np.sum(np.arange(1, n + 1) * l[1 : n + 1] * b[n - 1 :: -1][:n]) / n
    return b


class TestSeriesExp:
    @pytest.mark.parametrize("terms, degree", [(1, 0), (2, 1), (40, 16), (700, 2047), (3000, 2047)])
    def test_matches_the_loop(self, rng, terms, degree):
        # log-series coefficients decaying like those of a smooth modulus
        k = np.arange(terms)
        l = (rng.standard_normal(terms) + 1j * rng.standard_normal(terms)) / (1 + k) ** 2
        ref = loop_series_exp(l, degree)
        got = h2.series_exp_scalar(l, degree)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_exp_of_a_line(self):
        # exp(a z) = sum a^n z^n / n!
        a, degree = 0.7 - 0.2j, 30
        expected = np.array([a**n / math.factorial(n) for n in range(degree + 1)])
        np.testing.assert_allclose(h2.series_exp_scalar([0.0, a], degree), expected, rtol=1e-13, atol=1e-300)


class TestRadialChainIdentities:
    """Exact finite-radius identities tying the grid quantities together."""

    def _setup(self, rng, rho, grid=512):
        w = contractive_matpoly(rng, 5, 3, int(rng.integers(0, 5)), norm=0.95)
        a, b = w.block_rows(3)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d_vals = h2.resolvent_apply_grid(a, d, rho, grid)
        w_vals = np.einsum("nij,nj->ni", h2.eval_circle_grid(w, rho, grid), d_vals)
        a_vals = np.einsum("nij,nj->ni", h2.eval_circle_grid(a, rho, grid), d_vals)
        b_vals = w_vals[:, 3:]
        return d, d_vals, w_vals, a_vals, b_vals

    def test_gamma_norm_chain(self, rng):
        for rho in (0.5, 0.9):
            d, d_vals, w_vals, a_vals, b_vals = self._setup(rng, rho)
            nd2 = float(np.sum(np.abs(d) ** 2))
            mean_gamma = np.mean(np.sum(np.abs(b_vals) ** 2, axis=1))
            mean_dvals = np.mean(np.sum(np.abs(d_vals) ** 2, axis=1))
            mean_defect = np.mean(
                np.sum(np.abs(d_vals) ** 2, axis=1) - np.sum(np.abs(w_vals) ** 2, axis=1)
            )
            rhs = nd2 - mean_defect - (1 / rho**2 - 1) * (mean_dvals - nd2)
            assert abs(mean_gamma - rhs) <= 1e-9 * max(1.0, nd2)

    def test_a_defect_chain(self, rng):
        for rho in (0.5, 0.9):
            d, d_vals, _, a_vals, _ = self._setup(rng, rho)
            nd2 = float(np.sum(np.abs(d) ** 2))
            mean_da = np.mean(
                np.sum(np.abs(d_vals) ** 2, axis=1) - np.sum(np.abs(a_vals) ** 2, axis=1)
            )
            mean_dvals = np.mean(np.sum(np.abs(d_vals) ** 2, axis=1))
            rhs = nd2 / rho**2 + (1 - 1 / rho**2) * mean_dvals
            assert abs(mean_da - rhs) <= 1e-9 * max(1.0, nd2)

    def test_coefficient_tail_bound(self, rng):
        # partial sums of the output coefficients never exceed the input norm
        w = contractive_matpoly(rng, 4, 2, 3, norm=0.95)
        n = 64
        d = rng.standard_normal(2)
        a, _ = w.block_rows(2)
        dn = series(a.coeffs, d[None], n + 1)
        gn = gamma_terms(w, slice(0, 2), slice(2, None), d, n + 1)
        nd2 = np.sum(np.abs(d) ** 2)
        for k in range(1, n + 1):
            lhs = np.sum(np.abs(dn[k]) ** 2) + np.sum(np.abs(gn[:k]) ** 2)
            assert lhs <= nd2 + 1e-10

    def test_harmonic_mass_identity(self, rng):
        # grid mean of ||D_{zA(z)} d(z)||^2 equals ||d||^2 at every radius,
        # and matches Re(F d, d) for the associated positive-real-part F
        for _ in range(3):
            dim = int(rng.integers(1, 5))
            deg = int(rng.integers(0, 5))
            a = contractive_matpoly(rng, dim, dim, deg, norm=0.9)
            d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            nd2 = float(np.sum(np.abs(d) ** 2))
            f = h2.herglotz_from_A(a, 256)
            for rho in (0.3, 0.7, 0.95):
                grid = 1024
                d_vals = h2.resolvent_apply_grid(a, d, rho, grid)
                z = h2.circle_nodes(rho, grid)
                za_vals = z[:, None, None] * h2.eval_circle_grid(a, rho, grid)
                za_d = np.einsum("nij,nj->ni", za_vals, d_vals)
                h_d = np.sum(np.abs(d_vals) ** 2, axis=1) - np.sum(np.abs(za_d) ** 2, axis=1)
                assert abs(np.mean(h_d) - nd2) <= 1e-9 * max(1.0, nd2)
                f_vals = np.einsum("nij,j->ni", h2.eval_circle_grid(f, rho, grid), d)
                re_fdd = np.real(np.einsum("ni,i->n", f_vals, np.conj(d)))
                assert np.max(np.abs(re_fdd - h_d)) <= 1e-9 * max(1.0, nd2)


def loop_neumann(a_coeffs, degree):
    """Reference loop J_n = sum_{k=1..n} A_{k-1} J_{n-k}; the kernel's
    recursion path must reproduce it bit for bit on every term."""
    dim = a_coeffs.shape[1]
    out = np.zeros((degree + 1, dim, dim), dtype=complex)
    out[0] = np.eye(dim)
    for n in range(1, degree + 1):
        acc = np.zeros((dim, dim), dtype=complex)
        for k in range(1, min(n, a_coeffs.shape[0]) + 1):
            acc += a_coeffs[k - 1] @ out[n - k]
        out[n] = acc
    return out


def direct_product(p, q, degree):
    out = np.zeros((degree + 1, p.shape[1], q.shape[2]), dtype=complex)
    for i in range(min(p.shape[0], degree + 1)):
        for j in range(min(q.shape[0], degree + 1 - i)):
            out[i + j] += p[i] @ q[j]
    return out


def well_conditioned_series(rng, dim, terms):
    """P = P_0 (I - z S) with a unitary-times-two P_0 and S of sup norm
    0.9, so the inverse exists and its coefficients stay bounded."""
    s = contractive_matpoly(rng, dim, dim, terms - 1, norm=0.9, probe_grid=max(64, 8 * terms))
    p0 = 2.0 * random_unitary(rng, dim)
    monic = np.concatenate([np.eye(dim)[None], -s.coeffs])
    return MatPoly(p0 @ monic)


class TestSeriesKernel:
    """series_inverse, neumann_inverse and polymul on both sides of the
    measured crossovers."""

    def test_constant_polynomial_inverts_to_a_constant(self):
        q = h2.series_inverse(MatPoly.constant(2.0 * np.eye(3)), 6)
        assert q.degree == 6
        np.testing.assert_array_equal(q.coeffs[0], 0.5 * np.eye(3))
        assert not np.any(q.coeffs[1:])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
           terms_per_dim=st.sampled_from([0.5, 1, 2, 8]), degree=st.integers(1, 300))
    def test_inverse_times_input_is_identity(self, seed, dim, terms_per_dim, degree):
        rng = np.random.default_rng(seed)
        p = well_conditioned_series(rng, dim, max(1, int(terms_per_dim * dim)))
        q = h2.series_inverse(p, degree)
        assert q.degree == degree
        residual = h2.polymul(p, q, degree).coeffs
        residual[0] -= np.eye(dim)
        assert np.max(np.abs(residual)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
           terms=st.integers(1, 40), degree=st.integers(0, 300))
    def test_newton_matches_recursion(self, seed, dim, terms, degree):
        rng = np.random.default_rng(seed)
        s = contractive_matpoly(rng, dim, dim, terms - 1, norm=0.9, probe_grid=max(64, 8 * terms))
        newton = h2._newton_inverse(s.coeffs, degree)
        assert np.max(np.abs(newton - loop_neumann(s.coeffs, degree))) <= 1e-12

    def test_long_series_take_newton(self):
        # ex3_1 and the 3x3 Herglotz denominators are long; every constant
        # symbol stays on the recursion whatever its dimension
        assert h2._newton_pays(1024, 1, 1024)
        assert h2._newton_pays(1024, 3, 1024)
        for dim in (1, 2, 3, 25, 50):
            assert not h2._newton_pays(1, dim, 4096)

    @pytest.mark.parametrize("dim,deg,n", [(1, 0, 256), (2, 0, 512), (3, 1, 200), (3, 2, 64), (25, 0, 256), (50, 0, 64)])
    def test_neumann_short_symbols_bitwise_equal_loop(self, rng, dim, deg, n):
        a = contractive_matpoly(rng, dim, dim, deg, norm=0.99)
        assert not h2._newton_pays(a.degree + 1, dim, n)
        got, want = h2.neumann_inverse(a, n).coeffs, loop_neumann(a.coeffs, n)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.tuples(*[st.integers(1, 4)] * 3),
           p_terms=st.integers(h2.FFT_MIN_TERMS, 160), q_terms=st.integers(h2.FFT_MIN_TERMS, 160),
           cut=st.integers(0, 400))
    def test_fft_polymul_matches_direct_sum(self, seed, dims, p_terms, q_terms, cut):
        rng = np.random.default_rng(seed)
        out_dim, mid, in_dim = dims
        p = contractive_matpoly(rng, out_dim, mid, p_terms - 1, norm=1.0, probe_grid=max(64, 8 * p_terms))
        q = contractive_matpoly(rng, mid, in_dim, q_terms - 1, norm=1.0, probe_grid=max(64, 8 * q_terms))
        degree = min(cut, p.degree + q.degree)
        got = h2.polymul(p, q, degree).coeffs
        assert got.shape == (degree + 1, out_dim, in_dim)
        assert np.max(np.abs(got - direct_product(p.coeffs, q.coeffs, degree))) <= 1e-12

    def test_herglotz_round_trip_3x3_degree_1024(self, rng):
        a = contractive_matpoly(rng, 3, 3, 6, norm=0.9, probe_grid=64)
        back = h2.herglotz_to_symbol(h2.herglotz_from_A(a, 1024), 1024)
        assert back.degree == 1023
        assert np.max(np.abs(back.coeffs - h2.pad_coeffs(a, back.degree).coeffs)) <= 1e-9
