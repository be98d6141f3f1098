import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import h2, linalg
from liftlab.h2 import MatPoly, VecPoly

from conftest import contractive_matpoly, random_matpoly, random_unitary


class TestEval:
    def test_constant_identity(self, rng):
        p = MatPoly.identity(3)
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


class TestGamma:
    def test_constant_isometry_column(self):
        w = MatPoly.constant([[0.0], [1.0]])
        g = h2.gamma_from_W(w, 6)
        np.testing.assert_allclose(g.coeffs[0], [[1.0]], atol=1e-15)
        assert np.linalg.norm(g.coeffs[1:].ravel()) == 0

    def test_scalar_half_geometric(self):
        w = MatPoly.constant([[0.5], [0.5]])
        g = h2.gamma_from_W(w, 64)
        expected = 0.5 ** (np.arange(65) + 1)
        np.testing.assert_allclose(g.coeffs[:, 0, 0], expected, atol=1e-15)
        gd = h2.apply_to_vector(g, [1.0])
        assert abs(h2.hardy_norm_sq(gd) - 1.0 / 3.0) <= 1e-9

    def test_zero_bottom_block(self, rng):
        a = contractive_matpoly(rng, 2, 2, 2, norm=0.8)
        w = h2.vstack_polys(a, MatPoly.zero(1, 2, a.degree))
        g = h2.gamma_from_W(w, 16)
        assert np.max(np.abs(g.coeffs)) <= 1e-14


class TestHardyNorm:
    def test_constant(self):
        v = VecPoly(np.array([[3.0, 4.0]], dtype=complex))
        assert h2.hardy_norm_sq(v) == pytest.approx(25.0)

    def test_orthonormal_coefficients(self):
        v = VecPoly(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
        assert h2.hardy_norm_sq(v) == pytest.approx(2.0)


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
        a, _ = w.block_rows(2)
        n = 64
        g = h2.gamma_from_W(w, n)
        j = h2.neumann_inverse(a, n)
        d = rng.standard_normal(2)
        dn = np.einsum("nij,j->ni", j.coeffs, d)
        gn = np.einsum("nij,j->ni", g.coeffs, d)
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
    recursion path must reproduce it bit for bit."""
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
        assert h2.neumann_inverse(a, n).coeffs.tobytes() == loop_neumann(a.coeffs, n).tobytes()

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
