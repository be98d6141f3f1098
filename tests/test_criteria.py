import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import cli, clt, criteria, h2, linalg
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly, random_contraction, random_isometry, random_unitary


def shift_problem(rng, mult=1, degree=8, p_dim=2, x_norm=0.85):
    t_prime = random_contraction(rng, p_dim, p_dim, norm=0.8)
    return clt.shift_intertwining_problem(rng, mult, degree, t_prime, x_norm=x_norm)


def identity_obstruction_data():
    """T = T' = [1], X = [0]: the coupling is the identity, so the
    symbol's top block is 1 and its adjoint has eigenvalue 1."""
    p = clt.build_problem(np.eye(1), np.eye(1), np.zeros((1, 1)))
    return p, clt.build_omega(p)


class TestVerdictRules:
    def test_ladder_rules(self):
        assert criteria.ladder_verdict([0.1, 0.01, 1e-4], 1e-3) == "pass"
        assert criteria.ladder_verdict([0.5, 0.5, 0.5], 1e-3) == "fail"
        assert criteria.ladder_verdict([0.2, 0.4, 0.6], 1e-3) == "fail"
        assert criteria.ladder_verdict([1e-5, 1e-3, 1e-4], 1e-3) == "inconclusive"
        assert criteria.ladder_verdict([], 1e-3) == "pass"

    def test_taylor_rules(self):
        decayed = [1.0] * 4 + [1e-9] * 4
        assert criteria.taylor_verdict(list(enumerate(decayed)), 1e-6) == "pass"
        assert criteria.taylor_verdict(list(enumerate([1.0] * 8)), 1e-6) == "fail"
        assert criteria.taylor_verdict(list(enumerate([1.0] * 4 + [0.05] * 4)), 1e-6) == "inconclusive"

    def test_taylor_tail_on_dyadic_indices(self):
        # n = 0, 1, 2, 4, 8: the tail is n = 4 and 8, the head n = 0, 1 and 2
        def dyadic(*values):
            return list(zip([0, 1, 2, 4, 8], values))

        assert criteria.taylor_verdict(dyadic(1.0, 1.0, 1.0, 1e-7, 1e-9), 1e-6) == "pass"
        assert criteria.taylor_verdict(dyadic(1.0, 1.0, 1.0, 0.05, 1e-9), 1e-6) == "inconclusive"
        assert criteria.taylor_verdict(dyadic(1.0, 1.0, 1.0, 0.2, 1e-9), 1e-6) == "fail"
        # one entry is its own head and tail
        assert criteria.taylor_verdict([(0, 1.0)], 1e-6) == "fail"

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.sampled_from([1.0, 0.3, 0.05, 1e-3, 1e-7, 0.0]), min_size=1, max_size=12))
    def test_per_term_lists_keep_the_half_way_rule(self, values):
        # the rule before traces carried their indices: tail from len // 2
        half = len(values) // 2
        tail, head = values[half:], values[:half] or values
        want = "pass" if max(tail) < 1e-6 else "fail" if max(tail) > 0.1 * max(head) else "inconclusive"
        assert criteria.taylor_verdict(list(enumerate(values)), 1e-6) == want

    def test_combination(self):
        assert criteria.combine_verdicts("pass", "pass") == "pass"
        assert criteria.combine_verdicts("pass", "fail") == "fail"
        assert criteria.combine_verdicts("pass", "inconclusive") == "inconclusive"
        assert criteria.combine_verdicts("inconclusive", "fail") == "fail"


class TestRadialIsometry:
    def test_constant_isometric_column_passes(self):
        w = MatPoly.constant([[0.0], [1.0]])
        rep = criteria.radial_isometry_check(w, grid=64, degree=32)
        assert rep.verdict == "pass"
        assert rep.rho_ladder[-1][1] <= 1e-12

    def test_unitary_top_block_fails_flat_trace(self):
        w = MatPoly.constant([[1.0], [0.0]])
        rep = criteria.radial_isometry_check(w, grid=64, degree=32)
        assert rep.verdict == "fail"
        trace = [v for _, v in rep.taylor_trace]
        assert max(trace) - min(trace) <= 1e-12
        assert trace[0] == pytest.approx(1.0)
        # a flat trace never passes, so it squares to the cap
        assert [n for n, _ in rep.taylor_trace] == [0] + [1 << k for k in range(criteria.TAYLOR_SQUARINGS + 1)]
        assert rep.tolerances["degree_used"] == rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS

    def test_scalar_half_column_fails_with_positive_limit(self):
        w = MatPoly.constant([[0.5], [0.5]])
        rep = criteria.radial_isometry_check(w, grid=256, degree=64)
        assert rep.verdict == "fail"
        # closed form: the defect integrand mean is (1/2)/(1 - rho^2/4)
        for rho, value in rep.rho_ladder:
            assert value == pytest.approx(0.5 / (1 - rho**2 / 4), rel=1e-9)

    def test_equivalent_formulations_agree(self, rng):
        # the weighted-resolvent and defect-of-A forms give one verdict
        for w0 in ([[0.0], [1.0]], [[0.5], [0.5]], [[1.0], [0.0]]):
            rep = criteria.radial_isometry_check(MatPoly.constant(w0), grid=128, degree=64)
            weighted = rep.extras["weighted_verdict"]
            a_form = rep.extras["a_defect_verdict"]
            assert (weighted == "pass") == (a_form == "pass")


class TestTaylorTrace:
    @pytest.mark.parametrize("dim, deg", [(1, 0), (4, 0), (3, 2), (2, 6)])
    def test_matches_the_neumann_oracle(self, rng, dim, deg):
        a = contractive_matpoly(rng, dim, dim, deg, norm=0.95)
        probes = criteria.probe_matrix(dim)
        n = 128
        trace = criteria.taylor_trace(a, probes, n, criteria.TOL_TAYLOR)
        indices = [k for k, _ in trace]
        if deg:
            assert indices[: n + 1] == list(range(n + 1))
        else:
            # a constant squares: n = 0, 1, 2, 4, ... until the trace passes
            assert indices == [0] + [1 << k for k in range(len(trace) - 1)]
            assert criteria.taylor_verdict(trace, criteria.TOL_TAYLOR) == "pass"
        j = h2.neumann_inverse(a, indices[-1])
        want = np.max(np.linalg.norm(j.coeffs[indices] @ probes, axis=1), axis=1)
        assert np.max(np.abs(np.array([v for _, v in trace]) - want)) <= 1e-12

    # the per-term stream of a polynomial symbol, at rungs up to 0.9999 so
    # the defect ladder (1 - rho^2) c^4 / (1 - c^4 rho^4) passes for c <= 0.9
    LADDER = (0.9, 0.99, 0.9999)

    @staticmethod
    def column(c: float) -> MatPoly:
        """The degree-1 column [c^2 z; sqrt(1 - c^4)], isometric on the
        circle: its Taylor trace is c^n at even n and 0 at odd n."""
        return MatPoly(np.array([[[0.0], [np.sqrt(1 - c**4)]], [[c**2], [0.0]]]))

    def test_slow_decay_stays_inconclusive_at_the_cap(self):
        # 0.9^n: the tail max is 0.034 of the head at degree 64 and still
        # 1.9e-12 > tol at the cap, 8 * 64
        rep = criteria.radial_isometry_check(self.column(0.9), ladder=self.LADDER, grid=128, degree=64,
                                             tol_taylor=1e-13)
        assert "taylor decay: inconclusive" in rep.notes
        assert rep.verdict == "inconclusive"
        assert rep.tolerances["degree"] == 64
        assert rep.tolerances["degree_cap"] == rep.tolerances["degree_used"] == 8 * 64
        assert len(rep.taylor_trace) == 8 * 64 + 1

    def test_decaying_trace_stops_at_the_requested_degree(self):
        for c in (0.5, 1.0):
            rep = criteria.radial_isometry_check(self.column(c), ladder=self.LADDER, grid=128, degree=64)
            assert rep.verdict == ("pass" if c < 1 else "fail")
            assert ("taylor decay: pass" if c < 1 else "taylor decay: fail") in rep.notes
            assert rep.tolerances["degree_used"] == 64
            assert len(rep.taylor_trace) == 65

    def test_doubling_stops_once_decided(self):
        # 0.8^n is inconclusive at degrees 32 and 64 and below 1e-6 from 64 on
        rep = criteria.radial_isometry_check(self.column(0.8), ladder=self.LADDER, grid=128, degree=32)
        assert rep.verdict == "pass"
        assert rep.tolerances["degree_used"] == 128
        n = np.array([k for k, _ in rep.taylor_trace])
        np.testing.assert_allclose([v for _, v in rep.taylor_trace], np.where(n % 2, 0.0, 0.8**n), rtol=1e-12)

    def test_a_constant_traces_dyadic_indices_until_it_passes(self):
        # 0.5^n: the tail n = 16, 32 still holds 1.5e-5; n = 32, 64 passes
        rep = criteria.radial_isometry_check(MatPoly.constant([[0.5], [np.sqrt(0.75)]]), grid=128, degree=512)
        assert rep.verdict == "pass"
        assert [n for n, _ in rep.taylor_trace] == [0, 1, 2, 4, 8, 16, 32, 64]
        np.testing.assert_allclose([v for _, v in rep.taylor_trace], 0.5 ** np.array([0, 1, 2, 4, 8, 16, 32, 64]),
                                   rtol=1e-12)
        assert rep.tolerances["degree"] == 512
        assert rep.tolerances["degree_used"] == 64
        assert rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS

    def test_the_squaring_cap_comes_from_the_classification_margin(self):
        # the least k with 2^(k-1) CLASSIFY_TOL >= ln(1 / TOL_TAYLOR)
        k = criteria.TAYLOR_SQUARINGS
        bound = np.log(1 / criteria.TOL_TAYLOR)
        assert 2 ** (k - 1) * linalg.CLASSIFY_TOL >= bound > 2 ** (k - 2) * linalg.CLASSIFY_TOL
        assert k == 35


class TestParsevalMeans:
    """The Stein-sum means of a constant symbol against the node solves
    of ``radial_sample`` on the same rho-circle.  Norms stay at or below
    0.999: the node path forms ||d||^2 - ||W d||^2 node by node, which
    for an isometric W at rho = 0.9999 cancels terms of size 1e8 to a
    rounding-level difference, so no relative bound holds for it there."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), rows=st.integers(0, 3),
           grid=st.integers(1, 300), rho=st.floats(0.05, 0.9999), norm=st.floats(0.1, 0.999))
    def test_stein_means_equal_the_node_solves(self, seed, dim, rows, grid, rho, norm):
        rng = np.random.default_rng(seed)
        w0 = random_contraction(rng, dim + rows, dim, norm=norm)
        a0, eye = w0[:dim], np.eye(dim)
        probes = criteria.probe_matrix(dim)
        weights = np.stack([eye - w0.conj().T @ w0, eye, eye - a0.conj().T @ a0])
        got = criteria.parseval_means(a0, probes, weights, [rho], grid)[0]
        s = criteria.radial_sample(MatPoly.constant(w0), MatPoly.constant(a0), probes, rho, grid, dim)
        want = np.mean([s.dn2 - s.wn2, s.dn2, s.dn2 - s.an2], axis=1)
        assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-15))


class TestConstantSymbol:
    def test_stable_isometric_column_passes(self):
        rep = criteria.constant_symbol_check(np.array([[0.0], [1.0]]))
        assert rep.verdict == "pass"

    def test_unitary_top_block_fails(self):
        rep = criteria.constant_symbol_check(np.array([[1.0], [0.0]]))
        assert rep.verdict == "fail"
        assert "spectral radius" in rep.notes

    def test_scalar_contraction_with_defect_row(self):
        c = 0.6
        w0 = np.array([[c], [np.sqrt(1 - c**2)]])
        rep = criteria.constant_symbol_check(w0)
        assert rep.verdict == "pass"
        assert rep.extras["spectral_radius"] == pytest.approx(c)

    def test_non_isometric_fails(self):
        rep = criteria.constant_symbol_check(np.array([[0.5], [0.5]]))
        assert rep.verdict == "fail"
        assert "not an isometry" in rep.notes


class TestBoundaryMeasure:
    def test_constant_isometric_column_passes_both(self):
        w = MatPoly.constant([[0.0], [1.0]])
        rep = criteria.boundary_measure_check(w, grid=256)
        assert rep.verdict == "pass"
        assert rep.extras["mass_verdict"] == "pass"
        assert rep.extras["remainder_verdict"] == "pass"

    def test_scalar_half_column_keeps_mass_but_fails_remainder(self):
        w = MatPoly.constant([[0.5], [0.5]])
        rep = criteria.boundary_measure_check(w, grid=1024)
        assert rep.extras["mass_verdict"] == "pass"
        # oracle: the remainder tends to (1/2) * 1/(1 - 1/4) = 2/3
        assert rep.rho_ladder[-1][1] == pytest.approx(2.0 / 3.0, rel=1e-2)
        assert rep.verdict == "fail"

    def test_mass_deviation_detects_singular_part(self):
        # symbol built from a measure with an atom: recovered mass falls short
        mu = h2.CircleMeasure(
            density_pieces=[(0.0, np.pi, 0.75), (np.pi, 2 * np.pi, 0.25)],
            point_masses=[(0.0, 0.5)],
        )
        u = h2.herglotz_from_measure(mu, 512)
        a = h2.herglotz_to_symbol(u, 512)
        w = h2.vstack_polys(a, MatPoly.zero(0, 1, a.degree))
        rep = criteria.boundary_measure_check(
            w,
            grid=2048,
            ladder=(0.9, 0.99, 0.999),
            exclusions=[(0.0, "atom"), (np.pi, "jump")],
        )
        assert rep.extras["mass_verdict"] == "fail"
        assert rep.verdict == "fail"
        # the recovered mass should sit near the absolutely continuous part, 1/2
        assert rep.extras["mass_ladder"][-1][1] == pytest.approx(0.5, abs=5e-2)


class TestLiftingIsometry:
    def test_shift_with_isometric_parameter_passes(self, rng):
        p = shift_problem(rng, mult=1, degree=10)
        ld = clt.build_omega(p)
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        rep = criteria.lifting_isometry_check(clt.lift(p, MatPoly.constant(r0), 512, ld=ld), grid=256)
        assert rep.verdict == "pass"
        assert rep.extras["defect_chain_residual"] <= 1e-10

    def test_zero_parameter_fails_on_nontrivial_kernel(self, rng):
        p = shift_problem(rng, mult=1, degree=8)
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim >= 1
        rep = criteria.lifting_isometry_check(clt.lift(p, None, 128, ld=ld), grid=256)
        assert rep.verdict == "fail"
        assert rep.rho_ladder[-1][1] > 1e-3

    def test_trivial_kernel_decided_by_taylor(self, rng):
        u = random_unitary(rng, 2)
        p = clt.build_problem(u, 0.5 * random_unitary(rng, 2), np.zeros((2, 2)))
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim == 0
        rep = criteria.lifting_isometry_check(clt.lift(p, None, 64, ld=ld), grid=128)
        assert all(v == 0 for _, v in rep.rho_ladder)
        assert "vacuous" in rep.notes
        # A = ΠW = coupling bottom block is unitary here: flat trace, fail
        assert rep.verdict == "fail"


# the trace oracle reads per-term coefficients this far; only a flat
# trace, squared to the cap, goes beyond
PER_TERM_ORACLE = 4096


def trace_oracle(a: MatPoly, probes: np.ndarray, indices: list) -> tuple:
    """The largest probe norm of the n-th coefficient of (I - z A)^(-1)
    probes at each index, and the bound a trace must meet there: from the
    coefficients of neumann_inverse within 1e-12 through PER_TERM_ORACLE;
    beyond it, for a constant A, from V diag(lambda^n) V^(-1) within
    n * 1e-15, since each of the log2 n squarings doubles the relative
    rounding error of A^n, and so does each power of lambda."""
    near = [n for n in indices if n <= PER_TERM_ORACLE]
    j = h2.neumann_inverse(a, near[-1]).coeffs[near]
    want = list(np.max(np.linalg.norm(np.einsum("nij,jm->nim", j, probes), axis=1), axis=1, initial=0.0))
    bound = [1e-12] * len(near)
    far = indices[len(near):]
    if far:
        lam, v = np.linalg.eig(a.coeffs[0])
        vp = np.linalg.solve(v, probes)
        want += [np.max(np.linalg.norm(v @ (lam[:, None] ** n * vp), axis=0)) for n in far]
        bound += [n * 1e-15 for n in far]
    return np.array(want), np.array(bound)


def einsum_oracle(lifting, ladder, grid):
    """The parameter defect ladder and the defect chain residual of
    lifting_isometry_check, with every product written as an einsum and
    every resolvent solved node by node.  For a polynomial W the chain
    residual is taken on every node; for a constant W it is the larger
    spectral norm of the two matrix identities W*W = Omega*Omega +
    K R*R K* and I = Omega*Omega + K K*, of which the node forms are the
    quadratic forms."""
    ld, r, w = lifting.data, lifting.free_parameter, lifting.w
    r_prime = ld.basis_tprime.dim
    probes = criteria.probe_matrix(ld.defect_dim)
    kker, omega = ld.ker_omega.columns, ld.omega_bar

    def norms_sq(v):
        return np.sum(np.abs(v) ** 2, axis=1)

    def chain_residual(d, w_vals, r_vals):
        u = np.einsum("ji,njm->nim", kker.conj(), d)
        ru = np.einsum("nij,njm->nim", r_vals, u)
        term = norms_sq(u) - norms_sq(ru)
        e1 = norms_sq(d) - norms_sq(np.einsum("nij,njm->nim", w_vals, d))
        e2 = norms_sq(d) - norms_sq(np.einsum("ij,njm->nim", omega, d)) - norms_sq(ru)
        return term, max(float(np.max(np.abs(e1 - e2), initial=0.0)), float(np.max(np.abs(e2 - term), initial=0.0)))

    ladder_values, residual = [], 0.0
    for rho in ladder:
        z = h2.circle_nodes(rho, grid)
        w_vals = np.stack([w(zk) for zk in z])
        r_vals = np.stack([r(zk) for zk in z])
        eye = np.eye(w.in_dim)
        d = np.stack([np.linalg.solve(eye - zk * wk[r_prime:], probes) for zk, wk in zip(z, w_vals)])
        term, node_residual = chain_residual(d, w_vals, r_vals)
        ladder_values.append(float(np.max(np.mean(term, axis=0), initial=0.0)))
        residual = max(residual, node_residual)
    if not w.degree:
        w0, rk = w.coeffs[0], np.einsum("ij,kj->ik", r.coeffs[0], kker.conj())
        gram = np.einsum("ji,jk->ik", omega.conj(), omega)
        identities = (np.einsum("ji,jk->ik", w0.conj(), w0) - gram - np.einsum("ji,jk->ik", rk.conj(), rk),
                      np.eye(w.in_dim) - gram - np.einsum("ij,kj->ik", kker, kker.conj()))
        residual = max(float(np.linalg.norm(h, 2)) for h in identities)
    return ladder_values, residual


def assert_matches_the_oracle(lifting, ladder, grid):
    rep = criteria.lifting_isometry_check(lifting, ladder=ladder, grid=grid)
    want_ladder, want_residual = einsum_oracle(lifting, ladder, grid)
    assert np.max(np.abs(np.array([v for _, v in rep.rho_ladder]) - want_ladder)) <= 1e-12
    assert abs(rep.extras["defect_chain_residual"] - want_residual) <= 1e-12
    indices = [n for n, _ in rep.taylor_trace]
    a = MatPoly(lifting.w.coeffs[:, lifting.data.basis_tprime.dim :])
    want_taylor, bound = trace_oracle(a, criteria.probe_matrix(lifting.data.defect_dim), indices)
    assert np.all(np.abs(np.array([v for _, v in rep.taylor_trace]) - want_taylor) <= bound)
    assert rep.tolerances["degree_used"] == indices[-1]
    return rep


def trivial_kernel_problem(rng):
    """T unitary and X = 0: the coupling kernel is trivial."""
    u = random_unitary(rng, 2)
    return clt.build_problem(u, 0.5 * random_unitary(rng, 2), np.zeros((2, 2)))


class TestLiftingIsometryOracle:
    @pytest.mark.parametrize("mult, r_degree", [(1, 0), (2, 0), (2, 2)])
    def test_matches_the_einsum_oracle(self, rng, mult, r_degree):
        p = shift_problem(rng, mult=mult, degree=6)
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim >= 1
        shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
        if r_degree:
            r = contractive_matpoly(rng, *shape, r_degree, norm=0.9)
        else:
            r = MatPoly.constant(random_isometry(rng, *shape))
        rep = assert_matches_the_oracle(clt.lift(p, r, 64, ld=ld), (0.9, 0.99), 128)
        assert rep.tolerances["degree"] == 64

    # name: (problem, free parameter, lifting degree, ladder, grid); the
    # lifting degree bounds Y, not the trace of a constant W, so the names
    # of the degree and block cases only say where the inputs come from
    CONSTANT_CASES = {
        # A is unitary: the flat trace squares to the cap
        "trivial_kernel": ("trivial", "zero", 64, (0.9, 0.99), 128),
        "degree_below_grid": ("shift", "zero", 16, (0.9, 0.99), 256),
        "degree_above_grid": ("shift", "isometric", 256, (0.9, 0.99), 32),
        "rung_at_0.9999": ("shift", "isometric", 64, (0.9, 0.9999), 128),
        "zero_at_0.9999": ("shift", "zero", 64, (0.99, 0.9999), 64),
        "doubling_off_block": ("shift", "zero", 20, (0.9, 0.99), 256),
        # 100 = 64 + 32 + 4: the Stein sums combine three binary digits
        "grid_off_block": ("shift", "isometric", 300, (0.9, 0.99), 100),
    }

    @pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
    def test_constant_symbol_matches_the_einsum_oracle(self, rng, name):
        kind, parameter, degree, ladder, grid = self.CONSTANT_CASES[name]
        p = trivial_kernel_problem(rng) if kind == "trivial" else shift_problem(rng, mult=2, degree=6)
        ld = clt.build_omega(p)
        assert (ld.ker_omega.dim == 0) == (kind == "trivial")
        r = None
        if parameter == "isometric":
            r = MatPoly.constant(random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim))
        lifting = clt.lift(p, r, degree, ld=ld)
        assert lifting.w.degree == 0
        rep = assert_matches_the_oracle(lifting, ladder, grid)
        indices = [n for n, _ in rep.taylor_trace]
        assert indices == [0] + [1 << k for k in range(len(indices) - 1)]
        assert rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS
        decided = criteria.taylor_verdict(rep.taylor_trace, criteria.TOL_TAYLOR) == "pass"
        assert decided != (indices[-1] == 2**criteria.TAYLOR_SQUARINGS)
        assert decided == (kind != "trivial")

    # name: (mult, parameter degree, its sup norm, lifting degree, degree
    # used): the per-term stream of a polynomial W, ladder (0.9, 0.99), grid 128
    POLYNOMIAL_CASES = {
        # the trace of 41 terms fails at the requested degree, without doubling
        "stops_on_a_fail": (2, 2, 0.9, 40, 40),
        # inconclusive at 100 and 200, a pass at 400
        "doubles_off_block": (2, 1, 0.99, 100, 400),
        # inconclusive up to the cap, 8 * 100, where it passes
        "doubles_to_the_cap": (1, 2, 0.9, 100, 800),
    }

    @pytest.mark.parametrize("name", sorted(POLYNOMIAL_CASES))
    def test_polynomial_symbol_streams_every_term(self, rng, name):
        mult, r_degree, norm, degree, degree_used = self.POLYNOMIAL_CASES[name]
        p = shift_problem(rng, mult=mult, degree=6)
        ld = clt.build_omega(p)
        r = contractive_matpoly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, r_degree, norm=norm)
        rep = assert_matches_the_oracle(clt.lift(p, r, degree, ld=ld), (0.9, 0.99), 128)
        assert [n for n, _ in rep.taylor_trace] == list(range(degree_used + 1))
        assert rep.tolerances["degree_used"] == degree_used
        assert rep.tolerances["degree_cap"] == 8 * degree


class TestLiftingIsometryPaths:
    """A constant W is checked from Stein sums with no node solved or
    evaluated and no series streamed; a polynomial W still samples every
    rung and streams its trace."""

    NAMES = ("resolvent_terms", "resolvent_apply_grid", "eval_circle_grid")

    def count_calls(self, monkeypatch) -> list:
        calls = []
        for name in self.NAMES:
            original = getattr(h2, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            # every module that binds the function, as the benchmark's tracer does
            for module in (h2, clt, criteria):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("parameter, sampled", [("zero", False), ("isometric", False), ("degree2", True)])
    def test_only_a_polynomial_symbol_samples_the_circle(self, rng, monkeypatch, parameter, sampled):
        p = shift_problem(rng, mult=1, degree=6)
        ld = clt.build_omega(p)
        shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
        r = {"zero": None, "isometric": MatPoly.constant(random_isometry(rng, *shape)),
             "degree2": contractive_matpoly(rng, *shape, 2, norm=0.9)}[parameter]
        lifting = clt.lift(p, r, 64, ld=ld)
        calls = self.count_calls(monkeypatch)
        criteria.lifting_isometry_check(lifting, ladder=(0.9, 0.99), grid=128)
        assert {name: name in calls for name in self.NAMES} == dict.fromkeys(self.NAMES, sampled)

    @pytest.mark.parametrize("w0", [[[0.5], [0.5]], [[1.0], [0.0]], [[0.5, 0.3], [0.0, -0.4], [0.2, 0.1]]])
    def test_a_constant_radial_check_solves_and_streams_nothing(self, monkeypatch, w0):
        calls = self.count_calls(monkeypatch)
        criteria.radial_isometry_check(MatPoly.constant(w0), grid=256, degree=64)
        assert calls == []


def planted_lifting(omega: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """Coupling data whose Omega is the given [B; A], B square, with
    trivial kernels, and a lifting of the empty free parameter whose
    assembled symbol is w (Omega by default): the parameter ladder is
    vacuous and the Taylor trace of A decides."""
    dim = omega.shape[1]
    full, empty = linalg.SubspaceBasis.full(dim), linalg.SubspaceBasis.empty(dim)
    ld = clt.LiftingData(np.eye(dim), np.eye(dim), full, full, omega, empty, linalg.SubspaceBasis.empty(2 * dim))
    w = MatPoly.constant(omega if w is None else w)
    return ld, clt.Lifting(None, ld, MatPoly.zero(0, 0), w, None, SimpleNamespace(degree=64))


@pytest.mark.parametrize("omega_scale, w_scale", [(0.5, 0.5), (1.0, 0.5)])
def test_constant_chain_residual_reads_both_identities(omega_scale, w_scale):
    # W*W = Omega*Omega holds for equal scales, I = Omega*Omega for a unit
    # Omega; the other identity is off by 1 - 0.5^2 in each case
    u = random_isometry(np.random.default_rng(5), 4, 2)
    _, lifting = planted_lifting(omega_scale * u, w_scale * u)
    rep = criteria.lifting_isometry_check(lifting, ladder=(0.9,), grid=16)
    assert rep.extras["defect_chain_residual"] == pytest.approx(0.75, abs=1e-12)


class TestSpectralBoundary:
    """Constant isometric W = [A; B] with A on the unit circle, or just
    inside it: the dyadic Taylor trace, the constant-symbol check and
    obstruction_search judge the same boundary."""

    @staticmethod
    def planted(lam: complex) -> np.ndarray:
        """[A; B] with A = diag(lam, 0.5), B = diag(sqrt(1 - |lam|^2),
        sqrt(0.75)): an isometry whose A has the eigenvalue lam."""
        return np.vstack([np.diag([lam, 0.5]), np.diag([np.sqrt(1 - abs(lam) ** 2), np.sqrt(0.75)])])

    def verdicts(self, lam: complex) -> dict:
        w0 = self.planted(lam)
        dim = w0.shape[1]
        ld, lifting = planted_lifting(np.vstack([w0[dim:], w0[:dim]]))
        return {
            "radial": criteria.radial_isometry_check(MatPoly.constant(w0), degree=64).verdict,
            "lifting": criteria.lifting_isometry_check(lifting).verdict,
            "constant_symbol": criteria.constant_symbol_check(w0).verdict,
            "obstruction": criteria.obstruction_search(ld, np.zeros((0, 0))).verdict,
        }

    def test_a_unimodular_eigenvalue_fails_every_route(self):
        assert self.verdicts(np.exp(0.7j)) == dict.fromkeys(("radial", "lifting", "constant_symbol", "obstruction"),
                                                           "fail")

    def test_spectral_radius_just_inside_passes_every_route(self):
        assert self.verdicts((1 - 1e-8) * np.exp(0.7j)) == dict.fromkeys(
            ("radial", "lifting", "constant_symbol", "obstruction"), "pass")

    def test_a_cap_ten_squarings_short_fails_just_inside(self, monkeypatch):
        # (1 - 1e-8)^(2^24) = 0.85: the trace has not decayed by the short cap
        monkeypatch.setattr(criteria, "TAYLOR_SQUARINGS", criteria.TAYLOR_SQUARINGS - 10)
        verdicts = self.verdicts((1 - 1e-8) * np.exp(0.7j))
        assert verdicts["radial"] == verdicts["lifting"] == "fail"
        assert verdicts["obstruction"] == "pass"


@pytest.mark.parametrize("seed", [8107, 8123])
def test_prop4_6_lifting_passes_where_a_decays_slowly(tmp_path, seed):
    # both seeds have a top block of spectral radius above 0.998: its
    # powers are still above 0.1 at degree 512 and decay far later
    out = tmp_path / "prop4_6.json"
    cli.main(["examples", "prop4_6", "--seed", str(seed), "--out", str(out)])
    reports = {r["criterion_id"]: r for r in json.loads(out.read_bytes())["reports"]}
    for mult in (1, 2):
        assert reports[f"lifting_isometry_mult{mult}"]["verdict"] == "pass"
        assert reports[f"obstruction_mult{mult}"]["verdict"] == "pass"
    assert max(reports[f"obstruction_mult{m}"]["extras"]["spectral_radius"] for m in (1, 2)) > 0.998


class TestObstructionSearch:
    def test_identity_coupling_finds_unit_eigenvalue(self):
        p, ld = identity_obstruction_data()
        r0 = np.zeros((ld.ker_omega_star.dim, ld.ker_omega.dim))
        rep = criteria.obstruction_search(ld, r0)
        assert rep.verdict == "fail"
        lam = complex(*rep.extras["lambda"])
        assert abs(lam - 1.0) <= 1e-9
        assert rep.extras["recursion_residual"] <= 1e-10
        assert rep.extras["norms_nondecreasing"]

    def test_shift_scenario_is_clean(self, rng):
        p = shift_problem(rng, mult=1, degree=10)
        ld = clt.build_omega(p)
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        rep = criteria.obstruction_search(ld, r0)
        assert rep.verdict == "pass"
        assert rep.extras["spectral_radius"] < 1.0

    def test_rejects_non_isometric_parameter(self, rng):
        p = shift_problem(rng, mult=1, degree=6)
        ld = clt.build_omega(p)
        bad = 0.5 * random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        with pytest.raises(criteria.NotIsometricR0):
            criteria.obstruction_search(ld, bad)
