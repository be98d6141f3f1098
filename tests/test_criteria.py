import numpy as np
import pytest

from liftlab import clt, criteria, h2
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
        assert criteria.taylor_verdict(decayed, 1e-6) == "pass"
        assert criteria.taylor_verdict([1.0] * 8, 1e-6) == "fail"
        assert criteria.taylor_verdict([1.0] * 4 + [0.05] * 4, 1e-6) == "inconclusive"

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
        j = h2.neumann_inverse(a, n)
        want = np.max(np.linalg.norm(j.coeffs @ probes, axis=1), axis=1)
        assert len(trace) >= n + 1
        assert np.max(np.abs(trace[: n + 1] - want)) <= 1e-12

    @staticmethod
    def column(c: float) -> MatPoly:
        """The isometric column [c; sqrt(1 - c^2)]: trace c^n, ladder 0."""
        return MatPoly.constant([[c], [np.sqrt(1 - c**2)]])

    def test_slow_decay_stays_inconclusive_at_the_cap(self):
        # 0.9^n: the tail max is 0.034 of the head at degree 64 and still
        # 1.9e-12 > tol at the cap, 8 * 64
        rep = criteria.radial_isometry_check(self.column(0.9), grid=128, degree=64, tol_taylor=1e-13)
        assert "taylor decay: inconclusive" in rep.notes
        assert rep.verdict == "inconclusive"
        assert rep.tolerances["degree"] == 64
        assert rep.tolerances["degree_cap"] == rep.tolerances["degree_used"] == 8 * 64
        assert len(rep.taylor_trace) == 8 * 64 + 1

    def test_decaying_trace_stops_at_the_requested_degree(self):
        for c in (0.5, 1.0):
            rep = criteria.radial_isometry_check(self.column(c), grid=128, degree=64)
            assert rep.verdict == ("pass" if c < 1 else "fail")
            assert rep.tolerances["degree_used"] == 64
            assert len(rep.taylor_trace) == 65

    def test_doubling_stops_once_decided(self):
        # 0.8^n is inconclusive at degrees 32 and 64 and below 1e-6 from 64 on
        rep = criteria.radial_isometry_check(self.column(0.8), grid=128, degree=32)
        assert rep.verdict == "pass"
        assert rep.tolerances["degree_used"] == 128
        trace = np.array([v for _, v in rep.taylor_trace])
        np.testing.assert_allclose(trace, 0.8 ** np.arange(129), rtol=1e-12)


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


def einsum_oracle(lifting, ladder, grid, degree):
    """The parameter defect ladder, the defect chain residual and the
    Taylor trace through `degree` of lifting_isometry_check, with every
    product written as an einsum and every resolvent solved node by node.
    For a constant W the chain residual is taken, as the check takes it,
    on the orbit X_k = A^k probes, k < grid, here read off the
    coefficients of neumann_inverse; for a polynomial W on every node."""
    ld, r, w = lifting.data, lifting.free_parameter, lifting.w
    r_prime = ld.basis_tprime.dim
    probes = criteria.probe_matrix(ld.defect_dim)
    kker = ld.ker_omega.columns

    def norms_sq(v):
        return np.sum(np.abs(v) ** 2, axis=1)

    def chain_residual(d, w_vals, r_vals):
        u = np.einsum("ji,njm->nim", kker.conj(), d)
        ru = np.einsum("nij,njm->nim", r_vals, u)
        term = norms_sq(u) - norms_sq(ru)
        e1 = norms_sq(d) - norms_sq(np.einsum("nij,njm->nim", w_vals, d))
        e2 = norms_sq(d) - norms_sq(np.einsum("ij,njm->nim", ld.omega_bar, d)) - norms_sq(ru)
        return term, max(float(np.max(np.abs(e1 - e2), initial=0.0)), float(np.max(np.abs(e2 - term), initial=0.0)))

    a = MatPoly(w.coeffs[:, r_prime:])
    ladder_values, residual = [], 0.0
    for rho in ladder:
        z = h2.circle_nodes(rho, grid)
        w_vals = np.stack([w(zk) for zk in z])
        r_vals = np.stack([r(zk) for zk in z])
        eye = np.eye(w.in_dim)
        d = np.stack([np.linalg.solve(eye - zk * wk[r_prime:], probes) for zk, wk in zip(z, w_vals)])
        term, node_residual = chain_residual(d, w_vals, r_vals)
        ladder_values.append(float(np.max(np.mean(term, axis=0), initial=0.0)))
        if w.degree:
            residual = max(residual, node_residual)
    if not w.degree:
        orbit = np.einsum("nij,jm->nim", h2.neumann_inverse(a, grid - 1).coeffs, probes)
        _, residual = chain_residual(orbit, np.broadcast_to(w.coeffs[0], (grid,) + w.coeffs.shape[1:]),
                                     np.broadcast_to(r.coeffs[0], (grid,) + r.coeffs.shape[1:]))
    j = h2.neumann_inverse(a, degree)
    taylor = np.max(np.linalg.norm(np.einsum("nij,jm->nim", j.coeffs, probes), axis=1), axis=1, initial=0.0)
    return ladder_values, residual, taylor


def assert_matches_the_oracle(lifting, ladder, grid):
    rep = criteria.lifting_isometry_check(lifting, ladder=ladder, grid=grid)
    want_ladder, want_residual, want_taylor = einsum_oracle(lifting, ladder, grid, rep.tolerances["degree_used"])
    assert np.max(np.abs(np.array([v for _, v in rep.rho_ladder]) - want_ladder)) <= 1e-12
    assert abs(rep.extras["defect_chain_residual"] - want_residual) <= 1e-12
    assert np.max(np.abs(np.array([v for _, v in rep.taylor_trace]) - want_taylor)) <= 1e-12
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

    # name: (problem, free parameter, lifting degree, ladder, grid, degree used)
    CONSTANT_CASES = {
        "trivial_kernel": ("trivial", "zero", 64, (0.9, 0.99), 128, 64),
        # the Taylor trace stops inside the orbit the ladder reads
        "degree_below_grid": ("shift", "zero", 16, (0.9, 0.99), 256, 64),
        # the Taylor trace streams on past the orbit the ladder reads
        "degree_above_grid": ("shift", "isometric", 256, (0.9, 0.99), 32, 2048),
        "rung_at_0.9999": ("shift", "isometric", 64, (0.9, 0.9999), 128, 64),
        "zero_at_0.9999": ("shift", "zero", 64, (0.99, 0.9999), 64, 64),
        # targets 20, 40 and 80 all end inside a block of the stream
        "doubling_off_block": ("shift", "zero", 20, (0.9, 0.99), 256, 80),
        # the ladder stops 4 terms into a block whose rest the trace reads
        "grid_off_block": ("shift", "isometric", 300, (0.9, 0.99), 100, 2400),
    }

    @pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
    def test_constant_symbol_matches_the_einsum_oracle(self, rng, name):
        kind, parameter, degree, ladder, grid, degree_used = self.CONSTANT_CASES[name]
        p = trivial_kernel_problem(rng) if kind == "trivial" else shift_problem(rng, mult=2, degree=6)
        ld = clt.build_omega(p)
        assert (ld.ker_omega.dim == 0) == (kind == "trivial")
        r = None
        if parameter == "isometric":
            r = MatPoly.constant(random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim))
        lifting = clt.lift(p, r, degree, ld=ld)
        assert lifting.w.degree == 0
        rep = assert_matches_the_oracle(lifting, ladder, grid)
        assert rep.tolerances["degree_used"] == degree_used
        assert (degree_used < grid) == (degree < grid)


class TestLiftingIsometryPaths:
    """A constant W is checked from the Taylor orbit with no node solved
    or evaluated; a polynomial W still samples every rung."""

    @pytest.mark.parametrize("parameter, sampled", [("zero", False), ("isometric", False), ("degree2", True)])
    def test_only_a_polynomial_symbol_samples_the_circle(self, rng, monkeypatch, parameter, sampled):
        p = shift_problem(rng, mult=1, degree=6)
        ld = clt.build_omega(p)
        shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
        r = {"zero": None, "isometric": MatPoly.constant(random_isometry(rng, *shape)),
             "degree2": contractive_matpoly(rng, *shape, 2, norm=0.9)}[parameter]
        lifting = clt.lift(p, r, 64, ld=ld)
        calls = []
        for name in ("resolvent_apply_grid", "eval_circle_grid"):
            original = getattr(h2, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            # every module that binds the function, as the benchmark's tracer does
            for module in (h2, clt, criteria):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        criteria.lifting_isometry_check(lifting, ladder=(0.9, 0.99), grid=128)
        assert ("resolvent_apply_grid" in calls) == sampled
        assert ("eval_circle_grid" in calls) == sampled


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
