import numpy as np
import pytest

from liftlab import clt, criteria, h2
from liftlab.h2 import MatPoly

from conftest import random_contraction, random_isometry, random_unitary


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
        rep = criteria.boundary_measure_check(w, grid=256, degree=64)
        assert rep.verdict == "pass"
        assert rep.extras["mass_verdict"] == "pass"
        assert rep.extras["remainder_verdict"] == "pass"

    def test_scalar_half_column_keeps_mass_but_fails_remainder(self):
        w = MatPoly.constant([[0.5], [0.5]])
        rep = criteria.boundary_measure_check(w, grid=1024, degree=64)
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
        rep = criteria.lifting_isometry_check(
            ld, MatPoly.constant(r0), degree=512, grid=256
        )
        assert rep.verdict == "pass"
        assert rep.extras["defect_chain_residual"] <= 1e-10

    def test_zero_parameter_fails_on_nontrivial_kernel(self, rng):
        p = shift_problem(rng, mult=1, degree=8)
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim >= 1
        rep = criteria.lifting_isometry_check(ld, None, degree=128, grid=256)
        assert rep.verdict == "fail"
        assert rep.rho_ladder[-1][1] > 1e-3

    def test_trivial_kernel_decided_by_taylor(self, rng):
        u = random_unitary(rng, 2)
        p = clt.build_problem(u, 0.5 * random_unitary(rng, 2), np.zeros((2, 2)))
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim == 0
        rep = criteria.lifting_isometry_check(ld, None, degree=64, grid=128)
        assert all(v == 0 for _, v in rep.rho_ladder)
        assert "vacuous" in rep.notes
        # A = ΠW = coupling bottom block is unitary here: flat trace, fail
        assert rep.verdict == "fail"


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
