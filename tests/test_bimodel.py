import dataclasses

import numpy as np
import pytest

from liftlab import bimodel, h2
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly


def shift_symbol(dim):
    return MatPoly(np.stack([np.zeros((dim, dim)), np.eye(dim)]))


def zero_vector(model):
    e, n, k = model.fiber_dim, model.degree, model.grid
    return bimodel.ModelVector(np.zeros((n + 1, e), dtype=complex), np.zeros((n + 1, k, e), dtype=complex))


class TestBuildModel:
    def test_inner_symbol_kills_second_layer(self):
        model = bimodel.build_model(shift_symbol(2), grid=64, degree=8)
        assert np.max(np.abs(model.delta)) <= 1e-12
        assert np.max(np.abs(model.range_projectors)) <= 1e-12

    def test_zero_symbol_gives_full_defect(self):
        model = bimodel.build_model(MatPoly.zero(2, 2), grid=64, degree=8)
        for k in range(model.grid):
            np.testing.assert_allclose(model.delta[k], np.eye(2), atol=1e-13)

    def test_scalar_half_shift(self):
        theta = MatPoly(np.stack([np.zeros((1, 1)), 0.5 * np.eye(1)]))
        model = bimodel.build_model(theta, grid=64, degree=8)
        np.testing.assert_allclose(model.delta[:, 0, 0], np.sqrt(3) / 2, atol=1e-12)

    def test_rejects_expansive_symbol(self):
        theta = MatPoly.constant([[1.5]])
        with pytest.raises(bimodel.NotContractiveOnGrid):
            bimodel.build_model(theta, grid=64, degree=8)

    def test_rejects_coarse_grid(self):
        with pytest.raises(bimodel.BimodelError):
            bimodel.build_model(shift_symbol(1), grid=16, degree=8)


class TestActions:
    def test_first_action_shifts(self):
        model = bimodel.build_model(shift_symbol(1), grid=64, degree=4)
        v = zero_vector(model)
        v.f[0, 0] = 1.0
        out = bimodel.apply_V(model, v)
        assert out.f[1, 0] == 1.0 and abs(out.f[0, 0]) == 0

    def test_first_action_overflow(self):
        model = bimodel.build_model(shift_symbol(1), grid=64, degree=4)
        v = zero_vector(model)
        v.f[4, 0] = 1.0
        with pytest.raises(bimodel.WindowOverflow):
            bimodel.apply_V(model, v)

    def test_double_application_is_squared_variable(self, rng):
        model = bimodel.build_model(shift_symbol(1), grid=64, degree=6)
        v = bimodel.random_vector(model, rng, f_degree=3, g_degree=3)
        out = bimodel.apply_V(model, bimodel.apply_V(model, v))
        np.testing.assert_allclose(out.f[2:6], v.f[:4], atol=1e-13)
        np.testing.assert_allclose(
            out.g, v.g * (model.nodes**2)[None, :, None], atol=1e-12
        )

    def test_zero_symbol_second_action(self, rng):
        model = bimodel.build_model(MatPoly.zero(1, 1), grid=64, degree=6)
        v = bimodel.random_vector(model, rng, f_degree=3, g_degree=3)
        out = bimodel.apply_W(model, v)
        assert np.max(np.abs(out.f)) <= 1e-13
        fb = bimodel.boundary_values(model, v.f)
        np.testing.assert_allclose(out.g[0], fb, atol=1e-12)
        np.testing.assert_allclose(out.g[1:], v.g[:-1], atol=1e-13)

    def test_inner_symbol_acts_on_first_layer_only(self, rng):
        model = bimodel.build_model(shift_symbol(2), grid=64, degree=6)
        v = bimodel.random_vector(model, rng, f_degree=3, g_degree=3)
        out = bimodel.apply_W(model, v)
        np.testing.assert_allclose(out.f[1:5], v.f[:4], atol=1e-13)
        np.testing.assert_allclose(out.g[0], 0, atol=1e-12)

    def test_isometry_on_random_vectors(self, rng):
        theta = contractive_matpoly(rng, 2, 2, 2, norm=0.9)
        model = bimodel.build_model(theta, grid=128, degree=12)
        for _ in range(50):
            v = bimodel.random_vector(model, rng)
            n0 = bimodel.vector_norm_sq(model, v)
            assert bimodel.vector_norm_sq(model, bimodel.apply_V(model, v)) == pytest.approx(n0, rel=1e-12)
            assert bimodel.vector_norm_sq(model, bimodel.apply_W(model, v)) == pytest.approx(n0, rel=1e-12)

    def test_pointwise_pythagoras(self, rng):
        theta = contractive_matpoly(rng, 3, 3, 2, norm=0.95)
        model = bimodel.build_model(theta, grid=128, degree=10)
        x = rng.standard_normal((model.grid, 3)) + 1j * rng.standard_normal((model.grid, 3))
        tv = np.einsum("nij,nj->ni", model.theta_values, x)
        dv = np.einsum("nij,nj->ni", model.delta, x)
        lhs = np.sum(np.abs(tv) ** 2, axis=1) + np.sum(np.abs(dv) ** 2, axis=1)
        rhs = np.sum(np.abs(x) ** 2, axis=1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(rhs)


def randomized_check(model, trials=50, seed=7):
    """Oracle for verify_bi_isometry: the worst relative V-isometry,
    W-isometry and commutation residuals over random window vectors."""
    rng = np.random.default_rng(seed)
    worst_v = worst_w = worst_comm = 0.0
    for _ in range(trials):
        vec = bimodel.random_vector(model, rng)
        nrm = np.sqrt(bimodel.vector_norm_sq(model, vec))
        if nrm == 0:
            continue
        v_iso = abs(np.sqrt(bimodel.vector_norm_sq(model, bimodel.apply_V(model, vec))) - nrm) / nrm
        w_iso = abs(np.sqrt(bimodel.vector_norm_sq(model, bimodel.apply_W(model, vec))) - nrm) / nrm
        vw = bimodel.apply_V(model, bimodel.apply_W(model, vec))
        wv = bimodel.apply_W(model, bimodel.apply_V(model, vec))
        diff = bimodel.ModelVector(vw.f - wv.f, vw.g - wv.g)
        comm = np.sqrt(bimodel.vector_norm_sq(model, diff)) / nrm
        worst_v, worst_w = max(worst_v, v_iso), max(worst_w, w_iso)
        worst_comm = max(worst_comm, comm)
    return worst_v, worst_w, worst_comm


def oracle_verdict(model) -> str:
    return "pass" if max(randomized_check(model)) <= 1e-10 else "fail"


def verify_cases():
    """Models by name: the standard scalar symbols, a random 2 x 2
    contractive symbol and a constant 2 x 2 one."""
    rng = np.random.default_rng(20260810)
    standard = {
        "zero": MatPoly.zero(1, 1),
        "inner-shift": shift_symbol(1),
        "half-shift": MatPoly(np.stack([np.zeros((1, 1)), 0.5 * np.eye(1)])),
    }
    cases = {name: bimodel.build_model(theta, grid=128, degree=16) for name, theta in standard.items()}
    theta = contractive_matpoly(rng, 2, 2, 2, norm=0.9)
    cases["random-2x2"] = bimodel.build_model(theta, grid=256, degree=24)
    # a constant symbol evaluates on the grid as a read-only broadcast
    cases["constant-2x2"] = bimodel.build_model(MatPoly.constant(np.diag([0.5, 1.0])), grid=32, degree=4)
    return cases


CASES = verify_cases()


class TestVerify:
    @pytest.mark.parametrize("name", ["zero", "inner-shift", "half-shift"])
    def test_standard_symbols_pass(self, name):
        rep = bimodel.verify_bi_isometry(CASES[name])
        assert rep.verdict == "pass"
        assert set(rep.tolerances) == {"tol"}

    def test_random_contractive_symbol_passes(self):
        rep = bimodel.verify_bi_isometry(CASES["random-2x2"])
        assert rep.verdict == "pass"
        assert rep.extras["pythagoras_residual"] <= 1e-10
        assert rep.extras["defect_range_residual"] <= 1e-10


class TestRandomizedOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_oracle_agrees_with_the_identities(self, name):
        model = CASES[name]
        assert oracle_verdict(model) == bimodel.verify_bi_isometry(model).verdict == "pass"

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_w_isometry_defect_is_bounded_by_the_pythagoras_residual(self, rng, scale):
        model = CASES["random-2x2"]
        model = dataclasses.replace(model, delta=scale * model.delta)
        r1 = bimodel.verify_bi_isometry(model).extras["pythagoras_residual"]
        for _ in range(20):
            v = bimodel.random_vector(model, rng)
            gap = bimodel.vector_norm_sq(model, bimodel.apply_W(model, v)) - bimodel.vector_norm_sq(model, v)
            assert abs(gap) <= r1 * np.sum(np.abs(v.f) ** 2) + 1e-12

    @pytest.mark.parametrize("name", ["zero", "random-2x2"])
    def test_halved_defect_fails_both(self, name):
        model = CASES[name]
        model = dataclasses.replace(model, delta=0.5 * model.delta)
        rep = bimodel.verify_bi_isometry(model)
        assert rep.verdict == "fail"
        assert rep.extras["pythagoras_residual"] > 1e-10
        assert oracle_verdict(model) == "fail"

    def test_projector_missing_the_defect_range_fails(self):
        model = CASES["random-2x2"]
        model = dataclasses.replace(model, range_projectors=np.zeros_like(model.range_projectors))
        rep = bimodel.verify_bi_isometry(model)
        assert rep.verdict == "fail"
        assert rep.extras["defect_range_residual"] > 1e-10
        assert rep.extras["pythagoras_residual"] <= 1e-10
