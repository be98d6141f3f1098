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


class TestVerify:
    @pytest.mark.parametrize(
        "theta",
        [
            MatPoly.zero(1, 1),
            shift_symbol(1),
            MatPoly(np.stack([np.zeros((1, 1)), 0.5 * np.eye(1)])),
        ],
        ids=["zero", "inner-shift", "half-shift"],
    )
    def test_standard_symbols_pass(self, theta):
        model = bimodel.build_model(theta, grid=128, degree=16)
        rep = bimodel.verify_bi_isometry(model, trials=25)
        assert rep.verdict == "pass"

    def test_random_contractive_symbol_passes(self, rng):
        theta = contractive_matpoly(rng, 2, 2, 2, norm=0.9)
        model = bimodel.build_model(theta, grid=256, degree=24)
        rep = bimodel.verify_bi_isometry(model, trials=25)
        assert rep.verdict == "pass"
        assert rep.extras["commutation_residual"] <= 1e-10
