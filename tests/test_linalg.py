import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import linalg as la


def random_contraction(rng, rows, cols, norm=1.0):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    s = np.linalg.norm(m, 2)
    return m * (norm / s) if s > 0 else m


def random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDefect:
    def test_zero_operator(self):
        np.testing.assert_allclose(la.defect(np.zeros((2, 2))), np.eye(2), atol=1e-14)

    def test_isometry_has_zero_defect(self):
        rng = np.random.default_rng(7)
        v = random_unitary(rng, 4)[:, :2]
        assert np.linalg.norm(la.defect(v), 2) < 1e-12

    def test_scalar_closed_form(self):
        np.testing.assert_allclose(la.defect(np.array([[0.5]])), [[np.sqrt(3) / 2]], atol=1e-15)

    def test_rejects_expansion(self):
        with pytest.raises(la.NotAContraction):
            la.defect(np.array([[1.5]]))

    def test_adjoint_convention(self):
        rng = np.random.default_rng(3)
        m = random_contraction(rng, 3, 2, norm=0.9)
        np.testing.assert_allclose(la.defect_adjoint(m), la.defect(m.conj().T), atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_defect_identity_property(n, seed, scale):
    rng = np.random.default_rng(seed)
    m = random_contraction(rng, n, n, norm=scale)
    d = la.defect(m)
    residual = np.linalg.norm(d @ d + m.conj().T @ m - np.eye(n), 2)
    assert residual <= 1e-12


def test_defect_identity_large_dim():
    rng = np.random.default_rng(11)
    m = random_contraction(rng, 64, 64, norm=0.999)
    d = la.defect(m)
    assert np.linalg.norm(d @ d + m.conj().T @ m - np.eye(64), 2) <= 1e-12


class TestClassify:
    def test_identity(self):
        got = la.classify(np.eye(3))
        assert got == {"contraction", "isometry", "coisometry", "unitary", "partial_isometry"}

    def test_scalar_half(self):
        assert la.classify(np.array([[0.5]])) == {"contraction"}

    def test_projection_is_partial_isometry(self):
        got = la.classify(np.diag([1.0, 0.0]))
        assert got == {"contraction", "partial_isometry"}

    def test_none(self):
        assert la.classify(np.array([[2.0]])) == frozenset()

    def test_tall_isometry(self):
        got = la.classify(np.array([[1.0], [0.0]]))
        assert "isometry" in got and "coisometry" not in got


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_classify_monotone_property(n, seed):
    rng = np.random.default_rng(seed)
    # bias toward interesting operators: unitaries, projections, contractions
    kind = seed % 3
    if kind == 0:
        m = random_unitary(rng, n)
    elif kind == 1:
        q = random_unitary(rng, n)[:, : max(1, n // 2)]
        m = q @ q.conj().T
    else:
        m = random_contraction(rng, n, n, norm=rng.uniform(0, 1))
    got = la.classify(m)
    if "unitary" in got:
        assert {"isometry", "coisometry"} <= got
    if "isometry" in got or "coisometry" in got:
        assert {"partial_isometry", "contraction"} <= got


class TestKernelBasis:
    def test_identity_has_empty_kernel(self):
        assert la.kernel_basis(np.eye(3)).dim == 0

    def test_zero_matrix(self):
        basis = la.kernel_basis(np.zeros((3, 3)))
        assert basis.dim == 3

    def test_rank_one_projection(self):
        v = np.array([[1.0], [1j]]) / np.sqrt(2)
        p = v @ v.conj().T
        basis = la.kernel_basis(p)
        assert basis.dim == 1
        assert np.linalg.norm(p @ basis.columns) < 1e-12

    def test_kernel_orthogonal_to_adjoint_range(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        basis = la.kernel_basis(m)
        assert np.linalg.norm(m.conj().T.conj().T @ basis.columns) < 1e-10
        # explicitly: kernel directions are killed by M, hence orthogonal to range M*
        assert np.linalg.norm(m @ basis.columns) < 1e-10


def _intersection_oracle(pu, pv, ambient):
    """Null space of the stacked projector complements."""
    stacked = np.vstack([pu - np.eye(ambient), pv - np.eye(ambient)])
    return la.kernel_basis(stacked, tol=1e-8)


class TestSubspaceIntersection:
    def test_same_subspace(self):
        rng = np.random.default_rng(2)
        u = la.range_basis(random_contraction(rng, 4, 2))
        got = la.subspace_intersection(u, u)
        np.testing.assert_allclose(got.projector(), u.projector(), atol=1e-10)

    def test_orthogonal_lines(self):
        u = la.SubspaceBasis(np.array([[1.0], [0.0]], dtype=complex))
        v = la.SubspaceBasis(np.array([[0.0], [1.0]], dtype=complex))
        assert la.subspace_intersection(u, v).dim == 0

    def test_generic_planes_in_c3(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = la.range_basis(random_contraction(rng, 3, 2))
            v = la.range_basis(random_contraction(rng, 3, 2))
            got = la.subspace_intersection(u, v, tol=1e-7)
            oracle = _intersection_oracle(u.projector(), v.projector(), 3)
            assert got.dim == oracle.dim == 1
            np.testing.assert_allclose(got.projector(), oracle.projector(), atol=1e-6)

    def test_commutative_and_idempotent(self):
        rng = np.random.default_rng(13)
        u = la.range_basis(random_contraction(rng, 5, 3))
        v = la.range_basis(random_contraction(rng, 5, 2))
        uv = la.subspace_intersection(u, v)
        vu = la.subspace_intersection(v, u)
        np.testing.assert_allclose(uv.projector(), vu.projector(), atol=1e-8)
        again = la.subspace_intersection(uv, uv)
        np.testing.assert_allclose(again.projector(), uv.projector(), atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(la.DimensionMismatch):
            la.subspace_intersection(la.SubspaceBasis.full(2), la.SubspaceBasis.full(3))


class TestStability:
    def test_zero_is_stable(self):
        assert la.is_c_dot_0(np.zeros((2, 2)))

    def test_unitary_is_not(self):
        assert not la.is_c_dot_0(np.eye(2))

    def test_scalar_half(self):
        assert la.is_c_dot_0(np.array([[0.5]]))

    def test_witness_for_identity(self):
        lam, h = la.find_non_c0dot_witness(np.array([[1.0]]))
        assert abs(lam - 1.0) < 1e-12
        np.testing.assert_allclose(h, [1.0], atol=1e-12)

    def test_no_witness_for_strict_contraction(self):
        assert la.find_non_c0dot_witness(np.array([[0.5]])) is None

    def test_rotation_witness_matches_eig_oracle(self):
        phi = 0.7
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        lam, h = la.find_non_c0dot_witness(rot)
        # oracle: eigendecomposition; tie broken toward smaller argument
        assert abs(lam - np.exp(1j * phi)) < 1e-12
        assert np.linalg.norm(rot @ h - lam * h) < 1e-12
        assert abs(np.linalg.norm(h) - 1.0) < 1e-12

    def test_witness_iff_not_stable(self):
        rng = np.random.default_rng(21)
        for k in range(20):
            n = rng.integers(1, 6)
            if k % 2:
                m = random_contraction(rng, n, n, norm=rng.uniform(0.1, 0.98))
            else:
                m = random_unitary(rng, n)
            assert la.is_c_dot_0(m) == (la.find_non_c0dot_witness(m) is None)
