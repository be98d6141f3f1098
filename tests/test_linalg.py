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

    @pytest.mark.parametrize("tol", [la.CLASSIFY_TOL, 1e-8])
    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 3), (2, 5)])
    def test_raises_exactly_when_the_svd_norm_exceeds_one_plus_tol(self, shape, offset, tol):
        rng = np.random.default_rng(61)
        k = min(shape)
        u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)) + 1j * rng.standard_normal((shape[0], k)))
        v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)) + 1j * rng.standard_normal((shape[1], k)))
        sigma = np.linspace(1.0 + tol + offset, 0.3, k)
        m = (u * sigma) @ v.conj().T
        expands = np.linalg.norm(m, 2) > 1.0 + tol
        assert expands == (offset > 0)
        if expands:
            with pytest.raises(la.NotAContraction):
                la.defect(m, tol)
        else:
            d = la.defect(m, tol)
            assert d.shape == (shape[1], shape[1])

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


def _shaped(rng, kind):
    """A complex matrix of the named shape class."""
    g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return {
        "tall": lambda: g(9, 4),
        "wide": lambda: g(3, 8),
        "square": lambda: g(6, 6),
        "rank_deficient": lambda: g(7, 2) @ g(2, 5),
        "one_by_one": lambda: g(1, 1),
        "column": lambda: g(5, 1),
        "row": lambda: g(1, 5),
    }[kind]()


SHAPE_CLASSES = ("tall", "wide", "square", "rank_deficient", "one_by_one", "column", "row")


class TestOperatorNorm:
    """The norm kernel against numpy's SVD norm."""

    @pytest.mark.parametrize("kind", SHAPE_CLASSES)
    def test_matches_the_svd_norm(self, kind):
        m = _shaped(np.random.default_rng(41), kind)
        assert la.operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0)

    @pytest.mark.parametrize("kind", SHAPE_CLASSES)
    def test_a_stack_matches_the_svd_norm_of_each_matrix(self, kind):
        rng = np.random.default_rng(43)
        stack = np.stack([_shaped(rng, kind) for _ in range(5)])
        got = la.operator_norm(stack)
        assert got.shape == (5,)
        np.testing.assert_allclose(got, np.linalg.norm(stack, 2, axis=(1, 2)), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0), (3, 4, 0)])
    def test_no_rows_or_no_columns_give_zero(self, shape):
        got = la.operator_norm(np.zeros(shape))
        assert np.array_equal(got, np.zeros(shape[:-2])) and np.ndim(got) == len(shape) - 2

    def test_the_zero_matrix(self):
        assert la.operator_norm(np.zeros((3, 2))) == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("kind", ["tall", "wide", "one_by_one"])
    def test_scaling_keeps_extreme_matrices_finite(self, kind, scale):
        m = scale * _shaped(np.random.default_rng(47), kind)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m.conj().T @ m if m.shape[1] <= m.shape[0] else m @ m.conj().T
        # unscaled, the Gram matrix underflows to zero or overflows to inf and nan
        assert not np.any(gram) if scale < 1 else not np.isfinite(gram).any()
        assert la.operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0)
        stacked = la.operator_norm(np.stack([m, 2 * m]))
        np.testing.assert_allclose(stacked, [np.linalg.norm(m, 2), np.linalg.norm(2 * m, 2)], rtol=1e-13, atol=0)

    def test_rejects_non_finite_entries_and_vectors(self):
        with pytest.raises(la.LinalgError):
            la.operator_norm(np.array([[1.0, np.inf]]))
        with pytest.raises(la.LinalgError):
            la.operator_norm(np.ones(3))

    def test_hermitian_norm_of_a_stack(self):
        rng = np.random.default_rng(53)
        m = np.stack([_shaped(rng, "square") for _ in range(4)])
        h = m + la.adjoint_batch(m)
        np.testing.assert_allclose(la.hermitian_norm(h), np.linalg.norm(h, 2, axis=(1, 2)), rtol=1e-13, atol=0)
        assert la.hermitian_norm(np.zeros((0, 0))) == 0.0


class TestIsometryGap:
    @pytest.mark.parametrize("kind", SHAPE_CLASSES)
    def test_matches_the_svd_norm(self, kind):
        m = _shaped(np.random.default_rng(59), kind)
        m = m / np.sqrt(np.linalg.norm(m, 2))
        oracle = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1]), 2)
        assert la.isometry_gap(m) == pytest.approx(oracle, rel=1e-13, abs=0)

    def test_identity(self):
        assert la.isometry_gap(np.eye(3)) == 0.0

    def test_tall_isometry_and_its_adjoint(self):
        col = np.array([[1.0], [0.0]])
        assert la.isometry_gap(col) == 0.0
        assert la.isometry_gap(col.conj().T) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_half(self):
        assert la.isometry_gap(np.array([[0.5]])) == pytest.approx(0.75, abs=1e-15)

    def test_projection(self):
        assert la.isometry_gap(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_no_columns(self):
        assert la.isometry_gap(np.zeros((3, 0))) == 0.0

    def test_rejects_non_finite_entries(self):
        with pytest.raises(la.LinalgError):
            la.isometry_gap(np.array([[1.0], [np.nan]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
def test_scaled_isometry_gap_property(cols, extra, seed, c):
    # (cV)*(cV) - I = (c^2 - 1) I for an isometry V
    v = random_unitary(np.random.default_rng(seed), cols + extra)[:, :cols]
    assert abs(la.isometry_gap(c * v) - abs(c * c - 1.0)) <= 1e-12


class TestSubspaceBasis:
    def test_rejects_columns_off_orthonormal_by_more_than_rank_tol(self):
        q = random_unitary(np.random.default_rng(3), 4)[:, :2]
        la.SubspaceBasis(q * np.sqrt(1.0 + 0.5 * la.RANK_TOL))
        with pytest.raises(la.LinalgError, match="not orthonormal"):
            la.SubspaceBasis(q * np.sqrt(1.0 + 2.0 * la.RANK_TOL))

    def test_accepts_an_empty_basis(self):
        basis = la.SubspaceBasis.empty(4)
        assert (basis.ambient_dim, basis.dim) == (4, 0)
        assert not basis.projector().any()


def _basis_input(kind, rng, rows, cols):
    """A complex matrix of a shape class the basis constructors take
    without re-checking their columns."""
    g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return {
        "tall": lambda: g(rows + cols, cols),
        "wide": lambda: g(rows, rows + cols),
        "rank_deficient": lambda: g(rows + 1, 1) @ g(1, cols + 1),
        "zero_columns": lambda: g(rows, 0),
        "one_by_one": lambda: g(1, 1),
    }[kind]()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["tall", "wide", "rank_deficient", "zero_columns", "one_by_one"]),
       st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.sampled_from([1e-3, 1.0, 1e3]))
def test_constructed_bases_are_orthonormal(kind, seed, rows, cols, scale):
    """kernel_basis, range_basis, orth_complement and subspace_intersection
    build their columns orthonormal and do not check them; they pass the
    check SubspaceBasis makes of a basis given from outside, and that
    check still rejects columns that are not orthonormal."""
    rng = np.random.default_rng(seed)
    m = scale * _basis_input(kind, rng, rows, cols)
    other = la.range_basis(rng.standard_normal((m.shape[0], 2)))
    rng_m = la.range_basis(m)
    bases = [la.kernel_basis(m), rng_m, la.orth_complement(rng_m), la.subspace_intersection(rng_m, other),
             la.subspace_intersection(rng_m, rng_m)]
    assert [b.ambient_dim for b in bases] == [m.shape[1]] + [m.shape[0]] * 4
    assert rng_m.dim + bases[0].dim == m.shape[1]
    for basis in bases:
        assert la.isometry_gap(basis.columns) <= la.RANK_TOL
        la.SubspaceBasis(basis.columns)
        if basis.dim:
            with pytest.raises(la.LinalgError, match="not orthonormal"):
                la.SubspaceBasis(2.0 * basis.columns)


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


class TestRankRule:
    def test_mask_cuts_relative_to_max_one_and_the_largest(self):
        tol = la.RANK_TOL
        assert la.rank_mask([0.5, tol, 0.99 * tol, 0.0]).tolist() == [True, True, False, False]
        assert la.rank_mask([10.0, 10 * tol, 9.9 * tol]).tolist() == [True, True, False]
        assert la.rank_mask(np.zeros(0)).shape == (0,)
        # rounding noise below zero never counts
        assert la.rank_mask([1.0, -1e-17]).tolist() == [True, False]

    def test_masks_each_row_of_a_stack(self):
        got = la.rank_mask([[20.0, 1e-6], [0.5, 1e-6]])
        assert got.tolist() == [[True, False], [True, True]]

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_pinv_of_an_empty_matrix(self, shape):
        got = la.pinv(np.zeros(shape))
        assert got.shape == shape[::-1]


def planted_matrix(rng, rows, cols, values):
    """rows x cols matrix with the given singular values."""
    u = random_unitary(rng, rows)[:, : len(values)]
    v = random_unitary(rng, cols)[:, : len(values)]
    return (u * np.asarray(values)) @ v.conj().T


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 2),
    st.sampled_from([0.5, 1.0, 3.0]),
)
def test_rank_and_pinv_agree_on_planted_values(seed, kept, dropped, extra, largest):
    """Singular values planted on both sides of the cut, with the
    largest below and above 1: range + kernel dimensions fill the
    columns, and pinv inverts exactly the kept part."""
    rng = np.random.default_rng(seed)
    cut = la.RANK_TOL * max(1.0, largest)
    high = [largest] + list(rng.uniform(3.0, 100.0, kept - 1) * cut)
    low = list(rng.uniform(0.0, 0.3, dropped) * cut)
    rows, cols = kept + dropped + extra, kept + dropped + int(rng.integers(0, 3))
    m = planted_matrix(rng, rows, cols, high + low)
    assert la.range_basis(m).dim == kept
    assert la.range_basis(m).dim + la.kernel_basis(m).dim == cols
    u, s, vh = np.linalg.svd(m)
    kept_part = (u[:, :kept] * s[:kept]) @ vh[:kept]
    np.testing.assert_allclose(m @ la.pinv(m) @ m, kept_part, atol=1e-12 * largest)


def _intersection_oracle(pu, pv, ambient):
    """Null space of the stacked projector complements, cut at 1e-8 by
    the oracle's own SVD."""
    stacked = np.vstack([pu - np.eye(ambient), pv - np.eye(ambient)])
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s >= 1e-8 * max(1.0, s[0])))
    return la.SubspaceBasis(vh[rank:].conj().T)


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
            got = la.subspace_intersection(u, v)
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
    def test_witness_for_identity(self):
        radius, (lam, h) = la.find_non_c0dot_witness(np.array([[1.0]]))
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert abs(lam - 1.0) < 1e-12
        np.testing.assert_allclose(h, [1.0], atol=1e-12)

    def test_no_witness_for_strict_contraction(self):
        assert la.find_non_c0dot_witness(np.array([[0.5]])) == (0.5, None)

    def test_eigenvectors_only_for_a_witness(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        m = random_contraction(np.random.default_rng(67), 5, 5, norm=0.9)
        assert la.find_non_c0dot_witness(m)[1] is None and calls == []
        assert la.find_non_c0dot_witness(random_unitary(np.random.default_rng(67), 5))[1] is not None
        assert calls == [(5, 5)]

    def test_rotation_witness_matches_eig_oracle(self):
        phi = 0.7
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        _, (lam, h) = la.find_non_c0dot_witness(rot)
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
            radius, witness = la.find_non_c0dot_witness(m)
            assert abs(radius - la.spectral_radius(m)) <= 1e-12
            assert (radius < 1.0 - la.CLASSIFY_TOL) == (witness is None)


def doubled(b, weights, count):
    """Smith's doubling of sum_(k<count) (b^k)* N b^k on b's own ladder."""
    return la.stein_sum(la.power_ladder(b, count), weights, count)


class TestSteinSum:
    """Smith doubling against the term-by-term sum of (b^k)* N b^k."""

    @staticmethod
    def term_by_term(b, weights, count):
        total, power = np.zeros_like(weights), np.eye(len(b), dtype=complex)
        for _ in range(count):
            total = total + power.conj().T @ weights @ power
            power = b @ power
        return total, power

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 8, 37, 64, 100, 300])
    def test_matches_the_term_by_term_sum(self, count):
        rng = np.random.default_rng(count)
        b = 0.97 * random_contraction(rng, 4, 4)
        # one weight, and a stack of three: a PSD one, I and an indefinite one
        l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        stack = np.stack([l.conj().T @ l, np.eye(4), h + h.conj().T])
        for weights in (stack[0], stack):
            got, got_power = doubled(b, weights, count)
            want, want_power = self.term_by_term(b, weights.astype(complex), count)
            assert got.shape == weights.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got_power - want_power)) <= 1e-14

    def test_doubling_reaches_counts_no_term_by_term_sum_could(self):
        # 2^30 terms in about 60 products: for a unitary b every term is I,
        # so the sum is count * I; for 0.5 times it the geometric sum
        # I / 0.75.  Each squaring doubles the rounding error of b^(2^k), so
        # the unitary's powers drift from unitarity by about 2^30 * eps
        u = random_unitary(np.random.default_rng(3), 4)
        count = 2**30 + 2**10 + 1
        total, power = doubled(u, np.eye(4), count)
        assert np.max(np.abs(total / count - np.eye(4))) <= 1e-6
        assert np.max(np.abs(power.conj().T @ power - np.eye(4))) <= 1e-6
        total, power = doubled(0.5 * u, np.eye(4), count)
        np.testing.assert_allclose(total, np.eye(4) / 0.75, atol=1e-14)
        assert np.max(np.abs(power)) == 0.0

    @staticmethod
    def full_doubling(b, weights, count):
        """Smith's doubling with no early stop at a zero power: b squared
        for every binary digit of count, zero powers included.  The piece
        settles by the rule of ``stein_sum``, ||b^(2^j)||_F^2 <= eps/4 at
        a step that would double it: it is added once, and only the power
        goes on."""
        piece, step = np.asarray(weights, dtype=complex), np.asarray(b, dtype=complex)
        total, power, settled = np.zeros_like(piece), np.eye(len(step), dtype=complex), False
        while count:
            settles = not settled and count > 1 and np.vdot(step, step).real <= np.finfo(float).eps / 4
            if not settled and (count & 1 or settles):
                total = total + power.conj().T @ piece @ power
            settled = settled or settles
            if count & 1:
                power = power @ step
            count >>= 1
            if count:
                if not settled:
                    piece = piece + step.conj().T @ piece @ step
                step = step @ step
        return total, power

    @pytest.mark.parametrize("count", [1 << 35, 512, 300])
    @pytest.mark.parametrize("scale", [0.01, 1.0])
    def test_the_early_stop_gives_the_bits_of_full_doubling(self, count, scale):
        # 0.01 U: (0.01 U)^256 underflows to exactly zero, so the ladder
        # stops after 9 powers; the unitary U never reaches zero
        rng = np.random.default_rng(5)
        b = scale * random_unitary(rng, 4)
        l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        weights = np.stack([l.conj().T @ l, np.eye(4)])
        powers = la.power_ladder(b, count)
        assert len(powers) == (9 if scale < 1 else count.bit_length())
        assert powers[-1].any() == (scale == 1.0)
        total, power = la.stein_sum(powers, weights, count)
        want_total, want_power = self.full_doubling(b, weights, count)
        assert total.tobytes() == want_total.tobytes()
        assert np.array_equal(power, want_power)

    @staticmethod
    def from_the_identity(powers, weights, count, radii=None):
        """The doubling on the ladder with the sum started at 0 and the
        power at I, so the first selected digit takes I* piece I and
        I M^(2^j): the products ``stein_sum`` leaves out.  The piece
        settles by the rule of ``stein_sum``, r^(2^(j+1)) ||M^(2^j)||_F^2
        <= eps/4 for the largest radius r at a step that would double it."""
        piece, scale, top = np.asarray(weights, dtype=complex), 1.0, 1.0
        if radii is not None:
            scale = np.asarray(radii, dtype=float).reshape((-1,) + (1,) * piece.ndim)
            piece = np.broadcast_to(piece, scale.shape[:1] + piece.shape)
            top = max(radii)
        total, power, done = np.zeros_like(piece), np.eye(piece.shape[-1], dtype=complex), 0
        settled = False
        for j, step in enumerate(powers):
            settles = (not settled and count >> (j + 1) > 0
                       and top ** (2 << j) * np.vdot(step, step).real <= np.finfo(float).eps / 4)
            if not settled and ((count >> j) & 1 or settles):
                total = total + scale ** (2 * done) * (power.conj().T @ piece @ power)
            settled = settled or settles
            if (count >> j) & 1:
                power, done = power @ step, done + (1 << j)
            if count >> (j + 1) and not settled:
                piece = piece + scale ** (2 << j) * (step.conj().T @ piece @ step)
        if count >> len(powers):
            power = power @ powers[-1]
        return total, scale ** count * power

    @pytest.mark.parametrize("dim, count, scale, radii", [
        (8, 512, 0.9, None),  # one set digit
        (25, 1000, 0.9, None),  # several set digits
        (8, 1000, 0.9, (0.9, 0.99, 0.999)),
        (8, 1 << 35, 0.01, None),  # the ladder stops at a zero power
        (8, 1 << 35, 0.01, (0.5, 0.999)),
        (8, 0, 0.9, None),
        (8, 0, 0.9, (0.5, 0.999)),
        (8, 1, 0.9, None),  # the sum is the first piece alone
        (8, 1, 0.9, (0.5, 0.999)),
    ])
    def test_no_product_with_the_identity_keeps_the_bits(self, dim, count, scale, radii):
        rng = np.random.default_rng(dim + count % 97)
        b = scale * random_unitary(rng, dim)
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        weights = np.stack([l.conj().T @ l, np.eye(dim)])
        powers = la.power_ladder(b, count)
        if scale < 0.1 and count:
            assert not powers[-1].any()
        total, power = la.stein_sum(powers, weights, count, radii)
        want_total, want_power = self.from_the_identity(powers, weights, count, radii)
        assert total.shape == want_total.shape and power.shape == want_power.shape
        assert np.array_equal(total, want_total) and np.array_equal(power, want_power)
        # the result is the caller's to write to: it shares no memory with the weights
        assert total.flags.writeable and not np.shares_memory(total, weights)

    def test_the_ladder_squares_until_a_power_is_zero(self):
        # the cyclic shift on C^4 is nilpotent below its corner: N^4 = 0
        n = np.eye(4, k=-1)
        powers = la.power_ladder(n, 1 << 35)
        assert [p.any() for p in powers] == [True, True, False]
        assert np.array_equal(powers[1], n @ n)
        assert la.power_ladder(n, 0) == [] and len(la.power_ladder(n, 1)) == 1
        assert len(la.power_ladder(np.eye(4), 7)) == 3

    def test_radii_sum_the_scaled_matrices_at_once(self):
        rng = np.random.default_rng(9)
        m = 0.9 * random_contraction(rng, 5, 5)
        weights = np.stack([np.eye(5), np.diag([1.0, -1.0, 2.0, 0.0, 1.0])])
        radii = (0.3, 0.9, 0.999)
        total, power = la.stein_sum(la.power_ladder(m, 100), weights, 100, radii)
        assert total.shape == (3, 2, 5, 5) and power.shape == (3, 1, 5, 5)
        for rho, got, got_power in zip(radii, total, power):
            want, want_power = doubled(rho * m, weights, 100)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got_power[0] - want_power)) <= 1e-15

    def test_empty_matrix(self):
        total, power = doubled(np.zeros((0, 0)), np.zeros((2, 0, 0)), 5)
        assert total.shape == (2, 0, 0) and power.shape == (0, 0)

    @pytest.mark.parametrize("scale", [0.0, 0.5, 0.9, 0.999])
    def test_a_cap_of_doublings_reaches_the_limit(self, scale):
        # b = scale U, U unitary: S_inf = sum_k scale^(2k) I = I / (1 - scale^2);
        # at G = 2^35 the power has vanished and the sum is its limit
        u = random_unitary(np.random.default_rng(7), 4)
        total, power = doubled(scale * u, np.eye(4), 1 << 35)
        assert np.linalg.norm(power) ** 2 <= np.finfo(float).eps
        assert np.max(np.abs(total - np.eye(4) / (1 - scale**2))) <= 1e-12 / (1 - scale**2)

    @staticmethod
    def unsettled(powers, weights, count, radii=None):
        """The doubling on the ladder with no settle rule: the piece is
        doubled for every digit of count, and a ladder that stopped at a
        zero power adds its piece once more after it."""
        piece, scale = np.asarray(weights, dtype=complex), 1.0
        if radii is not None:
            scale = np.asarray(radii, dtype=float).reshape((-1,) + (1,) * piece.ndim)
            piece = np.broadcast_to(piece, scale.shape[:1] + piece.shape)
        total, power, done = np.zeros_like(piece), np.eye(piece.shape[-1], dtype=complex), 0
        for j, step in enumerate(powers):
            if (count >> j) & 1:
                total = total + scale ** (2 * done) * (power.conj().T @ piece @ power)
                power, done = power @ step, done + (1 << j)
            if count >> (j + 1):
                piece = piece + scale ** (2 << j) * (step.conj().T @ piece @ step)
        if count >> len(powers):
            total = total + scale ** (2 * done) * (power.conj().T @ piece @ power)
            power = power @ powers[-1]
        return total, scale ** count * power

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("count", [300, 512, 1000, 1 << 35])
    @pytest.mark.parametrize("shape", ["one", "stack", "radii"])
    def test_the_settled_sum_drops_less_than_rounding(self, seed, count, shape):
        # against the un-settled doubling: the dropped tail is below eps ||S||
        # for each weight and radius, and b^count keeps its bits
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        m = rng.uniform(0.3, 0.95) * random_contraction(rng, dim, dim)
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        weights = np.stack([l.conj().T @ l, np.eye(dim)])
        weights, radii = {"one": (weights[0], None), "stack": (weights, None),
                          "radii": (weights, (0.5, 0.9, 0.99))}[shape]
        powers = la.power_ladder(m, count)
        total, power = la.stein_sum(powers, weights, count, radii)
        want_total, want_power = self.unsettled(powers, weights, count, radii)
        assert total.shape == want_total.shape and np.array_equal(power, want_power)
        tail = la.operator_norm(total - want_total)
        assert np.all(tail <= np.finfo(float).eps * la.operator_norm(want_total))
        # the rule fires on every such ladder: ||M^(2^j)||_F^2 decays below eps/4
        assert any(la._settles(step, 1.0 if radii is None else max(radii), j)
                   for j, step in enumerate(powers[:-1]))

    @pytest.mark.parametrize("radii", [None, (0.5, 1.0)])
    def test_a_unitary_ladder_never_settles_and_keeps_its_bits(self, radii):
        # ||U^(2^j)||_F^2 = dim at every step: nothing is below rounding
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 5)
        l = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        weights = np.stack([l.conj().T @ l, np.eye(5)])
        count = (1 << 20) + 37
        powers = la.power_ladder(u, count)
        top = 1.0 if radii is None else max(radii)
        assert not any(la._settles(step, top, j) for j, step in enumerate(powers))
        total, power = la.stein_sum(powers, weights, count, radii)
        want_total, want_power = self.unsettled(powers, weights, count, radii)
        assert np.array_equal(total, want_total) and np.array_equal(power, want_power)

    def test_the_hardy_flag_is_that_of_the_unsettled_power(self):
        # A = diag(1 - 2^-40, 0.5) is planted not to converge: ||M^(2^35)||_F^2
        # is about 1.9, so the sum never settles, keeps the bits of the
        # un-settled doubling, and the flag reads the same power; A = 0.5 U
        # settles early and still converges
        from liftlab import criteria, h2

        rng = np.random.default_rng(13)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        count = 1 << criteria.TAYLOR_SQUARINGS
        for a, converges in ((np.diag([1.0 - 2.0**-40, 0.5]), False), (0.5 * random_unitary(rng, 2), True)):
            comp = criteria.companion(h2.MatPoly.constant(np.vstack([a, b])))
            gram, converged = criteria.hardy_gram(comp, np.eye(2))
            rows = h2.state_rows(comp.b, comp.a.degree + 1)
            want, power = self.unsettled(comp.prefix(count), rows.conj().T @ rows, count)
            assert converged == converges == (np.vdot(power, power).real <= np.finfo(float).eps)
            if not converges:
                assert np.array_equal(gram, want[:2, :2])
            else:
                assert la.operator_norm(gram - want[:2, :2]) <= np.finfo(float).eps * la.operator_norm(want)

    def test_a_unimodular_eigenvalue_keeps_its_power(self):
        # b = diag(1, 0.5): the powers never vanish, and the partial sum at
        # 2^35 terms stays finite, 2^35 in the unimodular direction
        total, power = doubled(np.diag([1.0, 0.5]), np.eye(2), 1 << 35)
        assert np.linalg.norm(power) ** 2 > np.finfo(float).eps
        np.testing.assert_allclose(np.diag(total).real, [2.0**35, 1 / 0.75], rtol=1e-12)
