import json
import math

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


def lifting_with(ld, r, w, **kwargs):
    """lifting_isometry_check of the symbol w = [B; A] through its
    companion, squared through the check's grid."""
    comp = criteria.companion(w, ld.basis_tprime.dim, grid=kwargs.get("grid", h2.DEFAULT_GRID))
    return criteria.lifting_isometry_check(ld, r, comp, **kwargs)


def lifting_check(ld, r=None, **kwargs):
    """lifting_isometry_check of the free parameter r, zero by default,
    with the symbol ``clt.assemble_schur_W`` assembles from it."""
    if r is None:
        r = MatPoly.zero(ld.ker_omega_star.dim, ld.ker_omega.dim)
    return lifting_with(ld, r, clt.assemble_schur_W(ld, r), **kwargs)


def radial_check(w, **kwargs):
    """radial_isometry_check of w = [A; B] through its companion, squared
    through the check's grid."""
    return criteria.radial_isometry_check(criteria.companion(w, grid=kwargs.get("grid", h2.DEFAULT_GRID)), **kwargs)


def constant_check(w0):
    """constant_symbol_check of the block column w0 = [A_0; B_0]."""
    return criteria.constant_symbol_check(criteria.companion(MatPoly.constant(w0)))


def obstruction(ld, r0):
    """obstruction_search of the constant parameter r0 with the companion
    of the symbol its coefficients give, unchecked, so a parameter that
    is no contraction reaches the search."""
    w = MatPoly(clt.schur_coeffs(ld, linalg.as_matrix(r0)[None]))
    return criteria.obstruction_search(ld, r0, criteria.companion(w, ld.basis_tprime.dim))


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
        rep = radial_check(w, grid=64)
        assert rep.verdict == "pass"
        assert rep.rho_ladder[-1][1] <= 1e-12

    def test_unitary_top_block_fails_flat_trace(self):
        w = MatPoly.constant([[1.0], [0.0]])
        rep = radial_check(w, grid=64)
        assert rep.verdict == "fail"
        trace = [v for _, v in rep.taylor_trace]
        assert max(trace) - min(trace) <= 1e-12
        assert trace[0] == pytest.approx(1.0)
        # a flat trace never passes, so it squares to the cap
        assert [n for n, _ in rep.taylor_trace] == [0] + [1 << k for k in range(criteria.TAYLOR_SQUARINGS + 1)]
        assert rep.tolerances["degree_used"] == rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS

    def test_scalar_half_column_fails_with_positive_limit(self):
        w = MatPoly.constant([[0.5], [0.5]])
        rep = radial_check(w, grid=256)
        assert rep.verdict == "fail"
        # closed form: the defect integrand mean is (1/2)/(1 - rho^2/4)
        for rho, value in rep.rho_ladder:
            assert value == pytest.approx(0.5 / (1 - rho**2 / 4), rel=1e-9)

    def test_equivalent_formulations_agree(self, rng):
        # the weighted-resolvent and defect-of-A forms give one verdict
        for w0 in ([[0.0], [1.0]], [[0.5], [0.5]], [[1.0], [0.0]]):
            rep = radial_check(MatPoly.constant(w0), grid=128)
            weighted = rep.extras["weighted_verdict"]
            a_form = rep.extras["a_defect_verdict"]
            assert (weighted == "pass") == (a_form == "pass")


class TestTaylorTrace:
    @pytest.mark.parametrize("dim, deg", [(1, 0), (4, 0), (3, 2), (2, 6)])
    def test_matches_the_neumann_oracle(self, rng, dim, deg):
        # every symbol squares its companion: n = 0, 1, 2, 4, ... until the trace passes
        a = contractive_matpoly(rng, dim, dim, deg, norm=0.95)
        trace = criteria.taylor_trace(criteria.companion(a), criteria.TOL_TAYLOR)
        indices = [k for k, _ in trace]
        assert indices == [0] + [1 << k for k in range(len(trace) - 1)]
        assert criteria.taylor_verdict(trace, criteria.TOL_TAYLOR) == "pass"
        want, bound = trace_oracle(a, indices)
        assert np.all(np.abs(np.array([v for _, v in trace]) - want) <= bound)

    # rungs up to 0.9999, so the defect ladder (1 - rho^2) c^4 / (1 - c^4 rho^4)
    # of the column passes for c <= 0.9
    LADDER = (0.9, 0.99, 0.9999)

    @staticmethod
    def column(c: float) -> MatPoly:
        """The degree-1 column [c^2 z; sqrt(1 - c^4)], isometric on the
        circle: Z_n = c^n at even n and 0 at odd n, so its state
        (Z_n, Z_(n-1)) has norm c^n at even n and 1 at n = 1."""
        return MatPoly(np.array([[[0.0], [np.sqrt(1 - c**4)]], [[c**2], [0.0]]]))

    def test_slow_decay_stays_inconclusive_at_the_cap(self):
        # c = 1 - 3e-10: the tail n = 2^34, 2^35 holds 5.8e-3 and 3.4e-5,
        # below 0.1 of the head and above tol
        rep = radial_check(self.column(1 - 3e-10), ladder=self.LADDER, grid=128)
        assert "taylor decay: inconclusive" in rep.notes
        # the radial check truncates nothing, so it records no degree
        assert "degree" not in rep.tolerances
        assert rep.tolerances["degree_cap"] == rep.tolerances["degree_used"] == 2**criteria.TAYLOR_SQUARINGS
        assert len(rep.taylor_trace) == criteria.TAYLOR_SQUARINGS + 2

    def test_a_unimodular_column_fails_at_the_cap(self):
        # A(z) = z: Z_1 = 0, but the state (Z_1, Z_0) has norm 1, so the
        # trace does not pass at n = 1; it stays flat to the cap and fails
        rep = radial_check(self.column(1.0), ladder=self.LADDER, grid=128)
        assert rep.verdict == "fail"
        assert "taylor decay: fail" in rep.notes
        assert rep.tolerances["degree_used"] == 2**criteria.TAYLOR_SQUARINGS
        np.testing.assert_allclose([v for _, v in rep.taylor_trace], 1.0, atol=1e-12)

    def test_doubling_stops_once_decided(self):
        # 0.8^n: the tail n = 32, 64 still holds 7.9e-4; n = 64, 128 passes
        rep = radial_check(self.column(0.8), ladder=self.LADDER, grid=128)
        assert rep.verdict == "pass"
        assert rep.tolerances["degree_used"] == 128
        n = np.array([k for k, _ in rep.taylor_trace])
        assert list(n) == [0, 1, 2, 4, 8, 16, 32, 64, 128]
        np.testing.assert_allclose([v for _, v in rep.taylor_trace], np.where(n == 1, 1.0, 0.8**n), rtol=1e-12)

    def test_a_constant_traces_dyadic_indices_until_it_passes(self):
        # 0.5^n: the tail n = 16, 32 still holds 1.5e-5; n = 32, 64 passes
        rep = radial_check(MatPoly.constant([[0.5], [np.sqrt(0.75)]]), grid=128)
        assert rep.verdict == "pass"
        assert [n for n, _ in rep.taylor_trace] == [0, 1, 2, 4, 8, 16, 32, 64]
        np.testing.assert_allclose([v for _, v in rep.taylor_trace], 0.5 ** np.array([0, 1, 2, 4, 8, 16, 32, 64]),
                                   rtol=1e-12)
        assert "degree" not in rep.tolerances
        assert rep.tolerances["degree_used"] == 64
        assert rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS

    @pytest.mark.parametrize("kind", ["decaying", "nilpotent", "unitary"])
    def test_entries_equal_repeated_squaring(self, rng, kind):
        # the trace reads the shared ladder; its entries are the bits the
        # squaring loop of the trace gave before the ladder existed
        a = {"decaying": contractive_matpoly(rng, 3, 3, 2, norm=0.95),
             "nilpotent": MatPoly.constant(np.tril(rng.standard_normal((3, 3)), -1)),
             "unitary": MatPoly.constant(random_unitary(rng, 3))}[kind]
        comp = criteria.companion(a)
        powers, trace = comp.powers, criteria.taylor_trace(comp, criteria.TOL_TAYLOR)
        power, want = h2.realize(a), [(0, np.sqrt(3))]
        for k in range(len(trace) - 1):
            power = power @ power if k else power
            want.append((1 << k, float(np.linalg.norm(power[:, :3]))))
        assert trace == want
        if kind == "nilpotent":
            # N^4 = 0 ends the ladder; the trace reads zeros past it and passes
            assert len(powers) == 3 and len(trace) == 5
        if kind == "unitary":
            assert len(powers) == len(trace) - 1 == criteria.TAYLOR_SQUARINGS + 1

    def test_the_squaring_cap_comes_from_the_classification_margin(self):
        # the least k with 2^(k-1) CLASSIFY_TOL >= ln(1 / TOL_TAYLOR)
        k = criteria.TAYLOR_SQUARINGS
        bound = np.log(1 / criteria.TOL_TAYLOR)
        assert 2 ** (k - 1) * linalg.CLASSIFY_TOL >= bound > 2 ** (k - 2) * linalg.CLASSIFY_TOL
        assert k == 35


def node_grams(w: MatPoly, rho: float, grid: int) -> np.ndarray:
    """The circle means of d*d - (Wd)*(Wd), d*d and d*d - (Ad)*(Ad), d =
    (I - z A(z))^(-1) solved node by node, A the top square block of W."""
    dim = w.in_dim
    d = h2.resolvent_apply_grid(w.block_rows(dim)[0], np.eye(dim), rho, grid)
    wd = h2.eval_circle_grid(w, rho, grid) @ d
    dd, ww, aa = (np.mean(np.einsum("nji,njk->nik", x.conj(), x), axis=0) for x in (d, wd, wd[:, :dim]))
    return np.stack([dd - ww, dd, dd - aa])


class TestParsevalMeans:
    """The Stein-sum Gram matrices of the companion state against the
    node solves on the same rho-circle, read by their largest eigenvalue
    as the checks read them.  Norms stay at or below 0.999: the node path
    forms d*d - (Wd)*(Wd) node by node, which for an isometric W at rho =
    0.9999 cancels terms of size 1e8 to a rounding-level difference, so
    no relative bound holds for it there."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), rows=st.integers(0, 3),
           degree=st.integers(0, 3), grid=st.integers(1, 300), rho=st.floats(0.05, 0.9999),
           norm=st.floats(0.1, 0.999))
    def test_stein_means_equal_the_node_solves(self, seed, dim, rows, degree, grid, rho, norm):
        rng = np.random.default_rng(seed)
        w = contractive_matpoly(rng, dim + rows, dim, degree, norm=norm)
        a, _ = w.block_rows(dim)
        grid = max(grid, 2 * degree + 1)
        e = h2.state_rows(MatPoly.constant(np.eye(dim)), degree + 1)
        lw = h2.state_rows(w, degree + 1)
        gram, la = e.conj().T @ e, lw[:dim]
        weights = np.stack([gram - lw.conj().T @ lw, gram, gram - la.conj().T @ la])
        got = criteria.parseval_means(h2.Companion(a, 0, grid), weights, [rho], grid)[0]
        assert got.shape == (3, dim, dim)
        got, want = (np.linalg.eigvalsh(g)[:, -1] for g in (got, node_grams(w, rho, grid)))
        assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-15))

    @pytest.mark.parametrize("grid", [1, 7, 64, 300, 512])
    def test_stacked_rungs_match_each_rung_alone(self, rng, grid):
        # oracle: one Stein sum of rho M per rung, b = rho M squared on its own
        a = contractive_matpoly(rng, 3, 3, 2, norm=0.95)
        m = h2.realize(a)
        l = rng.standard_normal((2, len(m), len(m))) + 1j * rng.standard_normal((2, len(m), len(m)))
        weights = l.conj().transpose(0, 2, 1) @ l
        ladder = (0.5, 0.9, 0.99, 0.999)
        got = criteria.parseval_means(criteria.companion(a, grid=grid), weights, ladder, grid)
        assert got.shape == (4, 2, 3, 3)
        for rung, rho in zip(got, ladder):
            s, top = linalg.stein_sum(linalg.power_ladder(rho * m, grid), weights, grid)
            v = np.linalg.solve(np.eye(len(m)) - top, np.eye(len(m), 3))
            want = v.conj().T @ s @ v
            assert np.max(np.abs(rung - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @staticmethod
    def solved_means(comp, weights, ladder, grid):
        """The means through V = M_rho^(-1) E*, solved on every rung."""
        s, top = linalg.stein_sum(comp.prefix(grid), weights, grid, list(ladder))
        v = np.linalg.solve(np.eye(len(comp.m)) - top, np.eye(len(comp.m), comp.a.in_dim))
        return linalg.adjoint_batch(v) @ s @ v

    @pytest.mark.parametrize("norm, solves", [(0.5, 0), (0.999, 1)])
    def test_v_is_e_once_the_power_is_below_rounding(self, rng, monkeypatch, norm, solves):
        # ||(rho M)^G||_F <= eps/4 on every rung puts V within eps/3 of E*:
        # the means are S's corners and no system is solved.  A symbol of
        # norm 0.999 keeps a power far above rounding at G = 512
        a = contractive_matpoly(rng, 3, 3, 1, norm=norm)
        comp = criteria.companion(a, grid=512)
        shape = (2, len(comp.m), len(comp.m))
        l = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        weights = l.conj().transpose(0, 2, 1) @ l
        want = self.solved_means(comp, weights, criteria.DEFAULT_LADDER, 512)
        calls, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: (calls.append(1), solve(*args))[1])
        got = criteria.parseval_means(comp, weights, criteria.DEFAULT_LADDER, 512)
        assert len(calls) == solves
        assert got.shape == want.shape == (3, 2, 3, 3)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim, size", [(1, 1), (3, 3), (3, 9), (25, 25), (2, 8)])
    def test_the_corner_has_the_bits_of_the_product_with_e(self, rng, dim, size):
        # E = [I 0] is exact, so E* N E has N's bits in its corner and zeros elsewhere
        e = np.eye(dim, size)
        n = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for block, want in ((n, e.conj().T @ n @ e), (np.eye(dim), e.conj().T @ e)):
            got = criteria._corner(block, size)
            assert got.shape == (size, size) and np.array_equal(got, want)


class TestSharedCompanion:
    """The companion is the symbol argument of every reader: it holds W
    and the A and B split from it, so a reader cannot be handed a symbol
    and a companion that disagree, and one too short for the grid is
    refused rather than read."""

    @pytest.mark.parametrize("start", [0, 2])
    def test_a_and_b_are_the_symbols_own_rows(self, rng, start):
        w = contractive_matpoly(rng, 5, 3, 2)
        comp = criteria.companion(w, start)
        rows = np.arange(5)
        inside = (rows >= start) & (rows < start + 3)
        assert comp.w is w
        assert np.array_equal(comp.a.coeffs, w.coeffs[:, inside])
        assert np.array_equal(comp.b.coeffs, w.coeffs[:, ~inside])
        assert np.array_equal(comp.m, h2.realize(comp.a))

    @pytest.mark.parametrize("start", [-1, 3])
    def test_a_row_with_no_square_block_is_refused(self, rng, start):
        with pytest.raises(criteria.CriteriaError, match=f"no square block at row {start}"):
            criteria.companion(contractive_matpoly(rng, 5, 3, 0), start)

    def test_the_obstruction_search_records_the_trace_of_the_shared_ladder(self, rng):
        # an obstruction search that finds no witness records the trace
        # of the one ladder the lifting check reads
        ld = clt.build_omega(shift_problem(rng, mult=2))
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        comp = criteria.companion(clt.assemble_schur_W(ld, MatPoly.constant(r0)), ld.basis_tprime.dim, grid=128)
        rep = criteria.obstruction_search(ld, r0, comp)
        assert rep.verdict == "pass"
        assert rep.taylor_trace == criteria.taylor_trace(comp, criteria.TOL_TAYLOR)

    def test_a_ladder_short_of_the_grid_is_refused(self):
        comp = h2.Companion(MatPoly.constant([[0.5], [0.5]]), 0, 64)
        assert len(comp.prefix(64)) == 7
        with pytest.raises(h2.H2Error, match="reaches 64"):
            criteria.radial_isometry_check(comp, grid=128)

    def test_the_ladder_is_squared_on_its_first_read(self, monkeypatch):
        calls = []
        original = linalg.power_ladder
        monkeypatch.setattr(linalg, "power_ladder", lambda *args: calls.append(args) or original(*args))
        comp = criteria.companion(MatPoly.constant([[0.5]]))
        assert calls == []
        assert len(comp.prefix(4)) == 3 and len(calls) == 1


class TestRealize:
    def test_the_state_holds_the_last_terms_of_the_recursion(self, rng):
        a = contractive_matpoly(rng, 2, 2, 3, norm=0.9)
        m = h2.realize(a)
        state = np.eye(len(m), 2)
        padded = np.concatenate([np.zeros((3, 2, 2)), h2.neumann_inverse(a, 12).coeffs])
        for n in range(10):
            # blocks J_n, J_(n-1), ..., J_(n-3) of (I - z A)^(-1), with J_(-k) = 0
            np.testing.assert_allclose(state.reshape(4, 2, 2), padded[n + 3 : n - 1 if n else None : -1], atol=1e-14)
            state = m @ state

    def test_state_rows_keep_an_empty_kernel(self):
        # an explicit shape: reshape(-1) cannot size a block row of width 0
        assert h2.state_rows(MatPoly.zero(3, 0, 2), 4).shape == (3, 0)
        assert h2.state_rows(MatPoly.zero(0, 2, 1), 2).shape == (0, 4)


class TestConstantSymbol:
    def test_stable_isometric_column_passes(self):
        rep = constant_check(np.array([[0.0], [1.0]]))
        assert rep.verdict == "pass"

    def test_unitary_top_block_fails(self):
        rep = constant_check(np.array([[1.0], [0.0]]))
        assert rep.verdict == "fail"
        assert "spectral radius" in rep.notes

    def test_scalar_contraction_with_defect_row(self):
        c = 0.6
        w0 = np.array([[c], [np.sqrt(1 - c**2)]])
        rep = constant_check(w0)
        assert rep.verdict == "pass"
        assert rep.extras["spectral_radius"] == pytest.approx(c)

    def test_non_isometric_fails(self):
        rep = constant_check(np.array([[0.5], [0.5]]))
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

    @pytest.mark.parametrize("grid", [3, 4])
    def test_a_grid_with_no_node_left_is_an_error(self, grid):
        # every node lies within a spacing of the atom at 0 or the jump at pi
        with pytest.raises(criteria.CriteriaError, match=f"grid {grid} keeps no node .* at rho 0.9$"):
            criteria.boundary_measure_check(MatPoly.constant([[0.5], [0.5]]), grid=grid, ladder=(0.9, 0.99),
                                            exclusions=[(0.0, "atom"), (np.pi, "jump")])

    def test_a_node_where_the_resolvent_is_singular_raises_as_solve_does(self):
        # A = 1: 1 - z A vanishes at the node z = 1 of the last rung
        with pytest.raises(np.linalg.LinAlgError):
            criteria.boundary_measure_check(MatPoly.constant([[1.0], [0.0]]), grid=16, ladder=(0.9, 1.0))

    def test_a_grid_below_twice_the_degree_is_too_coarse(self, rng):
        w = contractive_matpoly(rng, 2, 1, 3, norm=0.9)
        with pytest.raises(h2.GridTooCoarse):
            criteria.boundary_measure_check(w, grid=6)


def per_rung_ladders(w: MatPoly, ladder, grid: int, exclusions=()) -> tuple:
    """Reference: the mass, mass-deviation and remainder ladders of
    ``boundary_measure_check`` one radius at a time, as the node means
    of the kept nodes, copied out by a boolean index."""
    dim = w.in_dim
    eye = np.eye(dim)
    mass_ladder, mass_dev, k_ladder = [], [], []
    for rho in ladder:
        mask = criteria.included_nodes(grid, rho, exclusions)
        d = h2.resolvent_apply_grid(w.block_rows(dim)[0], eye, rho, grid)[mask]
        wd = h2.eval_circle_grid(w, rho, grid)[mask] @ d
        dd, ad, bd = (np.einsum("nji,njk->nik", x.conj(), x) for x in (d, wd[:, :dim], wd[:, dim:]))
        mass = np.mean(dd - ad, axis=0)
        remainder = np.mean(((1.0 - rho**2) / rho**2) * dd + (dd - (ad + bd)) / rho**2, axis=0)
        mass_ladder.append(criteria.largest_eigenvalue(mass))
        mass_dev.append(linalg.hermitian_norm(mass - eye))
        k_ladder.append(criteria.largest_eigenvalue(remainder))
    return mass_ladder, mass_dev, k_ladder


def ex3_1_symbol(degree: int = 1024, grid: int = 4096) -> MatPoly:
    """The Schur symbol [a; b] of ex3_1, built as the scenario builds it."""
    u = h2.herglotz_from_measure(cli.split_measure_with_atom(), degree)
    a = h2.herglotz_to_symbol(u, degree)
    a_vals = h2.eval_circle_grid(a, criteria.DEFAULT_LADDER[-1], grid)[:, 0, 0]
    m = np.sqrt(np.clip(1.0 - linalg.sq_norms(a_vals, axis=()), 0.0, None))
    return h2.vstack_polys(a, h2.outer_from_boundary_modulus(m, grid // 2 - 1).poly)


EX3_1_EXCLUSIONS = [(0.0, "atom"), (np.pi, "jump")]


class TestBoundaryLaddersAgainstPerRung:
    """Every ladder of the stacked check, one circle pass for all rungs,
    is the per-rung node mean of the kept nodes within 1e-13."""

    def assert_matches(self, w, ladder, grid, exclusions=()):
        rep = criteria.boundary_measure_check(w, ladder=ladder, grid=grid, exclusions=exclusions)
        mass, dev, remainder = per_rung_ladders(w, ladder, grid, exclusions)
        for got, want in ((rep.extras["mass_ladder"], mass), (rep.extras["mass_deviation"], dev),
                          (rep.rho_ladder, remainder)):
            assert [r for r, _ in got] == list(ladder)
            np.testing.assert_allclose([v for _, v in got], want, rtol=1e-13, atol=1e-13)

    def test_ex3_1(self):
        self.assert_matches(ex3_1_symbol(), criteria.DEFAULT_LADDER, 4096, EX3_1_EXCLUSIONS)

    def test_ex3_2(self):
        self.assert_matches(MatPoly.constant([[0.5], [0.5]]), criteria.DEFAULT_LADDER, 4096)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("exclusions", [(), EX3_1_EXCLUSIONS, [(1.0, "atom")]], ids=["none", "atom_jump", "atom"])
    def test_seeded_polynomial_symbols(self, rng, dim, exclusions):
        for degree in (0, 3):
            w = contractive_matpoly(rng, dim + 1, dim, degree, norm=0.9, probe_grid=64)
            self.assert_matches(w, (0.5, 0.9, 0.99, 0.999), 512, exclusions)

    def test_a_one_rung_ladder(self, rng):
        w = contractive_matpoly(rng, 3, 2, 4, norm=0.9, probe_grid=64)
        self.assert_matches(w, (0.99,), 256, EX3_1_EXCLUSIONS)
        self.assert_matches(ex3_1_symbol(), (0.999,), 4096, EX3_1_EXCLUSIONS)


class TestLiftingIsometry:
    def test_shift_with_isometric_parameter_passes(self, rng):
        p = shift_problem(rng, mult=1, degree=10)
        ld = clt.build_omega(p)
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        rep = lifting_check(ld, MatPoly.constant(r0), grid=256)
        assert rep.verdict == "pass"
        assert rep.extras["defect_chain_residual"] <= 1e-10

    def test_zero_parameter_fails_on_nontrivial_kernel(self, rng):
        p = shift_problem(rng, mult=1, degree=8)
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim >= 1
        rep = lifting_check(ld, grid=256)
        assert rep.verdict == "fail"
        assert rep.rho_ladder[-1][1] > 1e-3

    def test_trivial_kernel_decided_by_taylor(self, rng):
        u = random_unitary(rng, 2)
        p = clt.build_problem(u, 0.5 * random_unitary(rng, 2), np.zeros((2, 2)))
        ld = clt.build_omega(p)
        assert ld.ker_omega.dim == 0
        rep = lifting_check(ld, grid=128)
        assert all(v == 0 for _, v in rep.rho_ladder)
        assert "vacuous" in rep.notes
        # A = ΠW = coupling bottom block is unitary here: flat trace, fail
        assert rep.verdict == "fail"


# the trace oracle reads per-term coefficients this far; only a flat
# trace, squared to the cap, goes beyond
PER_TERM_ORACLE = 4096


def trace_oracle(a: MatPoly, indices: list) -> tuple:
    """The Frobenius norm of the state (J_n, ..., J_(n-p)), J_n the
    coefficients of (I - z A)^(-1), p = deg A and J_(-k) = 0, at each
    index, and the bound a trace must meet there: from the coefficients
    of neumann_inverse within 1e-12 through PER_TERM_ORACLE; beyond it,
    for a constant A, from V diag(lambda^n) V^(-1) within n * 1e-15,
    since each of the log2 n squarings doubles the relative rounding
    error of A^n, and so does each power of lambda."""
    near = [n for n in indices if n <= PER_TERM_ORACLE]
    j = h2.neumann_inverse(a, near[-1]).coeffs
    sq = np.sum(np.abs(np.concatenate([np.zeros((a.degree,) + j.shape[1:]), j])) ** 2, axis=(1, 2))
    want = [np.sqrt(np.sum(sq[n : n + a.degree + 1])) for n in near]
    bound = [1e-12] * len(near)
    far = indices[len(near):]
    if far:
        assert a.degree == 0, "beyond PER_TERM_ORACLE the oracle diagonalizes a constant A"
        lam, v = np.linalg.eig(a.coeffs[0])
        vinv = np.linalg.inv(v)
        want += [np.linalg.norm(v @ (lam[:, None] ** n * vinv)) for n in far]
        bound += [n * 1e-15 for n in far]
    return np.array(want), np.array(bound)


def einsum_oracle(ld, r, w, ladder, grid):
    """The parameter defect ladder and the defect chain residual of
    lifting_isometry_check, with every product written as an einsum and
    every resolvent solved node by node: each rung is the largest
    eigenvalue of the circle mean of u*u - (R u)*(R u), u = K* (I - z
    A(z))^(-1).  The chain residual is the
    larger spectral norm of the two identities L_W*L_W = E*Omega*Omega E
    + L_RK*L_RK and I = Omega*Omega + K K*, E = [I 0 ... 0] and L_W and
    L_RK the coefficients of W and R K* side by side, of which the node
    forms are the quadratic forms in the state of d."""
    r_prime = ld.basis_tprime.dim
    kker, omega = ld.ker_omega.columns, ld.omega_bar

    def grams(v):
        return np.einsum("nji,njk->nik", v.conj(), v)

    ladder_values = []
    for rho in ladder:
        z = h2.circle_nodes(rho, grid)
        w_vals = np.stack([w(zk) for zk in z])
        r_vals = np.stack([r(zk) for zk in z])
        eye = np.eye(w.in_dim)
        d = np.stack([np.linalg.solve(eye - zk * wk[r_prime:], eye) for zk, wk in zip(z, w_vals)])
        u = np.einsum("ji,njm->nim", kker.conj(), d)
        term = grams(u) - grams(np.einsum("nij,njm->nim", r_vals, u))
        ladder_values.append(float(np.max(np.linalg.eigvalsh(np.mean(term, axis=0)), initial=0.0)))
    e = np.hstack([np.eye(w.in_dim)] + [np.zeros((w.in_dim, w.in_dim))] * w.degree)
    lw = np.hstack(list(w.coeffs))
    lrk = np.hstack([np.einsum("ij,kj->ik", rj, kker.conj()) for rj in r.coeffs])
    gram = np.einsum("ji,jk->ik", omega.conj(), omega)
    identities = (np.einsum("ji,jk->ik", lw.conj(), lw) - np.einsum("ji,jk,kl->il", e, gram, e)
                  - np.einsum("ji,jk->ik", lrk.conj(), lrk),
                  np.eye(w.in_dim) - gram - np.einsum("ij,kj->ik", kker, kker.conj()))
    residual = max(float(np.linalg.norm(h, 2)) for h in identities)
    return ladder_values, residual


def assert_matches_the_oracle(ld, r, w, ladder, grid):
    rep = lifting_with(ld, r, w, ladder=ladder, grid=grid)
    want_ladder, want_residual = einsum_oracle(ld, r, w, ladder, grid)
    assert np.max(np.abs(np.array([v for _, v in rep.rho_ladder]) - want_ladder)) <= 1e-12
    assert abs(rep.extras["defect_chain_residual"] - want_residual) <= 1e-12
    indices = [n for n, _ in rep.taylor_trace]
    a = MatPoly(w.coeffs[:, ld.basis_tprime.dim :])
    want_taylor, bound = trace_oracle(a, indices)
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
        rep = assert_matches_the_oracle(ld, r, clt.assemble_schur_W(ld, r), (0.9, 0.99), 128)
        assert "degree" not in rep.tolerances

    # name: (problem, free parameter, ladder, grid); W is constant, of
    # degree 0, in every case
    CONSTANT_CASES = {
        # A is unitary: the flat trace squares to the cap
        "trivial_kernel": ("trivial", "zero", (0.9, 0.99), 128),
        "degree0_zero_parameter": ("shift", "zero", (0.9, 0.99), 256),
        "degree0_coarse_grid": ("shift", "isometric", (0.9, 0.99), 32),
        "rung_at_0.9999": ("shift", "isometric", (0.9, 0.9999), 128),
        "zero_at_0.9999": ("shift", "zero", (0.99, 0.9999), 64),
        # 255 = 2^8 - 1: the Stein sums combine all eight binary digits,
        # on the three rungs of the default ladder
        "doubling_every_digit": ("shift", "zero", criteria.DEFAULT_LADDER, 255),
        # 100 = 64 + 32 + 4: the Stein sums combine three binary digits
        "grid_off_block": ("shift", "isometric", (0.9, 0.99), 100),
    }

    @pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
    def test_constant_symbol_matches_the_einsum_oracle(self, rng, name):
        kind, parameter, ladder, grid = self.CONSTANT_CASES[name]
        p = trivial_kernel_problem(rng) if kind == "trivial" else shift_problem(rng, mult=2, degree=6)
        ld = clt.build_omega(p)
        assert (ld.ker_omega.dim == 0) == (kind == "trivial")
        shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
        r = MatPoly.constant(random_isometry(rng, *shape)) if parameter == "isometric" else MatPoly.zero(*shape)
        w = clt.assemble_schur_W(ld, r)
        assert w.degree == 0
        rep = assert_matches_the_oracle(ld, r, w, ladder, grid)
        indices = [n for n, _ in rep.taylor_trace]
        assert indices == [0] + [1 << k for k in range(len(indices) - 1)]
        assert rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS
        decided = criteria.taylor_verdict(rep.taylor_trace, criteria.TOL_TAYLOR) == "pass"
        assert decided != (indices[-1] == 2**criteria.TAYLOR_SQUARINGS)
        assert decided == (kind != "trivial")

    # name: (mult, parameter degree, its sup norm, ladder, grid): a
    # polynomial W is checked through its companion state, like a constant
    POLYNOMIAL_CASES = {
        "degree1_mult1": (1, 1, 0.9, (0.9, 0.99), 128),
        "degree2_near_circle": (2, 2, 0.99, (0.9, 0.9999), 256),
        # 100 = 64 + 32 + 4: the Stein sums combine three binary digits
        "degree3_off_block": (2, 3, 0.9, (0.9, 0.99), 100),
    }

    @pytest.mark.parametrize("name", sorted(POLYNOMIAL_CASES))
    def test_polynomial_symbol_oracle(self, rng, name):
        mult, r_degree, norm, ladder, grid = self.POLYNOMIAL_CASES[name]
        p = shift_problem(rng, mult=mult, degree=6)
        ld = clt.build_omega(p)
        r = contractive_matpoly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, r_degree, norm=norm)
        w = clt.assemble_schur_W(ld, r)
        assert w.degree == r_degree
        rep = assert_matches_the_oracle(ld, r, w, ladder, grid)
        indices = [n for n, _ in rep.taylor_trace]
        assert indices == [0] + [1 << k for k in range(len(indices) - 1)]
        assert criteria.taylor_verdict(rep.taylor_trace, criteria.TOL_TAYLOR) == "pass"
        assert rep.tolerances["degree_cap"] == 2**criteria.TAYLOR_SQUARINGS
        # a strictly contractive parameter leaves a parameter defect
        assert rep.verdict == "fail"


class TestLiftingIsometryPaths:
    """Every isometry check reads Stein sums and squarings of one
    constant state matrix: no node is solved or evaluated and no series
    streamed, whatever the degree of W."""

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

    @pytest.mark.parametrize("parameter", ["zero", "isometric", "degree2"])
    def test_no_lifting_check_samples_the_circle(self, rng, monkeypatch, parameter):
        p = shift_problem(rng, mult=1, degree=6)
        ld = clt.build_omega(p)
        shape = (ld.ker_omega_star.dim, ld.ker_omega.dim)
        r = {"zero": MatPoly.zero(*shape), "isometric": MatPoly.constant(random_isometry(rng, *shape)),
             "degree2": contractive_matpoly(rng, *shape, 2, norm=0.9)}[parameter]
        w = clt.assemble_schur_W(ld, r)
        calls = self.count_calls(monkeypatch)
        lifting_with(ld, r, w, ladder=(0.9, 0.99), grid=128)
        assert calls == []

    @pytest.mark.parametrize("w0", [[[0.5], [0.5]], [[1.0], [0.0]], [[0.5, 0.3], [0.0, -0.4], [0.2, 0.1]]])
    def test_a_constant_radial_check_solves_and_streams_nothing(self, monkeypatch, w0):
        calls = self.count_calls(monkeypatch)
        radial_check(MatPoly.constant(w0), grid=256)
        assert calls == []

    def test_a_polynomial_radial_check_solves_and_streams_nothing(self, rng, monkeypatch):
        w = contractive_matpoly(rng, 3, 2, 3, norm=0.95)
        calls = self.count_calls(monkeypatch)
        radial_check(w, grid=256)
        assert calls == []


def planted_lifting(omega: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """Coupling data whose Omega is the given [B; A], B square, with
    trivial kernels, the empty free parameter and the symbol w (Omega by
    default): the parameter ladder is vacuous and the Taylor trace of A
    decides."""
    dim = omega.shape[1]
    full, empty = linalg.SubspaceBasis.full(dim), linalg.SubspaceBasis.empty(dim)
    ld = clt.LiftingData(np.eye(dim), full, full, omega, empty, linalg.SubspaceBasis.empty(2 * dim))
    w = MatPoly.constant(omega if w is None else w)
    return ld, MatPoly.zero(0, 0), w


@pytest.mark.parametrize("omega_scale, w_scale", [(0.5, 0.5), (1.0, 0.5)])
def test_constant_chain_residual_reads_both_identities(omega_scale, w_scale):
    # W*W = Omega*Omega holds for equal scales, I = Omega*Omega for a unit
    # Omega; the other identity is off by 1 - 0.5^2 in each case
    u = random_isometry(np.random.default_rng(5), 4, 2)
    rep = lifting_with(*planted_lifting(omega_scale * u, w_scale * u), ladder=(0.9,), grid=16)
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
        ld, r, w = planted_lifting(np.vstack([w0[dim:], w0[:dim]]))
        return {
            "radial": radial_check(MatPoly.constant(w0)).verdict,
            "lifting": lifting_with(ld, r, w).verdict,
            "constant_symbol": constant_check(w0).verdict,
            "obstruction": obstruction(ld, np.zeros((0, 0))).verdict,
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


class TestRoutesAgree:
    """Random problems decided by two routes: in finite dimensions the
    resolvent coefficients of a constant A decay exactly when its
    spectral radius is below 1, which is what the eigenvalue searches
    decide, so the Stein-sum ladders with the dyadic trace must agree
    with them."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mult=st.integers(1, 2), degree=st.integers(4, 24))
    def test_lifting_check_agrees_with_obstruction_search(self, seed, mult, degree):
        rng = np.random.default_rng(seed)
        p = shift_problem(rng, mult=mult, degree=degree)
        ld = clt.build_omega(p)
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        w = clt.assemble_schur_W(ld, MatPoly.constant(r0))
        rep = lifting_with(ld, MatPoly.constant(r0), w, ladder=(0.9, 0.99), grid=128)
        ob = obstruction(ld, r0)
        radius = linalg.spectral_radius(w.coeffs[0, ld.basis_tprime.dim :])
        assert rep.verdict == ob.verdict, f"spectral radius {radius!r}: lifting {rep.verdict}, obstruction {ob.verdict}"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), rows=st.integers(0, 3))
    def test_constant_symbol_check_agrees_with_the_radial_check(self, seed, dim, rows):
        w0 = random_isometry(np.random.default_rng(seed), dim + rows, dim)
        cs = constant_check(w0)
        ri = radial_check(MatPoly.constant(w0), grid=256)
        radius = cs.extras["spectral_radius"]
        assert cs.verdict == ri.verdict, f"spectral radius {radius!r}: constant {cs.verdict}, radial {ri.verdict}"

    def test_the_identity_coupling_fails_both_lifting_routes(self):
        # rk3_1's problem: the witness of the obstruction is lambda = 1
        p, ld = identity_obstruction_data()
        r0 = np.zeros((ld.ker_omega_star.dim, ld.ker_omega.dim))
        rep = lifting_check(ld, MatPoly.constant(r0), grid=64)
        assert rep.verdict == obstruction(ld, r0).verdict == "fail"


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
        rep = obstruction(ld, r0)
        assert rep.verdict == "fail"
        lam = complex(*rep.extras["lambda"])
        assert abs(lam - 1.0) <= 1e-9
        assert rep.extras["recursion_residual"] <= 1e-10
        assert rep.extras["norms_nondecreasing"]

    def test_orbit_matches_the_term_by_term_reference(self):
        # a rotation coupling with no kernels: the witness is a unimodular
        # eigenvalue off the real axis, so lam^(-n) is rounded at every n
        phi = 0.7
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]], dtype=complex)
        none = linalg.SubspaceBasis.empty(2)
        ld = clt.LiftingData(np.eye(2), linalg.SubspaceBasis.full(2), none, rot, none, none)
        rep = obstruction(ld, np.zeros((0, 0)))
        _, (lam, h) = linalg.find_non_c0dot_witness(rot.conj().T)
        seq = [h * lam ** (-n) for n in range(criteria.POWER_TERMS + 1)]
        rec = max(np.linalg.norm(rot.conj().T @ seq[n + 1] - seq[n]) for n in range(criteria.POWER_TERMS))
        coupled = max(np.linalg.norm(rot @ rot.conj().T @ seq[n + 1] - rot @ seq[n])
                      for n in range(criteria.POWER_TERMS))
        assert complex(*rep.extras["lambda"]) == lam
        assert rep.extras["recursion_residual"] == pytest.approx(rec, abs=1e-14)
        assert rep.extras["coupled_recursion_residual"] == pytest.approx(coupled, abs=1e-14)
        np.testing.assert_allclose([v for _, v in rep.taylor_trace], [np.linalg.norm(d) for d in seq], rtol=1e-14)

    def test_shift_scenario_is_clean(self, rng):
        p = shift_problem(rng, mult=1, degree=10)
        ld = clt.build_omega(p)
        r0 = random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        rep = obstruction(ld, r0)
        assert rep.verdict == "pass"
        assert rep.extras["spectral_radius"] < 1.0

    def test_rejects_non_isometric_parameter(self, rng):
        p = shift_problem(rng, mult=1, degree=6)
        ld = clt.build_omega(p)
        bad = 0.5 * random_isometry(rng, ld.ker_omega_star.dim, ld.ker_omega.dim)
        with pytest.raises(criteria.NotIsometricR0):
            obstruction(ld, bad)

    def test_rejects_a_parameter_into_no_space(self):
        # C^1 -> C^0 is no isometry, though it has no entries
        full = linalg.SubspaceBasis.full(1)
        ld = clt.LiftingData(np.eye(1), full, full, np.zeros((2, 1)), full, linalg.SubspaceBasis.empty(2))
        with pytest.raises(criteria.NotIsometricR0, match="must be isometric"):
            obstruction(ld, np.zeros((0, 1)))


@pytest.mark.parametrize("shape", [(4,), (3, 4), (3, 2, 5), (3, 0), (2, 3, 0)])
def test_a_stack_of_rungs_reads_the_bits_of_each_rung_alone(rng, shape):
    # oracle: one eigvalsh per matrix, 0 for an empty one; the checks read
    # strided slices of their rung stacks, so one is read here too
    *stack, dim = shape
    g = rng.standard_normal((*stack, 2, dim, dim)) + 1j * rng.standard_normal((*stack, 2, dim, dim))
    grams = (g + linalg.adjoint_batch(g))[..., 0, :, :]
    got = criteria.largest_eigenvalue(grams)
    want = np.array([float(np.linalg.eigvalsh(h)[-1]) if dim else 0.0
                     for h in grams.reshape(math.prod(stack), dim, dim)]).reshape(stack)
    if not stack:
        assert isinstance(got, float)
    assert np.array_equal(got, want)
