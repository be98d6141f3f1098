"""Each isometry check decides its statement for every unit d of its
space, not for a sample of it.

For unit vectors d drawn by hypothesis, the circle mean of d's
integrand, solved node by node, must not exceed the reported rung, and
the state ||M^n [d; 0]||, read off the Neumann coefficients, must not
exceed the trace entry at n, within rounding.  Sampling d on the
standard basis plus a few random vectors gives only a lower bound,
which a drawn d can beat.
"""

import functools
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import clt, criteria, h2
from liftlab.h2 import MatPoly

from conftest import contractive_matpoly, random_contraction

LADDER, GRID = (0.9, 0.99), 128


def mean_sq(x: np.ndarray) -> float:
    """The node mean of ||x||^2 for values of shape (grid, dim)."""
    return float(np.mean(np.sum(np.abs(x) ** 2, axis=1)))


def states(a: MatPoly, last: int) -> np.ndarray:
    """(J_n, ..., J_(n-p)) stacked for n = 0 .. last, J_n the
    coefficients of (I - z A)^(-1), p = deg A and J_(-k) = 0."""
    j = h2.neumann_inverse(a, last).coeffs
    padded = np.concatenate([np.zeros((a.degree,) + j.shape[1:]), j])
    return np.stack([padded[n : n + a.degree + 1] for n in range(last + 1)])


@functools.cache
def fixture() -> SimpleNamespace:
    """A polynomial symbol W = [A; B] and a lifting with a polynomial,
    strictly contractive free parameter, with their reports."""
    rng = np.random.default_rng(3)
    w = contractive_matpoly(rng, 5, 3, 1, norm=0.9)
    a = w.block_rows(3)[0]
    t_prime = random_contraction(rng, 2, 2, norm=0.8)
    problem = clt.shift_intertwining_problem(rng, 1, 2, t_prime, x_norm=0.85)
    ld = clt.build_omega(problem)
    r = contractive_matpoly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, 1, norm=0.9)
    w_lift = clt.assemble_schur_W(ld, r)
    a_lift = MatPoly(w_lift.coeffs[:, ld.basis_tprime.dim :])
    radial = criteria.radial_isometry_check(criteria.companion(w, grid=GRID), ladder=LADDER, grid=GRID)
    lift_rep = criteria.lifting_isometry_check(ld, r, criteria.companion(w_lift, ld.basis_tprime.dim, grid=GRID),
                                               ladder=LADDER, grid=GRID)
    return SimpleNamespace(
        w=w, a=a, radial=radial, radial_states=states(a, radial.taylor_trace[-1][0]),
        boundary=criteria.boundary_measure_check(w, ladder=LADDER, grid=GRID),
        kker=ld.ker_omega.columns, r=r, a_lift=a_lift, lifting=lift_rep,
        lifting_states=states(a_lift, lift_rep.taylor_trace[-1][0]),
    )


def unit_vector(data, dim: int) -> np.ndarray:
    parts = data.draw(st.lists(st.floats(-1, 1), min_size=2 * dim, max_size=2 * dim))
    v = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.eye(dim)[0]


def assert_trace_bounds_the_state(trace: list, stacked: np.ndarray, d: np.ndarray):
    for n, value in trace:
        state = float(np.linalg.norm(stacked[n] @ d))
        assert state <= value + 1e-12, f"||M^{n} [d; 0]|| = {state!r} above the trace entry {value!r}"


class TestEveryUnitVector:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_radial_and_boundary_rungs_bound_every_unit_vector(self, data):
        fx = fixture()
        d = unit_vector(data, fx.w.in_dim)
        mass = fx.boundary.extras["mass_ladder"]
        deviation = fx.boundary.extras["mass_deviation"]
        for i, rho in enumerate(LADDER):
            dv = h2.resolvent_apply_grid(fx.a, d, rho, GRID)
            wv = np.einsum("nij,nj->ni", h2.eval_circle_grid(fx.w, rho, GRID), dv)
            dn2, an2, wn2 = mean_sq(dv), mean_sq(wv[:, : fx.a.out_dim]), mean_sq(wv)
            slack = 1e-12 * dn2
            assert dn2 - wn2 <= fx.radial.rho_ladder[i][1] + slack, f"defect rung at rho {rho}"
            assert dn2 - an2 <= mass[i][1] + slack, f"mass rung at rho {rho}"
            assert abs(dn2 - an2 - 1.0) <= deviation[i][1] + slack, f"mass deviation at rho {rho}"
        assert_trace_bounds_the_state(fx.radial.taylor_trace, fx.radial_states, d)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_lifting_rungs_bound_every_unit_vector(self, data):
        fx = fixture()
        d = unit_vector(data, fx.a_lift.in_dim)
        for i, rho in enumerate(LADDER):
            dv = h2.resolvent_apply_grid(fx.a_lift, d, rho, GRID)
            u = dv @ fx.kker.conj()
            ru = np.einsum("nij,nj->ni", h2.eval_circle_grid(fx.r, rho, GRID), u)
            value = mean_sq(u) - mean_sq(ru)
            assert value <= fx.lifting.rho_ladder[i][1] + 1e-12 * mean_sq(dv), f"parameter rung at rho {rho}"
        assert_trace_bounds_the_state(fx.lifting.taylor_trace, fx.lifting_states, d)
