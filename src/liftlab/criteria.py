"""Isometry diagnostics with numerical traces and threshold verdicts.

Every check returns a CriterionReport carrying the raw radial ladder
and Taylor-coefficient traces alongside the verdict, because the
underlying statements are limits: a verdict is a reproducible threshold
decision, never an extrapolation.  The rules are

* a radial ladder passes when it decreases monotonically (within
  slack) and its final value is below its threshold; a monotone ladder
  stuck above threshold fails; a non-monotone ladder is inconclusive;
* a Taylor trace passes when it stays below its threshold from the
  half-way index on, fails when the tail has not decayed to within a
  factor 0.1 of the head, and is inconclusive in between; while
  inconclusive it doubles its degree up to TAYLOR_DEGREE_CAP times the
  requested `degree`, recording `degree_used` and `degree_cap`;
* boundary-mass statements compare against the probe norm at the
  largest radius.

Statements quantified over a whole space are probed on the standard
basis plus N_PROBES random unit vectors drawn from PROBE_SEED; both are
recorded in the tolerances.

Each rung of a radial ladder in ``radial_isometry_check`` and
``boundary_measure_check``, and in ``lifting_isometry_check`` for a
polynomial W, is one ``radial_sample``: it solves (I - z A(z)) d =
probe on every node of the rho-circle once, through
``h2.resolvent_apply_grid`` (the only place that evaluates A),
evaluates W once, and returns d with the squared column norms of d, of
W d and of the first rows of W d.  When A is the top block of W, those
rows are A d, so A is never evaluated a second time.  Every product
over the nodes is a batched ``@``, one BLAS gemm per node, and a
constant W, A or free parameter evaluates as a broadcast of its one
coefficient.

A constant W needs no node at all in ``lifting_isometry_check``.  On
the G-point rho-circle z^G = rho^G, and (I - zA) sum_(k<G) z^k A^k =
I - z^G A^G, so with X_k = A^k P (P the probes) and M_rho =
I - rho^G A^G the resolvent is d(z) = sum_(k<G) z^k M_rho^(-1) X_k at
every node, and exact discrete Parseval gives, for every constant L
and probe column c, with w = exp(2 pi i / G),

    mean_j ||L d(rho w^j) c||^2 = sum_(k<G) rho^(2k) ||L M_rho^(-1) X_k c||^2.

The X_k are the orbit terms the Taylor trace streams anyway, so a rung
needs only the (dim ker) x dim matrix U_rho = K* M_rho^(-1) (K the
kernel basis of the coupling) and R U_rho, and the defect chain identity,
which holds for every vector, is checked once on X_0 .. X_(G-1)
rather than on every node of every rung.  ``clt.assemble_schur_W`` holds
||W|| <= 1 + clt.TOL and A is a block of W, so ||rho^G A^G|| <= q =
(rho (1 + TOL))^G and kappa(M_rho) <= (1 + q) / (1 - q): for G >= 1
never worse than the same bound on the I - zA systems it replaces.

Every Taylor orbit is read in blocks: ``resolvent_orbit`` hands out the
X_n in blocks of h2.TERM_BLOCK = C consecutive terms, each a (dim, C, m)
array that reshapes to one matrix C * m columns wide, with the W X_n
of the same terms.  The lifting check streams W = [B; A] itself, whose
A rows are X_(n+1), so ||W X_n||^2 comes with the block, and each of
the U_rho, R, K* and Omega products is one gemm per block.  Squared
norms go through ``linalg.sq_norms``.  A trace or ladder that ends
inside a block leaves the rest of it unread by that statement: the
ladder sums k < G only, the trace keeps what it read for its next
doubling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import h2, linalg
from .clt import Lifting, LiftingData
from .h2 import MatPoly

DEFAULT_LADDER = (0.9, 0.99, 0.999)
TOL_INT = 1e-3
TOL_TAYLOR = 1e-6
TOL_MASS = 1e-2
TOL_REMAINDER = 1e-2
N_PROBES = 4
PROBE_SEED = 1
# a Taylor trace is extended by doubling up to this multiple of its degree
TAYLOR_DEGREE_CAP = 8
LADDER_SLACK = 1e-9  # relative rise a monotone ladder may show between rungs
# terms of the power-norm traces and backward orbits of the constant-symbol
# and obstruction checks
POWER_TERMS = 64


class CriteriaError(ValueError):
    pass


class NotIsometricR0(CriteriaError):
    pass


@dataclass
class CriterionReport:
    criterion_id: str
    verdict: str
    rho_ladder: list = field(default_factory=list)
    taylor_trace: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "criterion_id": self.criterion_id,
            "verdict": self.verdict,
            "rho_ladder": [[float(r), float(v)] for r, v in self.rho_ladder],
            "taylor_trace": [[int(n), float(v)] for n, v in self.taylor_trace],
            "tolerances": self.tolerances,
            "notes": self.notes,
            "extras": self.extras,
        }


def ladder_verdict(values, tol: float) -> str:
    """Final rung below threshold plus monotone decrease is a pass; a
    final rung at or above threshold is a fail (whatever the shape); a
    non-monotone ladder that still ends below threshold is inconclusive."""
    vals = [float(v) for v in values]
    if not vals:
        return "pass"
    if vals[-1] >= tol:
        return "fail"
    mono = all(b <= a + LADDER_SLACK * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))
    return "pass" if mono else "inconclusive"


def taylor_verdict(values, tol: float) -> str:
    vals = [float(v) for v in values]
    if not vals:
        return "pass"
    half = len(vals) // 2
    tail = vals[half:] if vals[half:] else vals[-1:]
    head = vals[:half] if vals[:half] else vals
    if max(tail) < tol:
        return "pass"
    if max(tail) > 0.1 * max(head):
        return "fail"
    return "inconclusive"


def combine_verdicts(*verdicts: str) -> str:
    if any(v == "fail" for v in verdicts):
        return "fail"
    if all(v == "pass" for v in verdicts):
        return "pass"
    return "inconclusive"


def probe_matrix(dim: int) -> np.ndarray:
    """Columns to quantify 'for all d' statements over: the standard
    basis plus N_PROBES random unit vectors drawn from PROBE_SEED."""
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    cols = list(np.eye(dim, dtype=complex).T)
    rng = np.random.default_rng(PROBE_SEED)
    for _ in range(N_PROBES):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def _top_block(w: MatPoly) -> MatPoly:
    """The square block A on top of W = [A; B]."""
    if w.out_dim < w.in_dim:
        raise CriteriaError("symbol needs at least as many rows as columns")
    return w.block_rows(w.in_dim)[0]


@dataclass(frozen=True)
class RadialSample:
    """One rung of a radial ladder: d = (I - z A(z))^(-1) probes on the
    rho-circle, shape (grid, dim, m), and the squared column norms,
    shape (grid, m), of d (dn2), of W d (wn2) and of the first a_rows
    rows of W d (an2)."""

    d: np.ndarray
    dn2: np.ndarray
    wn2: np.ndarray
    an2: np.ndarray


def radial_sample(w: MatPoly, a: MatPoly, probes: np.ndarray, rho: float, grid: int, a_rows: int = 0) -> RadialSample:
    """Solve the resolvent once and evaluate W once on the rho-circle."""
    d = h2.resolvent_apply_grid(a, probes, rho, grid)
    wd = h2.eval_circle_grid(w, rho, grid) @ d
    an2 = linalg.sq_norms(wd[:, :a_rows])
    return RadialSample(d, linalg.sq_norms(d), an2 + linalg.sq_norms(wd[:, a_rows:]), an2)


def _max_norms(dn2: np.ndarray) -> np.ndarray:
    """Largest column norm of each term from the (C, m) squared column
    norms of an orbit block."""
    return np.sqrt(np.max(dn2, axis=1, initial=0.0))


def resolvent_orbit(w: np.ndarray, a_rows: slice, probes: np.ndarray):
    """The endless Taylor coefficients X_0 = probes, X_1, ... of
    (I - z A(z))^(-1) probes, A = W[a_rows], in blocks (x, wx) of
    h2.TERM_BLOCK = C terms: x of shape (dim, C, m) holds the X_n of the
    block, wx of shape (rows, C, m) the W X_n, as ``h2.resolvent_terms``
    streams them.  The A rows of W X_n are X_(n+1), so x is the previous
    block's last X followed by all but the last of these."""
    x_next = probes
    for wx in h2.resolvent_terms(w, a_rows, probes):
        yield np.concatenate([x_next[:, None], wx[a_rows, :-1]], axis=1), wx
        x_next = wx[a_rows, -1]


def taylor_trace(a: MatPoly, probes: np.ndarray, degree: int, tol: float) -> np.ndarray:
    """Largest probe norm of each Taylor coefficient of (I - z A(z))^(-1)
    applied to the probes, through `degree` doubled while the verdict at
    `tol` is inconclusive, up to TAYLOR_DEGREE_CAP * degree."""
    return _extend_trace(resolvent_orbit(a.coeffs, slice(None), probes), np.zeros(0), degree, tol)


def _extend_trace(orbit, trace: np.ndarray, degree: int, tol: float) -> np.ndarray:
    """``taylor_trace`` on a ``resolvent_orbit`` whose first len(trace)
    terms were already read, their largest probe norms being `trace`."""
    target, cap = degree, TAYLOR_DEGREE_CAP * degree
    while True:
        while len(trace) <= target:
            x, _ = next(orbit)
            trace = np.concatenate([trace, _max_norms(linalg.sq_norms(x, axis=0))])
        if target >= cap or taylor_verdict(trace[: target + 1], tol) != "inconclusive":
            return trace[: target + 1]
        target *= 2


def _isometry_tolerances(tol_int: float, tol_taylor: float, taylor_max: np.ndarray, degree: int, grid: int) -> dict:
    return {"tol_int": tol_int, "tol_taylor": tol_taylor, "degree": degree, "degree_used": len(taylor_max) - 1,
            "degree_cap": TAYLOR_DEGREE_CAP * degree, "grid": grid, "n_probes": N_PROBES, "seed": PROBE_SEED}


def included_nodes(grid: int, rho: float, exclusions=()) -> np.ndarray:
    """Boolean mask of grid nodes kept for boundary a.e. statements.

    Each exclusion is (theta, kind): declared jump discontinuities are
    cut within one grid spacing; singular atoms within the wider
    max(spacing, 2*sqrt(1-rho)) because their radial bumps carry heavy
    tails at scale sqrt(1-rho).
    """
    theta = 2.0 * np.pi * np.arange(grid) / grid
    mask = np.ones(grid, dtype=bool)
    spacing = 2.0 * np.pi / grid
    for point, kind in exclusions:
        width = spacing if kind == "jump" else max(spacing, 2.0 * np.sqrt(max(1.0 - rho, 0.0)))
        delta = np.abs((theta - float(point) + np.pi) % (2.0 * np.pi) - np.pi)
        mask &= delta > width
    return mask


def radial_isometry_check(
    w: MatPoly,
    degree: int = h2.DEFAULT_DEGREE,
    ladder=DEFAULT_LADDER,
    grid: int = h2.DEFAULT_GRID,
    tol_int: float = TOL_INT,
    tol_taylor: float = TOL_TAYLOR,
) -> CriterionReport:
    """Full radial test of whether the Schur-class symbol generates an
    isometric coefficient map.

    Evaluates the defect integral ladder, the weighted resolvent ladder
    and its defect-of-A twin (two equivalent formulations), and the
    Taylor decay of the resolvent coefficients.  Pass requires the
    defect ladder to sink below tol_int and the Taylor trace below
    tol_taylor by the half-way degree.
    """
    a = _top_block(w)
    probes = probe_matrix(a.in_dim)
    nd2 = linalg.sq_norms(probes)
    defect_ladder, weighted_ladder, a_defect_dev = [], [], []
    for rho in ladder:
        s = radial_sample(w, a, probes, rho, grid, a.out_dim)
        defect_ladder.append(float(np.max(np.mean(s.dn2 - s.wn2, axis=0))))
        weighted_ladder.append(float((1.0 - rho) * np.max(np.mean(s.dn2, axis=0))))
        a_def = np.mean(s.dn2 - s.an2, axis=0)
        a_defect_dev.append(float(np.max(np.abs(a_def - nd2))))
    taylor_max = taylor_trace(a, probes, degree, tol_taylor)
    v_ladder = ladder_verdict(defect_ladder, tol_int)
    v_taylor = taylor_verdict(taylor_max, tol_taylor)
    verdict = combine_verdicts(v_ladder, v_taylor)
    return CriterionReport(
        criterion_id="radial_isometry",
        verdict=verdict,
        rho_ladder=list(zip(ladder, defect_ladder)),
        taylor_trace=list(enumerate(taylor_max)),
        tolerances=_isometry_tolerances(tol_int, tol_taylor, taylor_max, degree, grid),
        notes=f"defect ladder: {v_ladder}; taylor decay: {v_taylor}",
        extras={
            # the weighted resolvent ladder has an intrinsic (1-rho)||d||^2
            # floor, so it is judged at the coarser mass threshold, like
            # its equivalent defect-of-A deviation form
            "weighted_ladder": list(zip(ladder, weighted_ladder)),
            "a_defect_deviation": list(zip(ladder, a_defect_dev)),
            "weighted_verdict": ladder_verdict(weighted_ladder, TOL_MASS),
            "a_defect_verdict": "pass" if a_defect_dev[-1] < TOL_MASS else "fail",
        },
    )


def constant_symbol_check(w0) -> CriterionReport:
    """Constant-symbol special case: pass iff the block column is an
    isometry and its square top block has spectral radius below one,
    both within CLASSIFY_TOL."""
    tol = linalg.CLASSIFY_TOL
    m = linalg.as_matrix(w0)
    a0 = m[: m.shape[1], :]
    classes = linalg.classify(m, tol)
    rho_a = linalg.spectral_radius(a0)
    iso = "isometry" in classes
    stable = rho_a < 1.0 - tol
    powers = []
    p = np.eye(a0.shape[0], dtype=complex)
    for n in range(POWER_TERMS):
        powers.append((n, float(np.linalg.norm(p, 2))))
        p = p @ a0
    parts = []
    if not iso:
        parts.append("symbol is not an isometry")
    if not stable:
        parts.append(f"top block has spectral radius {rho_a:.6g}")
    return CriterionReport(
        criterion_id="constant_symbol",
        verdict="pass" if iso and stable else "fail",
        taylor_trace=powers,
        tolerances={"tol": tol},
        notes="; ".join(parts),
        extras={"spectral_radius": rho_a, "isometry": iso},
    )


def boundary_measure_check(
    w: MatPoly,
    ladder=DEFAULT_LADDER,
    grid: int = h2.DEFAULT_GRID,
    exclusions=(),
) -> CriterionReport:
    """Boundary-measure test: absolute continuity via the recovered
    boundary mass, plus vanishing of the radial remainder.

    The mass ladder averages the defect-of-A integrand over included
    nodes (its radial limit recovers the absolutely continuous part of
    the representing measure; a deficit against ||d||^2 is escaped
    singular mass).  The remainder k combines the resolvent growth and
    symbol defect and must sink to zero for an isometry; its values
    carry an intrinsic O(1-rho) floor, hence the looser threshold.
    """
    a = _top_block(w)
    probes = probe_matrix(a.in_dim)
    nd2 = linalg.sq_norms(probes)
    mass_ladder, mass_dev, k_ladder = [], [], []
    for rho in ladder:
        mask = included_nodes(grid, rho, exclusions)
        s = radial_sample(w, a, probes, rho, grid, a.out_dim)
        mass = np.mean((s.dn2 - s.an2)[mask], axis=0)
        k_vals = ((1.0 - rho**2) / rho**2) * s.dn2 + (s.dn2 - s.wn2) / rho**2
        mass_ladder.append(float(np.max(mass)))
        mass_dev.append(float(np.max(np.abs(mass - nd2))))
        k_ladder.append(float(np.max(np.mean(k_vals[mask], axis=0))))
    v_mass = "pass" if mass_dev[-1] <= TOL_MASS else "fail"
    v_k = ladder_verdict(k_ladder, TOL_REMAINDER)
    verdict = combine_verdicts(v_mass, v_k)
    return CriterionReport(
        criterion_id="boundary_measure",
        verdict=verdict,
        rho_ladder=list(zip(ladder, k_ladder)),
        tolerances={
            "tol_mass": TOL_MASS,
            "tol_remainder": TOL_REMAINDER,
            "grid": grid,
            "n_probes": N_PROBES,
            "seed": PROBE_SEED,
        },
        notes=f"boundary mass: {v_mass} (deviation {mass_dev[-1]:.3e}); remainder: {v_k}",
        extras={
            "mass_ladder": list(zip(ladder, mass_ladder)),
            "mass_deviation": list(zip(ladder, mass_dev)),
            "mass_verdict": v_mass,
            "remainder_verdict": v_k,
        },
    )


def _defect_chain(ld: LiftingData, d: np.ndarray, dn2: np.ndarray, wn2: np.ndarray, r: np.ndarray):
    """The parameter defect ||K* d||^2 - ||R K* d||^2 of each column of
    d, a (dim, count) matrix or a (count, dim, m) stack, and the worst
    gap between the three forms ||d||^2 - ||W d||^2 = ||d||^2 -
    ||Omega d||^2 - ||R K* d||^2 = that defect, given dn2 = ||d||^2 and
    wn2 = ||W d||^2; r is R or its values on the nodes."""
    u_vals = ld.ker_omega.columns.conj().T @ d
    r_vals = r @ u_vals
    term = linalg.sq_norms(u_vals) - linalg.sq_norms(r_vals)
    e1 = dn2 - wn2
    e2 = dn2 - linalg.sq_norms(ld.omega_bar @ d) - linalg.sq_norms(r_vals)
    worst = max(float(np.max(np.abs(e1 - e2))), float(np.max(np.abs(e2 - term)))) if e1.size else 0.0
    return term, worst


def _sampled_lifting_ladder(lifting: Lifting, a: MatPoly, probes: np.ndarray, ladder, grid: int):
    """Parameter defect ladder and chain residual of a polynomial W, one
    ``radial_sample`` per rung and the residual over every node."""
    defect_ladder, chain_residual = [], 0.0
    for rho in ladder:
        s = radial_sample(lifting.w, a, probes, rho, grid)
        r_vals = h2.eval_circle_grid(lifting.free_parameter, rho, grid)
        term, worst = _defect_chain(lifting.data, s.d, s.dn2, s.wn2, r_vals)
        defect_ladder.append(float(np.max(np.mean(term, axis=0))) if term.size else 0.0)
        chain_residual = max(chain_residual, worst)
        # free this rung's grid-sized blocks before the next rung's solve
        del s, term
    return defect_ladder, chain_residual


def _orbit_lifting_ladder(lifting: Lifting, probes: np.ndarray, orbit, ladder, grid: int):
    """Parameter defect ladder and chain residual of a constant W from
    the orbit terms X_0 .. X_(grid-1) by discrete Parseval (module
    docstring), read from the blocks of a ``resolvent_orbit`` of W
    itself; also returns the largest probe norms of every term read,
    the head of the Taylor trace.  A block is one matrix C * m columns
    wide, so each product is one gemm per block, and ||W X_n||^2 is read
    off the block the stream yields."""
    ld, r0 = lifting.data, lifting.free_parameter.coeffs[0]
    dim, m = probes.shape
    a_grid = np.linalg.matrix_power(lifting.w.coeffs[0][ld.basis_tprime.dim :], grid)
    u_rho = []  # U_rho = K* M_rho^(-1), solved as M_rho* U_rho* = K
    for rho in ladder:
        m_rho = np.eye(dim) - h2.check_radius(rho) ** grid * a_grid
        u_rho.append(np.linalg.solve(m_rho.conj().T, ld.ker_omega.columns).conj().T)
    sums, trace, chain_residual = np.zeros((len(ladder), m)), [], 0.0
    for start in range(0, grid, h2.TERM_BLOCK):
        x, wx = next(orbit)
        dn2 = linalg.sq_norms(x, axis=0)
        trace.append(_max_norms(dn2))
        used = min(x.shape[1], grid - start)  # the last block may run past the grid
        x = x[:, :used].reshape(dim, used * m)
        n = np.arange(start, start + used)
        for i, (rho, u) in enumerate(zip(ladder, u_rho)):
            v = u @ x
            sums[i] += rho ** (2 * n) @ (linalg.sq_norms(v) - linalg.sq_norms(r0 @ v)).reshape(used, m)
        wn2 = linalg.sq_norms(wx[:, :used].reshape(len(wx), used * m))
        _, worst = _defect_chain(ld, x, dn2[:used].reshape(used * m), wn2, r0)
        chain_residual = max(chain_residual, worst)
    return [float(np.max(v)) if v.size else 0.0 for v in sums], chain_residual, np.concatenate(trace)


def lifting_isometry_check(
    lifting: Lifting,
    ladder=DEFAULT_LADDER,
    grid: int = h2.DEFAULT_GRID,
    tol_int: float = TOL_INT,
    tol_taylor: float = TOL_TAYLOR,
) -> CriterionReport:
    """Isometry test for the lifting generated by a free parameter.

    Reads the coupling data, the free parameter, the assembled Schur
    symbol and the truncation degree from the lifting, then checks the
    free-parameter defect integral over the kernel component of the
    resolvent (vacuous for a trivial kernel) and the Taylor decay of
    the resolvent coefficients.  The three equivalent forms of the
    pointwise defect identity are cross-checked and the worst residual
    reported as `defect_chain_residual`.

    A constant W (``w.degree == 0``) solves nothing node by node: each
    rung is a weighted sum over the orbit terms X_k = A^k probes, k <
    grid, that the Taylor trace streams anyway, through the
    (dim ker) x dim matrix K* (I - rho^G A^G)^(-1); the chain residual is taken on
    those X_k.  A polynomial W samples every node of every rung
    through ``radial_sample`` and takes the residual there.  The module
    docstring gives the identity and the conditioning.
    """
    ld, degree = lifting.data, lifting.minimal.degree
    _, a = lifting.w.block_rows(ld.basis_tprime.dim)
    probes = probe_matrix(ld.defect_dim)
    orbit = resolvent_orbit(lifting.w.coeffs, slice(ld.basis_tprime.dim, None), probes)
    if lifting.w.degree == 0:
        defect_ladder, chain_residual, trace = _orbit_lifting_ladder(lifting, probes, orbit, ladder, grid)
    else:
        defect_ladder, chain_residual = _sampled_lifting_ladder(lifting, a, probes, ladder, grid)
        trace = np.zeros(0)
    taylor_max = _extend_trace(orbit, trace, degree, tol_taylor)
    v_ladder = ladder_verdict(defect_ladder, tol_int)
    v_taylor = taylor_verdict(taylor_max, tol_taylor)
    notes = f"parameter defect ladder: {v_ladder}; taylor decay: {v_taylor}"
    if ld.ker_omega.dim == 0:
        notes += "; kernel is trivial, the ladder condition is vacuous"
    return CriterionReport(
        criterion_id="lifting_isometry",
        verdict=combine_verdicts(v_ladder, v_taylor),
        rho_ladder=list(zip(ladder, defect_ladder)),
        taylor_trace=list(enumerate(taylor_max)),
        tolerances=_isometry_tolerances(tol_int, tol_taylor, taylor_max, degree, grid),
        notes=notes,
        extras={"defect_chain_residual": chain_residual},
    )


def obstruction_search(ld: LiftingData, r0) -> CriterionReport:
    """Search for a bounded backward orbit obstructing isometric lifting.

    For a constant isometric parameter, the adjoint of the assembled
    symbol's top block admits a bounded nonzero backward orbit exactly
    when it has a unimodular eigenvalue; such an orbit rules out an
    isometric lifting, so a found witness is a fail verdict and an
    empty search is a pass.  Eigenvalues count as unimodular within
    CLASSIFY_TOL, and orbits are traced for POWER_TERMS steps.
    """
    tol, n_max = linalg.CLASSIFY_TOL, POWER_TERMS
    r0 = linalg.as_matrix(r0)
    if r0.size and "isometry" not in linalg.classify(r0, 1e-8):
        raise NotIsometricR0("the constant free parameter must be isometric")
    if (r0.shape[0], r0.shape[1]) != (ld.ker_omega_star.dim, ld.ker_omega.dim):
        raise NotIsometricR0("free parameter does not match the kernel shapes")
    w0 = ld.omega_bar + ld.ker_omega_star.columns @ r0 @ ld.ker_omega.columns.conj().T
    r_prime = ld.basis_tprime.dim
    v = w0[r_prime:].conj().T
    witness = linalg.find_non_c0dot_witness(v, tol)
    if witness is None:
        trace = []
        p = np.eye(v.shape[0], dtype=complex)
        for n in range(n_max):
            trace.append((n, float(np.linalg.norm(p, 2))))
            p = v @ p
        return CriterionReport(
            criterion_id="obstruction",
            verdict="pass",
            taylor_trace=trace,
            tolerances={"tol": tol, "n_max": n_max},
            notes="no unimodular eigenvalue: every bounded backward orbit is trivial",
            extras={"spectral_radius": linalg.spectral_radius(v)},
        )
    lam, h = witness
    seq = [h * lam ** (-n) for n in range(n_max + 1)]
    rec = max(
        float(np.linalg.norm(v @ seq[n + 1] - seq[n]))
        for n in range(n_max)
    )
    coupled = max(
        float(
            np.linalg.norm(
                ld.omega_bar @ ld.omega_bar[r_prime:].conj().T @ seq[n + 1]
                - ld.omega_bar @ seq[n]
            )
        )
        for n in range(n_max)
    )
    norms = [float(np.linalg.norm(d)) for d in seq]
    monotone = all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    return CriterionReport(
        criterion_id="obstruction",
        verdict="fail",
        taylor_trace=list(enumerate(norms)),
        tolerances={"tol": tol, "n_max": n_max},
        notes=(
            f"unimodular eigenvalue {lam:.12g} gives a bounded nonzero backward orbit; "
            "no isometric lifting for this parameter"
        ),
        extras={
            "lambda": [lam.real, lam.imag],
            "recursion_residual": rec,
            "coupled_recursion_residual": coupled,
            "norms_nondecreasing": monotone,
        },
    )
