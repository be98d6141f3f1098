"""Isometry diagnostics with numerical traces and threshold verdicts.

Every check returns a CriterionReport carrying the raw radial ladder
and Taylor-coefficient traces alongside the verdict, because the
underlying statements are limits: a verdict is a reproducible threshold
decision, never an extrapolation.  The rules are

* a radial ladder passes when it decreases monotonically (within
  slack) and its final value is below its threshold; a monotone ladder
  stuck above threshold fails; a non-monotone ladder is inconclusive;
* a Taylor trace is a list of (n, value) pairs, n increasing; its tail
  is the entries with 2n >= n_last and its head the rest.  It passes
  when the tail stays below its threshold, fails when the tail has not
  decayed to within a factor 0.1 of the head, and is inconclusive in
  between; on n = 0 .. D the tail starts at the half-way index;
* boundary-mass statements compare the recovered mass against ||d||^2
  at the largest radius.

Statements quantified over every d of a defect space are decided over
the whole space, and no check draws a random number.  Each rung is a
Hermitian form d* G d in d, so its supremum over unit d is the largest
eigenvalue of the dim x dim Gram matrix G, and the supremum of a
deviation |d* G d - ||d||^2| is ||G - I||.

Every isometry check reads one constant state matrix.  ``h2.realize``
turns A(z) = sum_(j<=p) A_j z^j into its companion M, of size
dim (p + 1), first block row [A_0 ... A_p] and identities below it.
The state s_n = (Z_n, ..., Z_(n-p)) of the coefficients Z_n of
(I - z A(z))^(-1) d advances as s_(n+1) = M s_n from s_0 = E* d, E* =
[I; 0], so block k of s(z) = (I - zM)^(-1) s_0 is z^k (I - z A(z))^(-1)
d, and Q(z) (I - z A(z))^(-1) d is s(z) times the constant row
``h2.state_rows(Q)`` = [Q_0 ... Q_p].  A constant A is its own companion.

On the G-point rho-circle z^G = rho^G, and (I - zM) sum_(k<G) z^k M^k
= I - z^G M^G, so with M_rho = I - (rho M)^G, which commutes with M,
s(z) = sum_(k<G) z^k M^k V d at every node, V = M_rho^(-1) E*.  Exact
discrete Parseval gives, for every constant row L with N = L*L and
w = exp(2 pi i / G),

    mean_j ||L s(rho w^j)||^2 = sum_(k<G) rho^(2k) ||L M^k V d||^2 = d* V* S V d,

S = sum_(k<G) (b^k)* N b^k, b = rho M, the Stein sum that
``linalg.stein_sum`` doubles in at most log2 G steps, with b^G for
M_rho; it stops doubling where the rest of the sum is below rounding
(its settle rule), and still multiplies b^G off the ladder, so V is
that of G terms.  V settles at rounding too: when ||b^G||_F <= eps/4
on every rung, ||V - E*|| <= ||b^G|| / (1 - ||b^G||) <= eps/3, so V is
taken as E* and the means are the top-left blocks of S, with no solve.
No node is solved, and the rung is the largest eigenvalue of V* S V,
one eigvalsh for the whole stack of rungs.  As b^(2^j) = rho^(2^j)
M^(2^j), one ladder of powers of M (``linalg.power_ladder``) serves
every rung, and the rungs are summed at once.  One companion serves
every check of a symbol, not only every rung: ``companion`` builds the
``h2.Companion`` of W, which holds W, A and B, its ladder squared once
through the Taylor trace's cap and the grid.  It is the only symbol
argument of every check of W, of ``hardy_gram``,
``window_gram_extremes`` and ``intertwining_norm``, so none of them
splits W or squares A again, and the last two read one Stein sum of the
companion.  With E = [I 0 ... 0] and L_W, L_A
and L_RK the rows of W, A and R K*, N is E*E - L_W* L_W, E*E and E*E -
L_A* L_A for the radial defect, weighted and defect-of-A ladders, and
E* K K* E - L_RK* L_RK for the lifting parameter defect (K the kernel
basis of the coupling, R the free parameter).  The lifting's defect chain holds for every state, so
it is checked as the identities L_W* L_W = E* Omega* Omega E + L_RK*
L_RK, which holds exactly when (K_*)* Omega = 0 (K_* the kernel basis
of Omega*), and I = Omega*Omega + K K*.

M_rho is well conditioned.  ``clt.assemble_schur_W`` holds ||W|| <= 1 +
clt.TOL on the circle, so A is a contraction and Re(I - zA) >= 0 on
the disc: (I - zA)^(-1) has non-negative real part and value I at 0, so
its Taylor coefficients have norm at most 2.  Any state starts the
coefficients of (I - zA)^(-1) C(z) for a C of degree p with
coefficients bounded by its norm, so ||M^n|| is bounded by a constant
of p alone.  For a constant W, ||b^G|| <= q = (rho (1 + TOL))^G and
kappa(M_rho) <= (1 + q) / (1 - q).  Measured on 60 random liftings
with parameters of degree 1 to 3: sup_n ||M^n|| <= 2.0, and at
rho <= 0.9999, kappa(M_rho) <= 1.0001 for G >= 512, <= 1.10 for G = 64.

The Taylor trace records ||M^n E*||_F at n = 0, 1, 2, 4, ..., read off
the same ladder of powers M^(2^k) that the rungs scale, until the
verdict is a pass or after TAYLOR_SQUARINGS squarings; the ladder stops
at the first power that is exactly zero, and the trace reads zero past
it.  It bounds the state M^n E* d of every unit
d, ||M^n E* d|| <= ||M^n E*|| <= ||M^n E*||_F, so a pass holds over the
whole space; and ||M^n E*||_F <= sqrt(dim) ||M^n E*||, so it decays
with the spectral norm.  It is the Frobenius norm of the first block
column of a power the ladder holds anyway, where the spectral norm
would cost one SVD per entry.  It reads the whole state, not Z_n alone:
A(z) = z has Z_1 = 0 and Z_2 = 1, but a zero state stays zero.  The cap
comes from CLASSIFY_TOL, inside which ``obstruction_search`` and
``constant_symbol_check`` count an eigenvalue as unimodular: for
spectral radius 1 - delta and a normal M, ||M^n|| <= exp(-delta n), and
the tail of a trace ending at the cap starts at n = 2^(cap - 1), so the
least cap with 2^(cap - 1) CLASSIFY_TOL >= ln(1 / TOL_TAYLOR), 35,
passes every delta > CLASSIFY_TOL.  The Frobenius norm adds a factor of
at most sqrt(dim), which the margin 2^34 CLASSIFY_TOL - ln(1 /
TOL_TAYLOR) = 3.36 absorbs up to dim = 800.  Trace and search differ
only where 1 - CLASSIFY_TOL <= rho(A) < 1 - ln(1 / tol_taylor) / 2^34,
1 - 8.0e-10 at the default and dim = 1: there the search finds a
witness and the trace passes.  A non-normal M exceeds exp(-delta n) by
up to its eigenvector condition number, which narrows the band; a
tol_taylor below 3.5e-8 turns it round.  A squaring doubles the
relative rounding error of M^(2^k), to 2^35 * 1.1e-16 = 4e-6 at the
cap: a unimodular eigenvalue's trace stays flat and fails.

Only ``boundary_measure_check`` solves nodes, for the resolvent
(I - z A(z))^(-1) itself: its exclusion masks are not Parseval sums, so
it takes the masked node means of d*d, (Ad)*(Ad) and (Bd)*(Bd).  It
samples the circle once for its whole ladder: ``h2.resolvent_apply_grid``
and ``h2.eval_circle_grid`` take the ladder as a leading rung axis, and
the (rungs, grid) keep-mask comes from one angular-distance array per
exclusion.  Each node is scaled by the root of its share of its rung's
mean, so a mean is one Gram product of the scaled values stacked over
the nodes, with no copy of the kept nodes, and each ladder is one
eigvalsh over the stack of rungs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import h2, linalg
from .clt import CLTProblem, LiftingData
from .h2 import MatPoly

DEFAULT_LADDER = (0.9, 0.99, 0.999)
TOL_INT = 1e-3
TOL_TAYLOR = 1e-6
TOL_MASS = 1e-2
TOL_REMAINDER = 1e-2
# squarings of the dyadic Taylor trace: 35 (module docstring)
TAYLOR_SQUARINGS = 1 + math.ceil(math.log2(math.log(1 / TOL_TAYLOR) / linalg.CLASSIFY_TOL))
LADDER_SLACK = 1e-9  # relative rise a monotone ladder may show between rungs
# terms of the backward orbit traced from an obstruction witness
POWER_TERMS = 64
PARAMETER_ISOMETRY_TOL = 1e-8  # isometry gap a constant free parameter may show


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


def taylor_verdict(trace, tol: float) -> str:
    """Verdict on (n, value) pairs, n increasing: the tail is the entries
    with 2n >= n_last, the head the rest, or the tail if none is left."""
    last = trace[-1][0]
    tail = [float(v) for n, v in trace if 2 * n >= last]
    head = [float(v) for n, v in trace if 2 * n < last] or tail
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


def largest_eigenvalue(gram: np.ndarray):
    """sup of d* G d over unit d for a Hermitian G, a float, or for each
    matrix of a stack, an array, read by one eigvalsh; 0 for an empty G."""
    w = np.linalg.eigvalsh(gram)
    top = w[..., -1] if w.shape[-1] else np.zeros(w.shape[:-1])
    return float(top) if w.ndim == 1 else top


def companion(w: MatPoly, start: int = 0, *, grid: int = 1) -> h2.Companion:
    """The companion of the Schur symbol W whose square block A starts at
    row `start`, with its ladder M, M^2, M^4, ... through the Taylor
    trace's 2^TAYLOR_SQUARINGS, or `grid` when that is larger: enough for
    the Taylor trace, ``hardy_gram`` and the rungs of a check on `grid`
    nodes or fewer.  The only place a companion is built."""
    if not 0 <= start <= w.out_dim - w.in_dim:
        raise CriteriaError(f"the symbol has no square block at row {start}")
    return h2.Companion(w, start, max(grid, 1 << TAYLOR_SQUARINGS))


def _corner(block: np.ndarray, size: int) -> np.ndarray:
    """E* N E for E = [I 0] with `size` columns: the square block N in
    the top-left corner of a zero size x size matrix, with no product."""
    out = np.zeros((size, size), dtype=complex)
    out[: len(block), : len(block)] = block
    return out


def parseval_means(comp: h2.Companion, weights: np.ndarray, ladder, grid: int) -> np.ndarray:
    """The Gram matrices V* S V, V = M_rho^(-1) E* and E* = [I; 0] with
    dim A columns, of the forms d -> mean_j ||L s(rho w^j)||^2, s(z) =
    (I - zM)^(-1) E* d, for each rung and weight N = L*L of an
    (s, size, size) stack: shape (rungs, s, dim, dim).  Every rung is
    summed at once on the companion's ladder, which must reach `grid`.
    When every (rho M)^G has ||(rho M)^G||_F <= eps/4, V is E* within
    eps/3 and the means are the top-left blocks of S, with no solve."""
    radii = [h2.check_radius(rho) for rho in ladder]
    s, top = linalg.stein_sum(comp.prefix(grid), weights, grid, radii)
    size, dim = len(comp.m), comp.a.in_dim
    if np.vdot(top, top).real <= (np.finfo(float).eps / 4) ** 2:
        return s[..., :dim, :dim]
    v = np.linalg.solve(np.eye(size) - top, np.eye(size, dim))
    return linalg.adjoint_batch(v) @ s @ v


def hardy_gram(comp: h2.Companion, cols: np.ndarray) -> tuple[np.ndarray, bool]:
    """C* S_inf C, the Gram matrix of c -> ||L (I - zM)^(-1) C c||^2 in
    H^2, and whether the Stein sum converged.  W = [B; A] is the symbol
    of the companion `comp`, M the companion of A and L =
    ``h2.state_rows(B)``.  `cols` holds the first n rows of the states
    C, whose other rows are zero, and the form reads the top-left n x n
    block of S_inf: for C = E* C' with n = dim A it is the Gram matrix of
    c -> ||B(z) (I - z A(z))^(-1) C' c||^2, since coefficient n of that
    series is L M^n E* C' c.  S_inf = sum_k (M^k)* L*L M^k; the sum is
    doubled towards G = 2^TAYLOR_SQUARINGS terms and stops where it
    settles (``linalg.stein_sum``): at the first power with
    ||M^(2^j)||_F^2 <= eps/4, a zero one at the latest, past which every
    doubling adds less than eps/3 of S.  M^G is still multiplied off the
    ladder.  When ||M^G||_F^2 <= eps the tail (M^G)* S_inf M^G is below
    the rounding of S_inf and the settled sum is the limit; otherwise it
    is a partial sum that decides nothing.  The companion sums S_inf once
    (``h2.Companion.hardy_sum``), however many Gram matrices read it."""
    s, power = comp.hardy_sum(1 << TAYLOR_SQUARINGS)
    converged = bool(np.vdot(power, power).real <= np.finfo(float).eps)
    n = len(cols)
    return cols.conj().T @ s[:n, :n] @ cols, converged


def window_gram_extremes(problem: CLTProblem, ld: LiftingData, comp: h2.Companion) -> tuple[float, float, bool]:
    """The least and largest eigenvalues of the window Gram matrix of the
    untruncated lifting Y = [X; Gamma(.) D_X] of the symbol W = [B; A],
    and whether ``hardy_gram`` converged; Y is not built.  ||Yh||^2 =
    ||Xh||^2 + ||B (I - zA)^(-1) c||^2, c = Q* D_X h, so the matrix is
    X_k* X_k + C* S_inf C, C the window columns of Q* D_X.  An empty
    window reads 0.0 for both, as ``largest_eigenvalue`` does."""
    k = problem.window_dim
    cols = (ld.basis_x.columns.conj().T @ ld.d_x)[:, :k]
    hardy, converged = hardy_gram(comp, cols)
    x = problem.x[:, :k]
    eigs = np.linalg.eigvalsh(x.conj().T @ x + hardy)
    low, top = (eigs[0], eigs[-1]) if k else (0.0, 0.0)
    return float(low), float(top), converged


def intertwining_norm(problem: CLTProblem, ld: LiftingData, comp: h2.Companion) -> float:
    """||U'Y - YT|| on the window for the untruncated lifting Y = [X;
    Gamma(.) D_X] of the symbol W = [B; A] of `comp` into the minimal
    isometric lifting U' of T', read off the residual of the coupling
    identity; neither Y nor U' is built.

    On the window columns let c = Q* D_X, c_T = Q* D_X T, v' = Q'* D_T'
    X and Delta = T'X - XT.  U' sends [h'; f] to [T'h'; Q'* D_T' h' + z
    f], so (U'Y - YT) h = (Delta h, (v' + z Gamma c - Gamma c_T) h).  Let
    e(z) = W(z) c_T - [v'; c] z^0, of degree p = deg W, in rows e_B and
    e_A; it vanishes with the coupling identity W c_T = [v'; c], up to
    rounding.  Then c_T - zc = (I - zA) c_T + z e_A, so

        Gamma c_T - z Gamma c - v' = e_B(z) + z B(z) Z(z),
        Z(z) = (I - zA)^(-1) e_A(z).

    Its coefficient n <= p is C_n = e_B,n + sum_(j<n) B_j Z_(n-1-j).
    Past degree p, e no longer feeds Z, so the state s_n = (Z_n, ...,
    Z_(n-p)) advances as s_(n+1) = M s_n from s_p, and coefficient p + 1
    + k is L M^k s_p, L = ``h2.state_rows(B)``.  Hence

        ||U'Y - YT||^2 = lambda_max(Delta* Delta + sum_(n<=p) C_n* C_n
                                    + s_p* S_inf s_p),

    S_inf = sum_k (M^k)* L*L M^k, the Stein sum of ``hardy_gram`` that
    ``window_gram_extremes`` reads too.  Every term is formed from e, so
    its rounding stays relative to the residual; the equal form (E* c -
    M E* c_T)* S_inf (E* c - M E* c_T) would cancel terms of order one
    inside the quadratic form."""
    k = problem.window_dim
    coords = ld.basis_x.columns.conj().T @ ld.d_x
    c, c_t = coords[:, :k], problem.t.right(coords, k)
    v = (ld.basis_tprime.columns.conj().T @ problem.d_tprime @ problem.x)[:, :k]
    delta = (problem.t_prime @ problem.x)[:, :k] - problem.t.right(problem.x, k)
    b, a = comp.b.coeffs, comp.a.coeffs
    e_b, e_a = b @ c_t, a @ c_t
    e_b[0] -= v
    e_a[0] -= c
    z = h2.resolvent_terms(a, e_a, len(a))
    series = [e_b[n] + sum(b[j] @ z[n - 1 - j] for j in range(n)) for n in range(len(b))]
    head = np.vstack([delta, *series])
    tail, _ = hardy_gram(comp, z[::-1].reshape(z.shape[0] * z.shape[1], k))
    return math.sqrt(max(largest_eigenvalue(head.conj().T @ head + tail), 0.0))


def taylor_trace(comp: h2.Companion, tol: float) -> list:
    """(n, ||M^n E*||_F) for E* = [I; 0] with dim A columns at n = 0, 1,
    2, 4, ..., read off the companion's ``column_norms`` until the
    verdict at `tol` is a pass or through n = 2^TAYLOR_SQUARINGS; past a
    ladder that stopped at a zero power, the entries are zero."""
    norms = comp.column_norms[: len(comp.prefix(1 << TAYLOR_SQUARINGS))]
    trace = [(0, math.sqrt(comp.a.in_dim))]
    for k in range(TAYLOR_SQUARINGS + 1):
        if taylor_verdict(trace, tol) == "pass":
            break
        trace.append((1 << k, norms[min(k, len(norms) - 1)]))
    return trace


def _isometry_tolerances(tol_int: float, tol_taylor: float, trace: list, grid: int) -> dict:
    return {"tol_int": tol_int, "tol_taylor": tol_taylor, "degree_used": trace[-1][0],
            "degree_cap": 1 << TAYLOR_SQUARINGS, "grid": grid}


def included_nodes(grid: int, rho, exclusions=()) -> np.ndarray:
    """Boolean mask of grid nodes kept for boundary a.e. statements:
    shape (grid,) for one radius, (rungs, grid) for a 1-d ladder, read
    off one angular-distance array per exclusion.

    Each exclusion is (theta, kind): declared jump discontinuities are
    cut within one grid spacing; singular atoms within the wider
    max(spacing, 2*sqrt(1-rho)) because their radial bumps carry heavy
    tails at scale sqrt(1-rho).
    """
    radii = np.asarray(rho, dtype=float)[..., None]
    theta = 2.0 * np.pi * np.arange(grid) / grid
    mask = np.ones(radii.shape[:-1] + (grid,), dtype=bool)
    spacing = 2.0 * np.pi / grid
    for point, kind in exclusions:
        width = spacing if kind == "jump" else np.maximum(spacing, 2.0 * np.sqrt(np.maximum(1.0 - radii, 0.0)))
        delta = np.abs((theta - float(point) + np.pi) % (2.0 * np.pi) - np.pi)
        mask &= delta > width
    return mask


def radial_isometry_check(
    comp: h2.Companion,
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
    defect ladder to sink below tol_int and the Taylor trace's tail
    below tol_taylor.  The ladders are the circle means of ||d||^2 -
    ||W d||^2, ||d||^2 and ||d||^2 - ||A d||^2, read by
    ``parseval_means`` off the companion state of A: the first two as
    their largest value over unit d, the third as its largest deviation
    from ||d||^2.  `comp` is the companion of the symbol W and its square
    block A (``companion``), its ladder through at least `grid`.
    """
    a = comp.a
    lw = h2.state_rows(comp.w, a.degree + 1)
    gram, la = _corner(np.eye(a.in_dim), len(comp.m)), lw[comp.start : comp.start + a.out_dim]
    weights = np.stack([gram - lw.conj().T @ lw, gram, gram - la.conj().T @ la])
    means = parseval_means(comp, weights, ladder, grid)
    tops = largest_eigenvalue(means[:, :2])
    defect_ladder = tops[:, 0].tolist()
    weighted_ladder = ((1.0 - np.asarray(ladder)) * tops[:, 1]).tolist()
    a_defect_dev = linalg.hermitian_norm(means[:, 2] - np.eye(a.in_dim)).tolist()
    trace = taylor_trace(comp, tol_taylor)
    v_ladder = ladder_verdict(defect_ladder, tol_int)
    v_taylor = taylor_verdict(trace, tol_taylor)
    verdict = combine_verdicts(v_ladder, v_taylor)
    return CriterionReport(
        criterion_id="radial_isometry",
        verdict=verdict,
        rho_ladder=list(zip(ladder, defect_ladder)),
        taylor_trace=trace,
        tolerances=_isometry_tolerances(tol_int, tol_taylor, trace, grid),
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


def constant_symbol_check(comp: h2.Companion) -> CriterionReport:
    """Constant-symbol special case: pass iff the block column W_0 is an
    isometry and its square block A_0 has spectral radius below one,
    both within CLASSIFY_TOL.  `comp` is the companion of the constant
    symbol W_0, whose Taylor trace the report records."""
    tol = linalg.CLASSIFY_TOL
    m, a0 = comp.w.coeffs[0], comp.a.coeffs[0]
    rho_a = linalg.spectral_radius(a0)
    iso = linalg.isometry_gap(m) <= tol
    stable = rho_a < 1.0 - tol
    parts = []
    if not iso:
        parts.append("symbol is not an isometry")
    if not stable:
        parts.append("top block has spectral radius not below one")
    return CriterionReport(
        criterion_id="constant_symbol",
        verdict="pass" if iso and stable else "fail",
        taylor_trace=taylor_trace(comp, TOL_TAYLOR),
        tolerances={"tol": tol},
        notes="; ".join(parts),
        extras={"spectral_radius": rho_a, "isometry": iso},
    )


def _node_gram(x: np.ndarray) -> np.ndarray:
    """sum_j x_j* x_j over the nodes j of each rung of a contiguous
    (rungs, grid, rows, cols) stack, shape (rungs, cols, cols): one BLAS
    product of the rows stacked over the nodes.  On a strided view numpy
    sums in its own loop, 3e-15 off for ex3_1 where BLAS is 2e-16 off."""
    flat = x.reshape(x.shape[0], -1, x.shape[-1])
    return linalg.adjoint_batch(flat) @ flat


def boundary_measure_check(
    w: MatPoly,
    ladder=DEFAULT_LADDER,
    grid: int = h2.DEFAULT_GRID,
    exclusions=(),
) -> CriterionReport:
    """Boundary-measure test: absolute continuity via the recovered
    boundary mass, plus vanishing of the radial remainder.  A rung whose
    exclusions leave no node of the grid is a CriteriaError.

    The mass ladder averages the defect-of-A integrand over included
    nodes (its radial limit recovers the absolutely continuous part of
    the representing measure; a deficit against ||d||^2 is escaped
    singular mass).  The remainder k combines the resolvent growth and
    symbol defect and must sink to zero for an isometry; its values
    carry an intrinsic O(1-rho) floor, hence the looser threshold.
    Each is the node mean of a Gram matrix, read over every unit d: the
    mass and remainder ladders by the largest eigenvalue, the mass
    deviation by ||H - I||, H the mass Gram matrix.

    Every rung is read off one circle pass (module docstring): one
    resolvent solve and one evaluation of W over the stacked ladder, the
    means as weighted sums over the kept nodes of each rung, and one
    eigvalsh per ladder.  Each temporary of the stack is released once
    it is reduced.
    """
    a = companion(w).a
    keep = included_nodes(grid, ladder, exclusions)
    counts = keep.sum(axis=1)
    if not counts.all():
        rho = ladder[int(np.argmin(counts))]
        raise CriteriaError(f"grid {grid} keeps no node outside the exclusions at rho {rho}")
    d = h2.resolvent_apply_grid(a, np.eye(a.in_dim), ladder, grid)
    # each node scaled by the root of its share of its rung's mean, so the
    # means are Gram matrices of the scaled values and W d is scaled too
    d *= np.sqrt(keep / counts[:, None])[..., None, None]
    w_vals = h2.eval_circle_grid(w, ladder, grid)
    aa = _node_gram(w_vals[..., : a.out_dim, :] @ d)
    bb = _node_gram(w_vals[..., a.out_dim :, :] @ d)
    del w_vals
    dd = _node_gram(d)
    rho2 = np.asarray(ladder, dtype=float)[:, None, None] ** 2
    mass = dd - aa
    remainder = ((1.0 - rho2) / rho2) * dd + (dd - (aa + bb)) / rho2
    mass_ladder = largest_eigenvalue(mass).tolist()
    mass_dev = linalg.hermitian_norm(mass - np.eye(a.in_dim)).tolist()
    k_ladder = largest_eigenvalue(remainder).tolist()
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
        },
        notes=f"boundary mass: {v_mass}; remainder: {v_k}",
        extras={
            "mass_ladder": list(zip(ladder, mass_ladder)),
            "mass_deviation": list(zip(ladder, mass_dev)),
            "mass_verdict": v_mass,
            "remainder_verdict": v_k,
        },
    )


def lifting_isometry_check(
    ld: LiftingData,
    r: MatPoly,
    comp: h2.Companion,
    ladder=DEFAULT_LADDER,
    grid: int = h2.DEFAULT_GRID,
    tol_int: float = TOL_INT,
    tol_taylor: float = TOL_TAYLOR,
) -> CriterionReport:
    """Isometry test for the lifting generated by the free parameter r,
    from the coupling data and the companion of the Schur symbol W = [B;
    A] that ``clt.assemble_schur_W`` assembled from them; no lifting Y is
    read.

    Checks the free-parameter defect integral over the kernel component
    of the resolvent (vacuous for a trivial kernel) and the Taylor decay
    of the resolvent coefficients.  Both read the companion state of A
    (module docstring), whatever the degree of W.  The pointwise defect
    identity ||d||^2 - ||W d||^2 = ||d||^2 - ||Omega d||^2 - ||R K* d||^2
    = ||K* d||^2 - ||R K* d||^2 is checked as two matrix identities on
    the state, and the larger residual is reported as
    `defect_chain_residual`.  `comp` is the companion of W
    (``companion``), its ladder through at least `grid`: the one
    ``window_gram_extremes`` and ``intertwining_norm`` read.
    """
    terms, kker = comp.a.degree + 1, ld.ker_omega.columns
    size, lw = len(comp.m), h2.state_rows(comp.w, terms)
    lrk = h2.state_rows(MatPoly(r.coeffs @ kker.conj().T), terms)
    kk, rr, gram = kker @ kker.conj().T, lrk.conj().T @ lrk, ld.omega_bar.conj().T @ ld.omega_bar
    means = parseval_means(comp, (_corner(kk, size) - rr)[None], ladder, grid)[:, 0]
    defect_ladder = largest_eigenvalue(means).tolist()
    chain_residual = max(linalg.hermitian_norm(lw.conj().T @ lw - _corner(gram, size) - rr),
                         linalg.hermitian_norm(np.eye(len(gram)) - gram - kk))
    trace = taylor_trace(comp, tol_taylor)
    v_ladder = ladder_verdict(defect_ladder, tol_int)
    v_taylor = taylor_verdict(trace, tol_taylor)
    notes = f"parameter defect ladder: {v_ladder}; taylor decay: {v_taylor}"
    if ld.ker_omega.dim == 0:
        notes += "; kernel is trivial, the ladder condition is vacuous"
    return CriterionReport(
        criterion_id="lifting_isometry",
        verdict=combine_verdicts(v_ladder, v_taylor),
        rho_ladder=list(zip(ladder, defect_ladder)),
        taylor_trace=trace,
        tolerances=_isometry_tolerances(tol_int, tol_taylor, trace, grid),
        notes=notes,
        extras={"defect_chain_residual": chain_residual},
    )


def obstruction_search(ld: LiftingData, r0, comp: h2.Companion) -> CriterionReport:
    """Search for a bounded backward orbit obstructing isometric lifting.

    For a constant isometric parameter, the adjoint of the assembled
    symbol's top block admits a bounded nonzero backward orbit exactly
    when it has a unimodular eigenvalue; such an orbit rules out an
    isometric lifting, so a found witness is a fail verdict and an
    empty search is a pass.  Eigenvalues count as unimodular within
    CLASSIFY_TOL.  A witness's orbit is traced for POWER_TERMS steps; an
    empty search records the dyadic Taylor trace of the top block.

    `comp` is the companion of the constant symbol W =
    ``clt.assemble_schur_W(ld, r0)``, so the search and the trace read
    the one A that every other check of W reads.
    """
    tol, n_max = linalg.CLASSIFY_TOL, POWER_TERMS
    r0 = linalg.as_matrix(r0)
    if linalg.isometry_gap(r0) > PARAMETER_ISOMETRY_TOL:
        raise NotIsometricR0("the constant free parameter must be isometric")
    if (r0.shape[0], r0.shape[1]) != (ld.ker_omega_star.dim, ld.ker_omega.dim):
        raise NotIsometricR0("free parameter does not match the kernel shapes")
    r_prime = ld.basis_tprime.dim
    v = comp.a.coeffs[0].conj().T
    radius, witness = linalg.find_non_c0dot_witness(v, tol)
    if witness is None:
        return CriterionReport(
            criterion_id="obstruction",
            verdict="pass",
            taylor_trace=taylor_trace(comp, TOL_TAYLOR),
            tolerances={"tol": tol, "n_max": n_max},
            notes="no unimodular eigenvalue: every bounded backward orbit is trivial",
            extras={"spectral_radius": radius},
        )
    lam, h = witness
    # the orbit h_n = lam^(-n) h, n <= n_max, as the columns of one array
    seq = h[:, None] * lam ** -np.arange(n_max + 1)
    ob = ld.omega_bar
    rec = math.sqrt(np.max(linalg.sq_norms(v @ seq[:, 1:] - seq[:, :-1])))
    coupled = math.sqrt(np.max(linalg.sq_norms(ob @ ob[r_prime:].conj().T @ seq[:, 1:] - ob @ seq[:, :-1])))
    norms = np.sqrt(linalg.sq_norms(seq)).tolist()
    monotone = all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    return CriterionReport(
        criterion_id="obstruction",
        verdict="fail",
        taylor_trace=list(enumerate(norms)),
        tolerances={"tol": tol, "n_max": n_max},
        notes=(
            "a unimodular eigenvalue gives a bounded nonzero backward orbit; "
            "no isometric lifting for this parameter"
        ),
        extras={
            "lambda": [lam.real, lam.imag],
            "recursion_residual": rec,
            "coupled_recursion_residual": coupled,
            "norms_nondecreasing": monotone,
        },
    )
