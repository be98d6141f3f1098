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
* boundary-mass statements compare against the probe norm at the
  largest radius.

Statements quantified over a whole space are probed on the standard
basis plus N_PROBES random unit vectors drawn from PROBE_SEED; both are
recorded in the tolerances.

A rung of a radial ladder of a polynomial W, and of every W in
``boundary_measure_check`` (its exclusion masks are not Parseval sums),
is one ``radial_sample`` of the nodes of the rho-circle.

A constant W needs no node.  On the G-point rho-circle z^G = rho^G, and
(I - zA) sum_(k<G) z^k A^k = I - z^G A^G, so with M_rho = I - (rho A)^G,
which commutes with A, d(z) = sum_(k<G) z^k A^k v at every node, v =
M_rho^(-1) c for a probe column c.  Exact discrete Parseval gives, for
every constant L with N = L*L and w = exp(2 pi i / G),

    mean_j ||L d(rho w^j)||^2 = sum_(k<G) rho^(2k) ||L A^k v||^2 = v* S v,

S = sum_(k<G) (b^k)* N b^k, b = rho A, the Stein sum that
``linalg.stein_sum`` doubles in log2 G steps, S_(2m) = S_m + (b^m)* S_m
b^m, with b^G for M_rho.  N is I - W*W, I and I - A*A for the radial
defect, weighted and defect-of-A ladders (one stacked sum per rung), and
K (I - R*R) K* for the lifting parameter defect (K the kernel basis of
the coupling, R the free parameter).  ``clt.assemble_schur_W`` holds
||W|| <= 1 + clt.TOL, so ||b^G|| <= q = (rho (1 + TOL))^G and
kappa(M_rho) <= (1 + q) / (1 - q).  The lifting's defect chain holds for
every vector, so for a constant W it is checked as the matrix identities
W*W = Omega*Omega + K R*R K* and I = Omega*Omega + K K*.

The Taylor trace of a constant A records ||A^n c|| at n = 0, 1, 2, 4,
... by repeated squaring, until the verdict is a pass or after
TAYLOR_SQUARINGS squarings.  The cap comes from CLASSIFY_TOL, inside
which ``obstruction_search`` and ``constant_symbol_check`` count an
eigenvalue as unimodular: for spectral radius 1 - delta and a normal A,
||A^n|| <= exp(-delta n), and the tail of a trace ending at the cap
starts at n = 2^(cap - 1), so the least cap with 2^(cap - 1)
CLASSIFY_TOL >= ln(1 / TOL_TAYLOR), 35, passes every delta >
CLASSIFY_TOL.  Trace and search differ only where 1 - CLASSIFY_TOL <=
rho(A) < 1 - ln(1 / tol_taylor) / 2^34, 1 - 8.0e-10 at the default:
there the search finds a witness and the trace passes.  A non-normal A
exceeds exp(-delta n) by up to its eigenvector condition number, which
narrows the band; a tol_taylor below 3.5e-8 turns it round.  A squaring
doubles the relative rounding error of A^(2^k), to 2^35 * 1.1e-16 = 4e-6
at the cap: a unimodular eigenvalue's trace stays flat and fails.
"""

from __future__ import annotations

import math
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
# the Taylor trace of a polynomial symbol doubles up to this multiple of its degree
TAYLOR_DEGREE_CAP = 8
# squarings of a constant symbol's dyadic Taylor trace: 35 (module docstring)
TAYLOR_SQUARINGS = 1 + math.ceil(math.log2(math.log(1 / TOL_TAYLOR) / linalg.CLASSIFY_TOL))
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
    """Solve the resolvent once and evaluate W once on the rho-circle; when
    A tops W, its first a_rows rows give A d, so A is not evaluated again."""
    d = h2.resolvent_apply_grid(a, probes, rho, grid)
    wd = h2.eval_circle_grid(w, rho, grid) @ d
    an2 = linalg.sq_norms(wd[:, :a_rows])
    return RadialSample(d, linalg.sq_norms(d), an2 + linalg.sq_norms(wd[:, a_rows:]), an2)


def parseval_means(a0: np.ndarray, probes: np.ndarray, weights: np.ndarray, ladder, grid: int) -> np.ndarray:
    """mean_j ||L d(rho w^j) c||^2 of the constant A = a0 for each rung,
    weight N = L*L of an (s, dim, dim) stack and probe column c."""
    out = np.zeros((len(ladder), len(weights), probes.shape[1]))
    for i, rho in enumerate(ladder):
        s, top = linalg.stein_sum(h2.check_radius(rho) * a0, weights, grid)
        v = np.linalg.solve(np.eye(len(a0)) - top, probes)
        out[i] = np.sum(v.conj() * (s @ v), axis=-2).real
    return out


def taylor_trace(a: MatPoly, probes: np.ndarray, degree: int, tol: float) -> list:
    """(n, largest probe norm of coefficient n of (I - z A(z))^(-1) probes):
    a constant A at n = 0, 1, 2, 4, ... until the verdict at `tol` is a
    pass or for TAYLOR_SQUARINGS squarings, a polynomial A at every n to
    `degree`, doubled while inconclusive up to TAYLOR_DEGREE_CAP * degree."""

    def largest(x):  # the largest column norm of x
        return float(np.sqrt(np.max(linalg.sq_norms(x, axis=0), initial=0.0)))

    trace = [(0, largest(probes))]
    if a.degree == 0:
        power = a.coeffs[0]
        for k in range(TAYLOR_SQUARINGS + 1):
            if taylor_verdict(trace, tol) == "pass":
                break
            trace.append((1 << k, largest(power @ probes)))
            power = power @ power
        return trace
    norms, terms, target = [], h2.resolvent_terms(a.coeffs, probes[None]), degree
    while True:
        while len(norms) <= target:
            norms.append(largest(next(terms)))
        trace = list(enumerate(norms[: target + 1]))
        if target >= TAYLOR_DEGREE_CAP * degree or taylor_verdict(trace, tol) != "inconclusive":
            return trace
        target *= 2


def _isometry_tolerances(tol_int: float, tol_taylor: float, a: MatPoly, trace: list, degree: int, grid: int) -> dict:
    cap = 1 << TAYLOR_SQUARINGS if a.degree == 0 else TAYLOR_DEGREE_CAP * degree
    return {"tol_int": tol_int, "tol_taylor": tol_taylor, "degree": degree, "degree_used": trace[-1][0],
            "degree_cap": cap, "grid": grid, "n_probes": N_PROBES, "seed": PROBE_SEED}


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
    defect ladder to sink below tol_int and the Taylor trace's tail
    below tol_taylor.  The ladders are the circle means of ||d||^2 -
    ||W d||^2, ||d||^2 and ||d||^2 - ||A d||^2, by ``parseval_means``
    for a constant W and by ``radial_sample`` otherwise.
    """
    a = _top_block(w)
    probes = probe_matrix(a.in_dim)
    if w.degree == 0:
        w0, a0, eye = w.coeffs[0], a.coeffs[0], np.eye(a.in_dim)
        means = parseval_means(a0, probes, np.stack([eye - w0.conj().T @ w0, eye, eye - a0.conj().T @ a0]), ladder, grid)
    else:
        means = []
        for rho in ladder:
            s = radial_sample(w, a, probes, rho, grid, a.out_dim)
            means.append(np.mean([s.dn2 - s.wn2, s.dn2, s.dn2 - s.an2], axis=1))
    nd2 = linalg.sq_norms(probes)
    defect_ladder = [float(np.max(m[0])) for m in means]
    weighted_ladder = [float((1.0 - rho) * np.max(m[1])) for rho, m in zip(ladder, means)]
    a_defect_dev = [float(np.max(np.abs(m[2] - nd2))) for m in means]
    trace = taylor_trace(a, probes, degree, tol_taylor)
    v_ladder = ladder_verdict(defect_ladder, tol_int)
    v_taylor = taylor_verdict(trace, tol_taylor)
    verdict = combine_verdicts(v_ladder, v_taylor)
    return CriterionReport(
        criterion_id="radial_isometry",
        verdict=verdict,
        rho_ladder=list(zip(ladder, defect_ladder)),
        taylor_trace=trace,
        tolerances=_isometry_tolerances(tol_int, tol_taylor, a, trace, degree, grid),
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


def _sampled_lifting_ladder(lifting: Lifting, a: MatPoly, probes: np.ndarray, ladder, grid: int):
    """Parameter defect ladder ||K* d||^2 - ||R K* d||^2 of a polynomial W
    by ``radial_sample``, and its worst gap on any node to the two other
    forms ||d||^2 - ||W d||^2 = ||d||^2 - ||Omega d||^2 - ||R K* d||^2."""
    ld, defect_ladder, chain_residual = lifting.data, [], 0.0
    for rho in ladder:
        s = radial_sample(lifting.w, a, probes, rho, grid)
        u = ld.ker_omega.columns.conj().T @ s.d
        ru = h2.eval_circle_grid(lifting.free_parameter, rho, grid) @ u
        term = linalg.sq_norms(u) - linalg.sq_norms(ru)
        e1, e2 = s.dn2 - s.wn2, s.dn2 - linalg.sq_norms(ld.omega_bar @ s.d) - linalg.sq_norms(ru)
        if e1.size:
            chain_residual = max(chain_residual, float(np.max(np.abs(e1 - e2))), float(np.max(np.abs(e2 - term))))
        defect_ladder.append(float(np.max(np.mean(term, axis=0))) if term.size else 0.0)
        # free this rung's grid-sized blocks before the next rung's solve
        del s, u, ru, term
    return defect_ladder, chain_residual


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

    A constant W (``w.degree == 0``) solves nothing node by node and
    checks the chain as two matrix identities (module docstring); a
    polynomial W samples every node of every rung through
    ``radial_sample`` and takes the residual there.
    """
    ld, degree = lifting.data, lifting.minimal.degree
    _, a = lifting.w.block_rows(ld.basis_tprime.dim)
    probes = probe_matrix(ld.defect_dim)
    if lifting.w.degree == 0:
        w0, kker = lifting.w.coeffs[0], ld.ker_omega.columns
        rk = lifting.free_parameter.coeffs[0] @ kker.conj().T
        kk, rr, gram = kker @ kker.conj().T, rk.conj().T @ rk, ld.omega_bar.conj().T @ ld.omega_bar
        means = parseval_means(a.coeffs[0], probes, (kk - rr)[None], ladder, grid)[:, 0]
        defect_ladder = [float(np.max(v)) if v.size else 0.0 for v in means]
        chain_residual = max(linalg.operator_norm(w0.conj().T @ w0 - gram - rr),
                             linalg.operator_norm(np.eye(len(gram)) - gram - kk))
    else:
        defect_ladder, chain_residual = _sampled_lifting_ladder(lifting, a, probes, ladder, grid)
    trace = taylor_trace(a, probes, degree, tol_taylor)
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
        tolerances=_isometry_tolerances(tol_int, tol_taylor, a, trace, degree, grid),
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
