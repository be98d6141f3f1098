"""Commutant-lifting data and constructions.

A problem is a triple (T, T', X): T an isometry (exactly isometric on
its *window*, the subspace where a truncated shift acts without losing
the top degree), T' a contraction, X a contraction with T'X = XT on the
window.  From the defects of X and T' one builds the coupling partial
isometry pairing D_X T h with D_{T'} X h + D_X h; a contractive analytic
parameter on its kernel then generates every contractive intertwining
lifting Y = [X; Gamma(.) D_X] of X into the minimal isometric lifting
space of T'.

All defect-space quantities are stored in orthonormal coordinate bases
of the numerical ranges of D_X and D_{T'}.  Every rank in this module,
of those ranges, of the coupling's kernels and inside its
pseudo-inverse, is cut by ``linalg.rank_mask``, so the pseudo-inverse
inverts exactly what the kernels leave out.  ``lift`` stores the
coefficients of Gamma, each r' x r in the defect coordinates, and
writes the rows Gamma_n D_X of Y with one product.

The minimal isometric lifting U' of T' (Sz.-Nagy--Foias) acts on
H' + H^2(D_{T'}), truncated to C^p followed by degree + 1 slots of the
r' defect coordinates: a vector is [h'; f_0; ...; f_degree].  U' sends
it to [T'h'; Q* D_{T'} h'; f_0; ...; f_{degree-1}], so it is stored as
the (p + r') x p column [T'; Q* D_{T'}] alone; the shift moves each
slot down one place by slicing and the top slot f_degree falls off.
Block rows (the P onto H', the H'/H split of the coupling) and window
columns are taken by slicing as well; only T itself is a dense matrix,
being no larger than D_X.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import h2, linalg
from .h2 import MatPoly
from .linalg import SubspaceBasis

TOL = 1e-8  # default tolerance for contractivity, window isometry and intertwining


class CLTError(ValueError):
    pass


class IntertwiningViolated(CLTError):
    def __init__(self, residual: float):
        super().__init__(f"intertwining residual {residual:.3e} exceeds tolerance")
        self.residual = residual


class NotContraction(CLTError):
    pass


class NotIsometryOnWindow(CLTError):
    pass


class DefectSingular(CLTError):
    pass


class WrongKernelShapes(CLTError):
    pass


class NotContractiveOnGrid(CLTError):
    pass


@dataclass(frozen=True)
class DenseOp:
    """Isometry given by an explicit matrix; window is the whole space."""

    matrix_data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix_data", linalg.as_matrix(self.matrix_data))

    @property
    def dim(self) -> int:
        return self.matrix_data.shape[0]

    @property
    def window_dim(self) -> int:
        return self.dim

    def matrix(self) -> np.ndarray:
        return self.matrix_data


@dataclass(frozen=True)
class TruncatedShift:
    """Coordinate shift on degree-truncated power series with vector
    coefficients; exact (and isometric) on inputs of degree < `degree`."""

    mult: int
    degree: int

    @property
    def dim(self) -> int:
        return self.mult * (self.degree + 1)

    @property
    def window_dim(self) -> int:
        return self.mult * self.degree

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for n in range(self.degree):
            lo, hi = n * self.mult, (n + 1) * self.mult
            m[hi : hi + self.mult, lo:hi] = np.eye(self.mult)
        return m


@dataclass(frozen=True)
class MultOp:
    """Multiplication by a square matrix polynomial on the truncation;
    exact on inputs of degree <= degree - deg(symbol)."""

    symbol: MatPoly
    degree: int

    def __post_init__(self):
        if self.symbol.out_dim != self.symbol.in_dim:
            raise CLTError("multiplication symbol must be square")
        if self.symbol.degree > self.degree:
            raise CLTError("symbol degree exceeds the truncation degree")

    @property
    def mult(self) -> int:
        return self.symbol.in_dim

    @property
    def dim(self) -> int:
        return self.mult * (self.degree + 1)

    @property
    def window_dim(self) -> int:
        return self.mult * (self.degree - self.symbol.degree + 1)

    def matrix(self) -> np.ndarray:
        e = self.mult
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(self.degree + 1):
            for k in range(min(self.symbol.degree, i) + 1):
                j = i - k
                m[i * e : (i + 1) * e, j * e : (j + 1) * e] = self.symbol.coeffs[k]
        return m


OperatorSpec = DenseOp | TruncatedShift | MultOp


def as_operator_spec(t) -> OperatorSpec:
    if isinstance(t, (DenseOp, TruncatedShift, MultOp)):
        return t
    return DenseOp(t)


@dataclass(frozen=True)
class CLTProblem:
    """Validated lifting problem; construct through build_problem."""

    t: OperatorSpec
    t_prime: np.ndarray
    x: np.ndarray
    tol: float = TOL
    window_override: int | None = None

    @cached_property
    def t_matrix(self) -> np.ndarray:
        return self.t.matrix()

    @property
    def window_dim(self) -> int:
        return self.window_override if self.window_override is not None else self.t.window_dim


def build_problem(t, t_prime, x, tol: float = TOL, window: int | None = None) -> CLTProblem:
    """Validate shapes, contractivity, window isometry and intertwining.

    `window` overrides the window dimension derived from the operator
    variant (rarely needed; dense isometries use the full space).
    """
    spec = as_operator_spec(t)
    t_prime = linalg.as_matrix(t_prime)
    x = linalg.as_matrix(x)
    if t_prime.shape[0] != t_prime.shape[1]:
        raise CLTError("T' must be square")
    if x.shape != (t_prime.shape[0], spec.dim):
        raise CLTError(
            f"X must map C^{spec.dim} into C^{t_prime.shape[0]}, got shape {x.shape}"
        )
    if linalg.operator_norm(t_prime) > 1.0 + tol:
        raise NotContraction("T' is not a contraction")
    if linalg.operator_norm(x) > 1.0 + tol:
        raise NotContraction("X is not a contraction")
    if window is not None and not (0 < window <= spec.dim):
        raise CLTError("window override out of range")
    problem = CLTProblem(spec, t_prime, x, tol, window)
    tm = problem.t_matrix
    k = problem.window_dim
    gram = (tm.conj().T @ tm)[:k, :k] - np.eye(k)
    if np.linalg.norm(gram, 2) > tol:
        raise NotIsometryOnWindow("T fails to be isometric on its window")
    residual = float(np.linalg.norm((t_prime @ x - x @ tm)[:, :k], 2))
    if residual > tol:
        raise IntertwiningViolated(residual)
    return problem


@dataclass(frozen=True)
class MinimalLifting:
    """Minimal isometric lifting U' of a contraction T', truncated in degree.

    The lifted space is C^h_dim followed by degree + 1 slots of defect
    coordinates.  `u` is the column [T'; Q* D_{T'}] on C^h_dim; the
    shift part of U' is applied by slicing in `apply`, never stored.
    """

    u: np.ndarray
    defect_basis: SubspaceBasis
    degree: int
    h_dim: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        """U' v for a vector or a column block on the lifted space; the
        top defect slot falls off the truncation."""
        p, r = self.h_dim, self.defect_basis.dim
        return np.concatenate([self.u @ v[:p], v[p : len(v) - r]])


def minimal_isometric_lifting(
    t_prime,
    degree: int,
    basis: SubspaceBasis | None = None,
    tol: float = TOL,
) -> MinimalLifting:
    """U'(h' + f) = T'h' + (D_{T'}h' shifted into the series slots).

    Returns U' in the layout of `MinimalLifting` together with the
    defect coordinate basis Q of D_{T'}.
    """
    t_prime = linalg.as_matrix(t_prime)
    if linalg.operator_norm(t_prime) > 1.0 + tol:
        raise NotContraction("T' is not a contraction")
    d_tp = linalg.defect(t_prime, tol)
    q = basis if basis is not None else linalg.range_basis(d_tp)
    u = np.vstack([t_prime, q.columns.conj().T @ d_tp])
    return MinimalLifting(u, q, degree, t_prime.shape[0])


@dataclass(frozen=True)
class LiftingData:
    """Defect operators, their coordinate bases, and the coupling
    partial isometry with its kernels, all in defect-space coordinates."""

    d_x: np.ndarray
    d_tprime: np.ndarray
    basis_x: SubspaceBasis
    basis_tprime: SubspaceBasis
    omega_bar: np.ndarray
    ker_omega: SubspaceBasis
    ker_omega_star: SubspaceBasis

    @property
    def defect_dim(self) -> int:
        return self.basis_x.dim


def build_omega(p: CLTProblem) -> LiftingData:
    """Definitional construction of the coupling partial isometry.

    Solves D_X T h -> D_{T'} X h + D_X h on the window and extends by
    zero on the orthogonal complement of the closure of D_X T H.  The
    pseudo-inverse of g = D_X T (window columns, D_X coordinates) and
    the kernel of g* share the rank_mask rank, so rank Omega + dim ker
    Omega is the defect dimension r and Omega is a partial isometry.
    """
    tm = p.t_matrix
    k = p.window_dim
    d_x = linalg.defect(p.x, p.tol)
    d_tp = linalg.defect(p.t_prime, p.tol)
    qx = linalg.range_basis(d_x)
    qp = linalg.range_basis(d_tp)
    g = (qx.columns.conj().T @ d_x @ tm)[:, :k]
    v = np.vstack(
        [
            (qp.columns.conj().T @ d_tp @ p.x)[:, :k],
            (qx.columns.conj().T @ d_x)[:, :k],
        ]
    )
    omega = v @ linalg.pinv(g)
    ker = linalg.kernel_basis(g.conj().T)
    ker_star = linalg.kernel_basis(v.conj().T)
    return LiftingData(d_x, d_tp, qx, qp, omega, ker, ker_star)


def build_omega_explicit(p: CLTProblem) -> LiftingData:
    """Closed-form coupling for invertible D_X.

    Uses D_X T (T* D_X^2 T)^+ T* D_X and companions; the pseudo-inverse
    (rather than a plain inverse) also covers truncated shifts, whose
    dropped top degree makes T* D_X^2 T singular while leaving the
    window action intact.  The partial-isometry property is verified.
    D_X counts as invertible when rank_mask keeps all its singular values.
    """
    tm = p.t_matrix
    d_x = linalg.defect(p.x, p.tol)
    d_tp = linalg.defect(p.t_prime, p.tol)
    qx = linalg.range_basis(d_x)
    if qx.dim < d_x.shape[0]:
        raise DefectSingular(f"D_X has numerical rank {qx.dim} < {d_x.shape[0]}")
    qp = linalg.range_basis(d_tp)
    reach = linalg.pinv(tm.conj().T @ d_x @ d_x @ tm) @ tm.conj().T @ d_x
    omega_full_matrix = np.vstack([d_tp @ p.x @ reach, d_x @ reach])
    omsq = d_x @ tm @ reach
    hp_dim = p.t_prime.shape[0]
    omega = np.vstack(
        [
            qp.columns.conj().T @ omega_full_matrix[:hp_dim] @ qx.columns,
            qx.columns.conj().T @ omega_full_matrix[hp_dim:] @ qx.columns,
        ]
    )
    check = np.linalg.norm(omega @ omega.conj().T @ omega - omega, 2)
    if check > 1e-8:
        raise CLTError(f"explicit coupling is not a partial isometry ({check:.3e})")
    prod = qx.columns.conj().T @ omsq @ qx.columns
    if np.linalg.norm(prod - omega.conj().T @ omega, 2) > 1e-8:
        raise CLTError("coupling gram formula disagrees with the assembled operator")
    ker = linalg.kernel_basis(omega)
    ker_star = linalg.kernel_basis(omega.conj().T)
    return LiftingData(d_x, d_tp, qx, qp, omega, ker, ker_star)


def omega_full(ld: LiftingData) -> np.ndarray:
    """The coupling as a map between the ambient spaces H -> H' + H."""
    qx, qp = ld.basis_x.columns, ld.basis_tprime.columns
    r_prime = ld.basis_tprime.dim
    top = qp @ ld.omega_bar[:r_prime]
    bottom = qx @ ld.omega_bar[r_prime:]
    return np.vstack([top, bottom]) @ qx.conj().T


def assemble_schur_W(ld: LiftingData, r: MatPoly | None) -> MatPoly:
    """Extend the coupling by a free contractive parameter on its kernel.

    W(z) agrees with the coupling on the orthogonal complement of its
    kernel and acts as ker -> ker* through r(z); the result is checked
    to be contractive, within TOL, on a circle grid.
    """
    k, k_star = ld.ker_omega.dim, ld.ker_omega_star.dim
    if r is None:
        r = MatPoly.zero(k_star, k)
    if (r.out_dim, r.in_dim) != (k_star, k):
        raise WrongKernelShapes(
            f"free parameter must map C^{k} into C^{k_star}, got {r.in_dim}->{r.out_dim}"
        )
    coeffs = ld.ker_omega_star.columns @ r.coeffs @ ld.ker_omega.columns.conj().T
    coeffs[0] += ld.omega_bar
    w = MatPoly(coeffs)
    if w.in_dim:
        grid = max(64, 2 * w.degree + 1) if w.degree else 1  # a constant: one node
        vals = h2.eval_circle_grid(w, 1.0, grid)
        sup = max(np.linalg.norm(v, 2) for v in vals)
        if sup > 1.0 + TOL:
            raise NotContractiveOnGrid(f"grid sup norm {sup:.6g} exceeds 1 + tol")
    return w


@dataclass(frozen=True)
class Lifting:
    """A contractive intertwining lifting in truncated form."""

    problem: CLTProblem
    data: LiftingData
    free_parameter: MatPoly
    w: MatPoly
    y: np.ndarray
    minimal: MinimalLifting

    def apply(self, h) -> np.ndarray:
        return self.y @ np.asarray(h, dtype=complex).reshape(-1)

    def residuals(self) -> dict:
        """Lifting-contract residuals, all restricted to the window."""
        k = self.problem.window_dim
        y, tm = self.y, self.problem.t_matrix
        intertwine = np.linalg.norm(self.minimal.apply(y[:, :k]) - (y @ tm)[:, :k], 2)
        proj = np.linalg.norm(y[: self.minimal.h_dim] - self.problem.x, 2)
        norm_on_window = np.linalg.norm(y[:, :k], 2)
        return {
            "intertwining": float(intertwine),
            "projection": float(proj),
            "window_norm": float(norm_on_window),
        }


def lift(
    p: CLTProblem,
    r: MatPoly | None,
    degree: int,
    ld: LiftingData | None = None,
) -> Lifting:
    """Build the contractive intertwining lifting for a free parameter.

    Y h = X h + Gamma(.) D_X h with Gamma = B (I - zA)^(-1) from the
    assembled Schur parameter W = [B; A].  Gamma_n^T is coefficient n of
    (I - z A^T)^(-1) B^T, so ``h2.resolvent_terms`` on the transposes
    fills Gamma, r x r by r x r' products whatever dim T is, and the
    series rows of Y are Gamma in defect coordinates times Q* D_X.
    """
    if ld is None:
        ld = build_omega(p)
    if r is None:
        r = MatPoly.zero(ld.ker_omega_star.dim, ld.ker_omega.dim)
    w = assemble_schur_W(ld, r)
    r_prime, h_dim = ld.basis_tprime.dim, p.x.shape[0]
    b_t, a_t = (part.transpose(0, 2, 1) for part in np.split(w.coeffs, [r_prime], axis=1))
    gamma = np.empty((degree + 1, r_prime, w.in_dim), dtype=complex)
    for n, term in zip(range(degree + 1), h2.resolvent_terms(a_t, b_t)):
        gamma[n] = term.T
    y = np.empty((h_dim + (degree + 1) * r_prime, p.t.dim), dtype=complex)
    y[:h_dim] = p.x
    coords = ld.basis_x.columns.conj().T @ ld.d_x
    np.matmul(gamma.reshape((degree + 1) * r_prime, w.in_dim), coords, out=y[h_dim:])
    ml = minimal_isometric_lifting(p.t_prime, degree, basis=ld.basis_tprime, tol=p.tol)
    return Lifting(p, ld, r, w, y, ml)


@dataclass(frozen=True)
class DimsReport:
    """Kernel and defect dimension bookkeeping with the inequality verdicts."""

    dim_ker: int
    dim_ker_star: int
    dim_defect_tprime: int
    dim_defect_tstar: int
    dim_meet_left: int
    dim_meet_right: int

    @property
    def kernel_inequality(self) -> bool:
        return self.dim_ker <= self.dim_ker_star

    @property
    def defect_inequality(self) -> bool:
        return self.dim_defect_tprime >= self.dim_defect_tstar

    @property
    def meet_inequality(self) -> bool:
        return self.dim_meet_left <= self.dim_meet_right

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "kernel_inequality": self.kernel_inequality,
            "defect_inequality": self.defect_inequality,
            "meet_inequality": self.meet_inequality,
        }


def dims_report(ld: LiftingData, p: CLTProblem) -> DimsReport:
    """Dimension counts behind the lifting obstructions.

    meet_left / meet_right are the dimensions of range D_X meet
    range D_{T*} and range D_{T'} meet range D_{X*}; for invertible
    defects they collapse onto the defect dimensions.
    """
    tm = p.t_matrix
    d_tstar = linalg.defect_adjoint(tm, max(p.tol, 1e-6))
    d_xstar = linalg.defect_adjoint(p.x, p.tol)
    rng_tstar = linalg.range_basis(d_tstar)
    left = linalg.subspace_intersection(ld.basis_x, rng_tstar)
    right = linalg.subspace_intersection(ld.basis_tprime, linalg.range_basis(d_xstar))
    return DimsReport(
        dim_ker=ld.ker_omega.dim,
        dim_ker_star=ld.ker_omega_star.dim,
        dim_defect_tprime=ld.basis_tprime.dim,
        dim_defect_tstar=rng_tstar.dim,
        dim_meet_left=left.dim,
        dim_meet_right=right.dim,
    )


def shift_intertwining_problem(
    rng: np.random.Generator,
    mult: int,
    degree: int,
    t_prime,
    x_norm: float = 0.9,
    tol: float = TOL,
) -> CLTProblem:
    """Random valid problem with a truncated-shift T.

    X is forced to intertwine by propagating a random seed block
    through powers of T', then scaled to the requested norm.
    """
    t_prime = linalg.as_matrix(t_prime)
    p_dim = t_prime.shape[0]
    x0 = rng.standard_normal((p_dim, mult)) + 1j * rng.standard_normal((p_dim, mult))
    blocks = []
    current = x0
    for _ in range(degree + 1):
        blocks.append(current)
        current = t_prime @ current
    x = np.hstack(blocks)
    s = np.linalg.norm(x, 2)
    if s > 0:
        x = x * (x_norm / s)
    return build_problem(TruncatedShift(mult, degree), t_prime, x, tol)
