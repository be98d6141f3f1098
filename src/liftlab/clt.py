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
inverts exactly what the kernels leave out.

No command builds a lifting Y.  The `lift` command reads the window
norm and the intertwining residual of the untruncated Y off the
coupling identity and one Stein sum (``criteria.window_gram_extremes``,
``criteria.intertwining_norm``, whose docstring derives the identity).
``lift``, ``minimal_isometric_lifting`` and ``Lifting.residuals`` build
the degree-truncated Y, U' and their residual, which the tests hold the
identity to.  ``lift`` reads the coefficients of Gamma = B (I -
zA)^(-1), each r' x r in the defect coordinates, off the
``h2.Companion`` of W = [B; A]: it doubles the stacked states with one
product per power M^(2^j), and writes Y's rows Gamma_n D_X with one
more.

The minimal isometric lifting U' of T' (Sz.-Nagy--Foias) acts on
H' + H^2(D_{T'}), truncated to C^p followed by degree + 1 slots of the
r' defect coordinates: a vector is [h'; f_0; ...; f_degree].  U' sends
it to [T'h'; Q* D_{T'} h'; f_0; ...; f_{degree-1}], so it is stored as
the (p + r') x p column [T'; Q* D_{T'}] alone; the shift moves each
slot down one place by slicing and the top slot f_degree falls off.
Block rows (the P onto H', the H'/H split of the coupling) and window
columns are taken by slicing as well.  A truncated shift T is never
built: m T, m T* and T* m are shifted copies of m's blocks, which have
the bits of the dense products, its window isometry gap is 0 or 1 by
structure, and the range of D_{T*} is its degree-0 slot.  ``DenseOp``
and ``MultOp`` multiply by their matrix, built once.
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


class _DenseProducts:
    """The products of T for a spec held as a dense matrix, ``matrix()``
    built once."""

    @cached_property
    def dense(self) -> np.ndarray:
        return self.matrix()

    def right(self, m: np.ndarray, cols: int | None = None) -> np.ndarray:
        """m T, or its first `cols` columns."""
        return m @ (self.dense if cols is None else self.dense[:, :cols])

    def right_adjoint(self, m: np.ndarray) -> np.ndarray:
        """m T*."""
        return m @ self.dense.conj().T

    def left_adjoint(self, m: np.ndarray) -> np.ndarray:
        """T* m."""
        return self.dense.conj().T @ m

    def window_gap(self, k: int) -> float:
        """``linalg.isometry_gap`` of T's first k columns."""
        return linalg.isometry_gap(self.dense[:, :k])

    def adjoint_defect_range(self, tol: float) -> SubspaceBasis:
        """The range of D_{T*} = (I - T T*)^(1/2)."""
        return linalg.range_basis(linalg.defect_adjoint(self.dense, tol))


@dataclass(frozen=True)
class DenseOp(_DenseProducts):
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
    coefficients; exact (and isometric) on inputs of degree < `degree`.

    It is applied by slicing, never built: T moves block n of `mult`
    coordinates to block n + 1 and drops the top block, so a product
    with its 0/1 matrix is a copy of whole blocks with zeros added, and
    the shifted copy has the bits of the dense product.  ``matrix`` is
    the dense reference for tests."""

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

    def right(self, m: np.ndarray, cols: int | None = None) -> np.ndarray:
        """m T, or its first `cols` columns: column block n is block
        n + 1 of m, and the top block is zero.  Columns that are all in
        m are a view of it, with no copy."""
        e, n = self.mult, self.dim
        cols = n if cols is None else cols
        if cols <= n - e:
            return m[:, e : e + cols]
        out = np.zeros((m.shape[0], cols), dtype=complex)
        out[:, : n - e] = m[:, e:]
        return out

    def right_adjoint(self, m: np.ndarray) -> np.ndarray:
        """m T*: column block n + 1 is block n of m, block 0 is zero."""
        out = np.zeros((m.shape[0], self.dim), dtype=complex)
        out[:, self.mult :] = m[:, : self.dim - self.mult]
        return out

    def left_adjoint(self, m: np.ndarray) -> np.ndarray:
        """T* m: row block n is block n + 1 of m, the top block is zero."""
        out = np.zeros((self.dim, m.shape[1]), dtype=complex)
        out[: self.dim - self.mult] = m[self.mult :]
        return out

    def window_gap(self, k: int) -> float:
        """``linalg.isometry_gap`` of the first k columns, exact by
        structure: they are distinct coordinate vectors up to
        mult * degree, past which the top block's columns are zero, and
        a zero column puts -1 in T*T - I."""
        return 0.0 if k <= self.window_dim else 1.0

    def adjoint_defect_range(self, tol: float) -> SubspaceBasis:
        """The range of D_{T*}: I - T T* is the projection onto the
        degree-0 slot, which T leaves empty, so the range is the first
        `mult` coordinates, whatever the tolerance."""
        return SubspaceBasis.coordinates(self.dim, self.mult)


@dataclass(frozen=True)
class MultOp(_DenseProducts):
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

    # D_X and D_{T'} and their coordinate bases are factored once per
    # problem; the couplings and the minimal lifting share them
    @cached_property
    def d_x(self) -> np.ndarray:
        return _defect(self.x, self.tol, "X")

    @cached_property
    def d_tprime(self) -> np.ndarray:
        return _defect(self.t_prime, self.tol, "T'")

    @cached_property
    def basis_x(self) -> SubspaceBasis:
        return linalg.range_basis(self.d_x)

    @cached_property
    def basis_tprime(self) -> SubspaceBasis:
        return linalg.range_basis(self.d_tprime)

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
    problem = CLTProblem(spec, t_prime, x, tol, window)
    # factoring the defects checks both contractions
    problem.d_tprime, problem.d_x
    if window is not None and not (0 < window <= spec.dim):
        raise CLTError("window override out of range")
    k = problem.window_dim
    if spec.window_gap(k) > tol:
        raise NotIsometryOnWindow("T fails to be isometric on its window")
    residual = (t_prime @ x)[:, :k] - spec.right(x, k)
    if linalg.norm_exceeds(residual, tol):
        raise IntertwiningViolated(linalg.operator_norm(residual))
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


def _defect(m: np.ndarray, tol: float, name: str) -> np.ndarray:
    """linalg.defect, its contraction check raised as NotContraction."""
    try:
        return linalg.defect(m, tol)
    except linalg.NotAContraction:
        raise NotContraction(f"{name} is not a contraction") from None


def minimal_isometric_lifting(
    t_prime,
    degree: int,
    basis: SubspaceBasis | None = None,
    tol: float = TOL,
    d_tp: np.ndarray | None = None,
) -> MinimalLifting:
    """U'(h' + f) = T'h' + (D_{T'}h' shifted into the series slots).

    Returns U' in the layout of `MinimalLifting` together with the
    defect coordinate basis Q of D_{T'}.  A caller that has factored
    D_{T'} already (``CLTProblem.d_tprime``) passes it as `d_tp`.
    """
    t_prime = linalg.as_matrix(t_prime)
    if d_tp is None:
        d_tp = _defect(t_prime, tol, "T'")
    q = basis if basis is not None else linalg.range_basis(d_tp)
    u = np.vstack([t_prime, q.columns.conj().T @ d_tp])
    return MinimalLifting(u, q, degree, t_prime.shape[0])


@dataclass(frozen=True)
class LiftingData:
    """D_X, the defect coordinate bases of X and T', and the coupling
    partial isometry with its kernels, in defect-space coordinates."""

    d_x: np.ndarray
    basis_x: SubspaceBasis
    basis_tprime: SubspaceBasis
    omega_bar: np.ndarray
    ker_omega: SubspaceBasis
    ker_omega_star: SubspaceBasis


def build_omega(p: CLTProblem) -> LiftingData:
    """Definitional construction of the coupling partial isometry.

    Solves D_X T h -> D_{T'} X h + D_X h on the window and extends by
    zero on the orthogonal complement of the closure of D_X T H.  One
    SVD of g* gives both the kernel of g* and the pseudo-inverse of g =
    D_X T (window columns, D_X coordinates)
    (``linalg.kernel_and_adjoint_pinv``), so they share the rank_mask
    rank, rank Omega + dim ker Omega is the defect dimension r and Omega
    is a partial isometry.
    """
    k = p.window_dim
    d_x, d_tp, qx, qp = p.d_x, p.d_tprime, p.basis_x, p.basis_tprime
    g = p.t.right(qx.columns.conj().T @ d_x, k)
    v = np.vstack(
        [
            (qp.columns.conj().T @ d_tp @ p.x)[:, :k],
            (qx.columns.conj().T @ d_x)[:, :k],
        ]
    )
    ker, g_pinv = linalg.kernel_and_adjoint_pinv(g.conj().T)
    omega = v @ g_pinv
    ker_star = linalg.kernel_basis(v.conj().T)
    return LiftingData(d_x, qx, qp, omega, ker, ker_star)


def build_omega_explicit(p: CLTProblem) -> LiftingData:
    """Closed-form coupling for invertible D_X (``explicit_coupling``),
    with the kernels of Omega and Omega* factored from it."""
    omega = explicit_coupling(p)
    ker = linalg.kernel_basis(omega)
    ker_star = linalg.kernel_basis(omega.conj().T)
    return LiftingData(p.d_x, p.basis_x, p.basis_tprime, omega, ker, ker_star)


def explicit_coupling(p: CLTProblem) -> np.ndarray:
    """The coupling Omega in defect coordinates, in closed form for
    invertible D_X; its kernels are not factored, so a caller that
    compares it with another construction pays for no SVD.

    Uses D_X T (T* D_X^2 T)^+ T* D_X and companions; the pseudo-inverse
    (rather than a plain inverse) also covers truncated shifts, whose
    dropped top degree makes T* D_X^2 T singular while leaving the
    window action intact.  The partial-isometry property is verified.
    D_X counts as invertible when rank_mask keeps all its singular values.
    """
    t = p.t
    d_x, d_tp, qx, qp = p.d_x, p.d_tprime, p.basis_x, p.basis_tprime
    if qx.dim < d_x.shape[0]:
        raise DefectSingular(f"D_X has numerical rank {qx.dim} < {d_x.shape[0]}")
    reach = t.right_adjoint(linalg.pinv(t.right(t.left_adjoint(d_x) @ d_x))) @ d_x
    omega_full_matrix = np.vstack([d_tp @ p.x @ reach, d_x @ reach])
    omsq = t.right(d_x) @ reach
    hp_dim = p.t_prime.shape[0]
    omega = np.vstack(
        [
            qp.columns.conj().T @ omega_full_matrix[:hp_dim] @ qx.columns,
            qx.columns.conj().T @ omega_full_matrix[hp_dim:] @ qx.columns,
        ]
    )
    check = omega @ omega.conj().T @ omega - omega
    if linalg.norm_exceeds(check, 1e-8):
        raise CLTError(f"explicit coupling is not a partial isometry ({linalg.operator_norm(check):.3e})")
    prod = qx.columns.conj().T @ omsq @ qx.columns
    if linalg.norm_exceeds(prod - omega.conj().T @ omega, 1e-8):
        raise CLTError("coupling gram formula disagrees with the assembled operator")
    return omega


def omega_full(ld: LiftingData) -> np.ndarray:
    """The coupling as a map between the ambient spaces H -> H' + H."""
    qx, qp = ld.basis_x.columns, ld.basis_tprime.columns
    r_prime = ld.basis_tprime.dim
    top = qp @ ld.omega_bar[:r_prime]
    bottom = qx @ ld.omega_bar[r_prime:]
    return np.vstack([top, bottom]) @ qx.conj().T


def schur_coeffs(ld: LiftingData, r_coeffs: np.ndarray) -> np.ndarray:
    """The coefficients of W: the coupling Omega at z^0 plus K_* R_n K*
    for each coefficient R_n of the free parameter, K and K_* the kernel
    bases of Omega and Omega*.  Unchecked; ``assemble_schur_W`` checks
    that W is contractive."""
    coeffs = ld.ker_omega_star.columns @ r_coeffs @ ld.ker_omega.columns.conj().T
    coeffs[0] += ld.omega_bar
    return coeffs


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
    w = MatPoly(schur_coeffs(ld, r.coeffs))
    if w.in_dim:
        grid = max(64, 2 * w.degree + 1) if w.degree else 1  # a constant: one node
        sup = float(linalg.operator_norm(h2.eval_circle_grid(w, 1.0, grid)).max())
        if sup > 1.0 + TOL:
            raise NotContractiveOnGrid(f"grid sup norm {sup:.6g} exceeds 1 + tol")
    return w


@dataclass(frozen=True)
class Lifting:
    """A contractive intertwining lifting in truncated form."""

    problem: CLTProblem
    data: LiftingData
    w: MatPoly
    y: np.ndarray
    minimal: MinimalLifting

    def residuals(self) -> dict:
        """The intertwining residual ||U'Y - YT|| on the window, the
        2-norm of ``linalg.operator_norm``, read off the k x k Gram
        matrix of the tall block."""
        k = self.problem.window_dim
        # U'Y - YT in place
        defect = self.minimal.apply(self.y[:, :k])
        defect -= self.problem.t.right(self.y, k)
        return {"intertwining": linalg.operator_norm(defect)}


def lift(p: CLTProblem, ld: LiftingData, comp: h2.Companion, degree: int) -> Lifting:
    """Build the contractive intertwining lifting of the Schur parameter
    W = [B; A] that ``assemble_schur_W`` assembled from the coupling `ld`
    and a free parameter; `comp` is W's ``h2.Companion``.

    Y h = X h + Gamma(.) D_X h with Gamma = B (I - zA)^(-1).  With M the
    companion of A and L = ``h2.state_rows(B)``, Gamma_n = L M^n E*, so
    the transposed states X_n = (M^n)^T L^T double: X_(m..2m-1) =
    (M^m)^T X_(0..m-1), one product per power M^m, whatever dim T is.
    The ladder stops at a zero power, past which every X_n is zero.
    Gamma_n^T is the first r rows of X_n, and the series rows of Y are
    the stacked Gamma_n times Q* D_X, one product.  Y's top rows are X
    itself, copied, so P_H' Y = X holds by construction, bit for bit:
    the projection onto H' reads the rows it was written.

    The ladder of `comp` reaches at least `degree`; Y reads the prefix
    2^j <= degree.  The lifting does not hold the companion.  No command
    calls this: it is the truncated lifting the tests compare the
    identities of ``criteria`` with.
    """
    r_prime, h_dim, a = ld.basis_tprime.dim, p.x.shape[0], comp.a
    # column block n holds X_n = (M^n)^T L^T, shape len(M) x r'
    states = np.zeros((len(comp.m), (degree + 1) * r_prime), dtype=complex)
    states[:, :r_prime] = h2.state_rows(comp.b, a.degree + 1).T
    for j, power in enumerate(comp.prefix(degree)):
        done = 1 << j
        more = min(done, degree + 1 - done)
        states[:, done * r_prime : (done + more) * r_prime] = power.T @ states[:, : more * r_prime]
    y = np.empty((h_dim + (degree + 1) * r_prime, p.t.dim), dtype=complex)
    y[:h_dim] = p.x
    coords = ld.basis_x.columns.conj().T @ ld.d_x
    np.matmul(states[: a.in_dim].T, coords, out=y[h_dim:])
    ml = minimal_isometric_lifting(p.t_prime, degree, basis=ld.basis_tprime, d_tp=p.d_tprime)
    return Lifting(p, ld, comp.w, y, ml)


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
    rng_tstar = p.t.adjoint_defect_range(max(p.tol, 1e-6))
    d_xstar = linalg.defect_adjoint(p.x, p.tol)
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
