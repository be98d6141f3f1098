"""Dense complex linear algebra with tolerance-aware decisions.

Everything operates on plain complex ``numpy`` arrays.  Matrices are
immutable by convention (no function mutates its inputs).  Every
isometry question reads one measure, ``isometry_gap`` = ||M*M - I||,
against its caller's own threshold.

Two decisions about floating point noise are made in one place each,
every spectral norm is read one way, and the BLAS's thread count is set
in one place:

* the rank rule: ``rank_mask`` keeps a singular value (or an eigenvalue
  of a positive semidefinite matrix) iff it is at least
  ``RANK_TOL * max(1, largest)``.  ``kernel_basis``, ``range_basis`` and
  ``pinv`` cut there, and so does every numerical rank in the package;
* the clamp: ``defect_batch`` zeroes the eigenvalues of I - M*M below
  ``DEFECT_FLOOR`` before the square root, for one matrix or a stack.
  It hands back the eigensystem it read the root off, so a caller
  learns ||M|| (``defect`` checks its contraction there) and the range
  of the root without factoring M again;
* the norm rule: no SVD is taken for a norm.  ``operator_norm`` is
  sqrt(lambda_max) of the smaller Gram matrix, scaled by a power of two
  first so that it neither overflows nor underflows, for one matrix or
  a stack; a Hermitian matrix is normed by ``hermitian_norm``, its
  largest |eigenvalue|, with no product at all.  A norm that is only
  compared with a threshold, and never reported, is decided by
  ``norm_exceeds``: ||M|| <= ||M||_F, so a Frobenius norm at or below
  the threshold settles it with no eigendecomposition.  The self-checks
  of ``clt.explicit_coupling``, the intertwining check of
  ``clt.build_problem`` and the F(0) = I check of
  ``h2.herglotz_to_symbol`` read their residuals this way, and only a
  failing intertwining residual is normed, for its message;
* the basis check: ``SubspaceBasis(columns)`` checks that columns given
  from outside this module are orthonormal, isometry_gap within
  RANK_TOL.  ``kernel_basis``, ``range_basis``, ``orth_complement``,
  ``subspace_intersection``, ``SubspaceBasis.coordinates``, ``full``
  and ``empty`` take their columns from an SVD, a QR or the identity,
  orthonormal by construction, and do not check them again;
* the thread rule: inside ``with OneBlasThread():`` the BLAS runs on one
  thread, and on any exit it runs again on the count found on entry.
  ``cli.main`` enters it around every command, and nothing else does.
  On the scenarios and the benchmark's problems every matrix a command
  factors is at most 53 x 50, and no command builds a truncated
  lifting, whose 2052 x 25 block at degree 1024 was the tallest
  operand.  At those sizes one
  thread takes the wall time of two, and OpenBLAS's second thread only
  spins: a benchmark `lifting` pass used about twice its wall time in
  CPU time with two threads, and about once with the rule.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CLASSIFY_TOL = 1e-9
RANK_TOL = 1e-7
# eigenvalues of I - M*M below this are zeroed: sqrt would amplify 1e-16
# noise to 1e-8, and the defect of an exact isometry would not vanish
DEFECT_FLOOR = 1e-13


class LinalgError(ValueError):
    """Base class for contract violations in this module."""


class NotAContraction(LinalgError):
    pass


class DimensionMismatch(LinalgError):
    pass


@functools.cache
def blas_thread_entry_points():
    """The BLAS's (get_num_threads, set_num_threads) functions, or None.

    Looked up once, on first use and not at import: each shared object
    mapped into the process (``/proc/self/maps``) whose path names
    OpenBLAS is opened, and the first that exports both functions under
    the prefix ``scipy_openblas`` or ``openblas`` and the suffix ``64_``
    or none gives them.  That takes 0.5-0.7 ms on a 2-core Xeon, and a
    get and set about 1 us; numpy has imported ctypes already, so
    importing this module costs nothing more.  A
    numpy built on another BLAS, or a system without /proc, finds None,
    and ``OneBlasThread`` then leaves the thread count alone."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


class OneBlasThread:
    """The thread rule (module docstring): the BLAS runs on one thread
    inside the ``with`` block, and on leaving it, by a return or an
    exception, on the count it ran on before.  Without the entry points
    of ``blas_thread_entry_points`` it changes nothing."""

    def __enter__(self) -> "OneBlasThread":
        self._restore = None
        points = blas_thread_entry_points()
        if points is not None:
            get, put = points
            self._restore = functools.partial(put, get())
            put(1)
        return self

    def __exit__(self, *exc) -> None:
        if self._restore is not None:
            self._restore()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise LinalgError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise LinalgError("matrix has non-finite entries")
    return a


def operator_norm(m):
    """The spectral norm ||M|| of a matrix, a float, or of each matrix of
    a (..., rows, cols) stack, an array; 0 for an empty matrix.

    It is sqrt(lambda_max) of the smaller Gram matrix, M*M or M M*.  A
    matrix whose largest modulus lies outside [2^-301, 2^300] is first
    scaled by 2^-e, the power of two that brings that modulus into
    [1/2, 1), so its Gram entries neither overflow nor underflow to
    zero; inside that range they cannot anyway (the largest diagonal
    entry is at least 2^-602), and the matrix is used as it is, with no
    copy.  A scaling by a power of two is exact.  lambda_max is accurate
    to a few ulps of itself, so the norm agrees with the largest
    singular value to about 1e-15 relative."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise LinalgError(f"expected a matrix or a stack, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise LinalgError("matrix has non-finite entries")
    rows, cols = a.shape[-2:]
    if rows == 0 or cols == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        e = np.frexp(np.max(np.abs(a), axis=(-2, -1)))[1]
        # the floor keeps 2^-e finite for subnormal entries
        e = np.where(np.abs(e) > 300, np.maximum(e, -1021), 0)
        b = a * np.ldexp(1.0, -e)[..., None, None] if e.any() else a
        gram = adjoint_batch(b) @ b if cols <= rows else b @ adjoint_batch(b)
        norms = np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)), e)
    return float(norms) if a.ndim == 2 else norms


def norm_exceeds(m, threshold: float) -> bool:
    """||M|| > threshold, for a norm that is only compared and never
    reported.  ||M|| <= ||M||_F, so a Frobenius norm at or below the
    threshold decides it with one pass over the entries; only a larger
    one takes ``operator_norm``'s eigendecomposition.  The squares are
    compared, so the threshold's square must not underflow."""
    a = np.asarray(m, dtype=complex)
    if np.vdot(a, a).real <= threshold * threshold:
        return False
    return operator_norm(a) > threshold


def hermitian_norm(h):
    """||H|| = max |eigenvalue| of a Hermitian matrix, a float, or of each
    matrix of a stack, an array.  eigvalsh reads the lower triangle, so
    a residual that is Hermitian up to rounding is normed within that
    rounding; 0 for an empty matrix."""
    w = np.linalg.eigvalsh(h)
    norms = np.max(np.abs(w), axis=-1, initial=0.0)
    return float(norms) if w.ndim == 1 else norms


def spectral_radius(m) -> float:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("spectral radius needs a square matrix")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def isometry_gap(m) -> float:
    """||M*M - I||, how far M is from an isometry, read by
    ``hermitian_norm``; 0 for no columns."""
    a = as_matrix(m)
    if a.shape[1] == 0:
        return 0.0
    return hermitian_norm(a.conj().T @ a - np.eye(a.shape[1]))


def sq_norms(values, axis=-2) -> np.ndarray:
    """Squared moduli of a complex array summed over `axis` (an int or a
    tuple, never the last axis): by default the squared column norms of
    a matrix or of each matrix in a stack; ``axis=()`` gives |values|^2.

    One einsum over the float64 view, whose last axis interleaves real
    and imaginary parts, then the two halves of each pair added: 242
    against 581 us for summing np.abs(values) ** 2 over a 50 x 3456
    block on a 2-core Xeon.
    """
    v = np.ascontiguousarray(values, dtype=complex).view(np.float64)
    summed = {a % v.ndim for a in ((axis,) if isinstance(axis, int) else axis)}
    if v.ndim - 1 in summed:
        raise LinalgError("sq_norms does not sum over the last axis")
    idx = "abcdefghijk"[: v.ndim]
    kept = "".join(c for i, c in enumerate(idx) if i not in summed)
    s = np.einsum(f"{idx},{idx}->{kept}", v, v)
    return s[..., 0::2] + s[..., 1::2]


def adjoint_batch(values: np.ndarray) -> np.ndarray:
    """Conjugate transposes of a stack of matrices, (..., rows, cols) to
    (..., cols, rows)."""
    return np.conj(np.swapaxes(values, -1, -2))


class Defect(NamedTuple):
    """The defect (I - M*M)^(1/2) with the eigensystem it was read off."""

    root: np.ndarray  # (..., cols, cols)
    # eigenvalues of I - M*M, ascending, before the clamp: the first is 1 - ||M||^2
    eigenvalues: np.ndarray
    # eigenvalues of the root, the clamped square roots of `eigenvalues`
    roots: np.ndarray
    vectors: np.ndarray  # eigenvectors, shared by I - M*M and the root


def defect_batch(values: np.ndarray) -> Defect:
    """Defects (I - M*M)^(1/2) of one matrix or of a stack of matrices,
    with the eigensystem of I - M*M they were read off.

    values has shape (..., rows, cols); the root has shape
    (..., cols, cols).  No contraction check: callers evaluating a
    contractive function on a grid may overshoot 1 by rounding, which
    the eigenvalue clamp at DEFECT_FLOOR absorbs.
    """
    a = np.asarray(values, dtype=complex)
    gram = adjoint_batch(a) @ a
    n = gram.shape[-1]
    gram = 0.5 * (gram + adjoint_batch(gram))
    w, v = np.linalg.eigh(np.eye(n) - gram)
    roots = np.sqrt(np.where(w < DEFECT_FLOOR, 0.0, w))
    return Defect((v * roots[..., None, :]) @ adjoint_batch(v), w, roots, v)


def power_ladder(m, count: int) -> list:
    """The powers M, M^2, M^4, ..., M^(2^j) with 2^j <= count, each the
    square of the one before; empty for a count below 1.  This is the one
    squaring loop of the package: Smith's doubling (``stein_sum``), the
    Taylor trace and the rows of a lifting all read their powers off it.
    The list stops at the first power that is exactly zero, since every
    later one is zero too and would add exactly 0.0 wherever it is read."""
    powers = [as_matrix(m)] if count >= 1 else []
    while powers and powers[-1].any() and (1 << len(powers)) <= count:
        powers.append(powers[-1] @ powers[-1])
    return powers


def stein_sum(powers: list, weights, count: int, radii=None) -> tuple[np.ndarray, np.ndarray]:
    """sum_(k<count) (b^k)* N b^k for one weight N or each of an (s, n, n)
    stack, and b^count, by Smith's doubling (R. A. Smith, "Matrix
    equation XA + BX = C", SIAM J. Appl. Math. 16, 1968): S_(2m) = S_m +
    (b^m)* S_m b^m, and a count that is not a power of two adds the
    pieces its binary digits select, S_(a+m) = S_a + (b^a)* S_m b^a.
    That is log2(count) steps of a few products.

    b is M, read off the ladder powers[j] = M^(2^j) of
    ``power_ladder(M, count)``, or rho M for each rho of `radii`, summed
    at once along a new leading axis: (b^m)* S b^m = rho^(2m) (M^m)* S
    M^m, so every radius shares the products with the powers of M.

    The sum settles at rounding.  At the first step j that would double
    the piece S_(2^j) while r^(2^(j+1)) ||M^(2^j)||_F^2 <= eps/4, r the
    largest radius (1 without radii), ||b^(2^j)||^2 <= eps/4 for every
    b, and the piece stops doubling: it is added once, at the power b^a
    of the digits below j, for all the digits from j up.  What that
    drops is (b^(a + 2^j))* S' b^(a + 2^j), S' a partial sum of the
    same terms; for a positive semidefinite N it is at most eps/4 of
    ||S||, and all the later doublings together add less than eps/3 of
    it.  b^count is still multiplied off the ladder, digit by digit.  A
    ladder that stopped at a zero power settles there at the latest,
    and every later term is zero."""
    piece = np.asarray(weights, dtype=complex)
    scale, top = 1.0, 1.0
    if radii is not None:
        scale = np.asarray(radii, dtype=float).reshape((-1,) + (1,) * piece.ndim)
        top = float(np.max(scale, initial=0.0))
        piece = np.broadcast_to(piece, scale.shape[:1] + piece.shape)
    total, power, done, settled = None, None, 0, False
    for j, step in enumerate(powers):
        digit, more = (count >> j) & 1, count >> (j + 1) > 0
        if not settled:
            settled = more and _settles(step, top, j)
            if digit or settled:
                total = _stein_add(total, power, piece, scale ** (2 * done))
            if more and not settled:
                piece = piece + scale ** (2 << j) * (step.conj().T @ piece @ step)
        if digit:
            power = step if power is None else power @ step
            done += 1 << j
    if count >> len(powers):
        power = powers[-1] if power is None else power @ powers[-1]
    if power is None:
        return np.zeros_like(piece), scale ** count * np.eye(piece.shape[-1], dtype=complex)
    return total, scale ** count * power


def _settles(step: np.ndarray, top: float, j: int) -> bool:
    """The settle rule of ``stein_sum`` at step M^(2^j): r^(2^(j+1))
    ||M^(2^j)||_F^2 <= eps/4 for the largest radius r.  A zero power
    always settles; a radius above 1 settles only there, so that the
    power of r never overflows."""
    frob = np.vdot(step, step).real
    return frob == 0.0 or (top <= 1.0 and top ** (2 << j) * frob <= np.finfo(float).eps / 4)


def _stein_add(total, power, piece, weight):
    """One selected digit of ``stein_sum``: total + weight (b^a)* piece
    b^a.  The first digit starts the sum at a copy of the piece, which
    may be the caller's weights or a read-only broadcast of them, with no
    product by the identity."""
    if power is None:
        return piece.copy()
    return total + weight * (power.conj().T @ piece @ power)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of C^ambient_dim.  Columns
    given from outside this module are checked, isometry_gap within
    RANK_TOL; this module's constructors build theirs orthonormal and go
    through ``_built``, which does not check them again."""

    columns: np.ndarray

    def __post_init__(self):
        cols = as_matrix(self.columns)
        object.__setattr__(self, "columns", cols)
        if isometry_gap(cols) > RANK_TOL:
            raise LinalgError("columns are not orthonormal within RANK_TOL")

    @classmethod
    def _built(cls, columns: np.ndarray) -> "SubspaceBasis":
        """A basis whose complex columns an SVD, a QR or the identity
        made orthonormal, taken as it is."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "columns", columns)
        return basis

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        return self.columns @ self.columns.conj().T

    @staticmethod
    def full(n: int) -> "SubspaceBasis":
        return SubspaceBasis.coordinates(n, n)

    @staticmethod
    def coordinates(n: int, k: int) -> "SubspaceBasis":
        """The first k coordinate vectors of C^n."""
        return SubspaceBasis._built(np.eye(n, k, dtype=complex))

    @staticmethod
    def empty(n: int) -> "SubspaceBasis":
        return SubspaceBasis.coordinates(n, 0)


def defect(m, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Defect operator (I - M*M)^(1/2) of a contraction M.

    Raises NotAContraction when ||M|| exceeds 1 + tol, read off the
    smallest eigenvalue 1 - ||M||^2 of I - M*M that the root is taken
    from: ||M|| > 1 + tol iff it is below -tol (2 + tol).  Inside the
    tolerance band, defect_batch's clamp zeroes the eigenvalues of
    I - M*M that round below zero.
    """
    d = defect_batch(as_matrix(m))
    least = float(np.min(d.eigenvalues, initial=1.0))
    if least < -tol * (2.0 + tol):
        raise NotAContraction(f"norm {np.sqrt(1.0 - least):.6g} exceeds 1 + tol")
    return d.root


def defect_adjoint(m, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Defect of the adjoint, (I - M M*)^(1/2)."""
    return defect(as_matrix(m).conj().T, tol)


def rank_mask(values) -> np.ndarray:
    """The rank rule: which of the values along the last axis count.

    values are singular values, or eigenvalues of a positive
    semidefinite matrix; those at least RANK_TOL * max(1, largest) are
    kept, and rounding noise below zero never is.  Every numerical rank
    in the package is the count of this mask.
    """
    v = np.asarray(values, dtype=float)
    top = np.max(v, axis=-1, keepdims=True, initial=0.0)
    return v >= RANK_TOL * np.maximum(1.0, top)


def kernel_basis(m) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel: the right singular
    vectors whose singular values rank_mask drops."""
    return _kernel_svd(as_matrix(m))[0]


def kernel_and_adjoint_pinv(m) -> tuple[SubspaceBasis, np.ndarray]:
    """``kernel_basis(M)`` and the pseudo-inverse of M*, read off one SVD
    M = U S V*: the kernel is spanned by the columns of V past the
    rank_mask rank, and (M*)^+ = U S^+ V* inverts the singular values
    rank_mask keeps, as ``pinv`` does.  The kernel has the bits
    ``kernel_basis`` gives; the pseudo-inverse agrees with ``pinv(M*)``
    to rounding, not bit for bit, since ``pinv`` runs numpy's arithmetic
    on an SVD of conj(M*)."""
    a = as_matrix(m)
    basis, svd = _kernel_svd(a)
    if svd is None:
        return basis, np.zeros(a.shape, dtype=complex)
    u, s, vh, rank = svd
    return basis, (u[:, :rank] / s[:rank]) @ vh[:rank]


def _kernel_svd(a: np.ndarray):
    """The kernel basis of a matrix and the SVD (u, s, vh, rank) it was
    read off; no SVD for an empty matrix, whose kernel is every column."""
    if a.size == 0:
        return SubspaceBasis.full(a.shape[1]), None
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(rank_mask(s)))
    return SubspaceBasis._built(vh[rank:].conj().T), (u, s, vh, rank)


def range_basis(m) -> SubspaceBasis:
    """Orthonormal basis of the numerical range (column space)."""
    a = as_matrix(m)
    if a.shape[1] == 0 or a.shape[0] == 0:
        return SubspaceBasis.empty(a.shape[0])
    u, s, _ = np.linalg.svd(a)
    rank = int(np.sum(rank_mask(s)))
    return SubspaceBasis._built(u[:, :rank])


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, inverting exactly the singular
    values rank_mask keeps, so it agrees with kernel_basis and
    range_basis on the rank.  The arithmetic is numpy's own
    pseudo-inverse (an SVD of the conjugate), whose results it
    reproduces bit for bit wherever the two cuts agree; an empty
    (rows, cols) input gives an empty (cols, rows) result, as there."""
    a = as_matrix(m).conj()
    if a.size == 0:
        return np.zeros(a.shape[::-1], dtype=complex)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=rank_mask(s))
    return vt.T @ (inv[:, None] * u.T)


def orth_complement(basis: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement within the ambient space."""
    return kernel_basis(basis.columns.conj().T)


def subspace_intersection(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two subspaces via principal angles.

    Directions whose principal-angle cosine is at least 1 - RANK_TOL
    are kept; this cut is its own decision, not the rank rule.  Compare
    results through projectors, not through the returned column
    vectors, which are basis dependent.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if u.dim == 0 or v.dim == 0:
        return SubspaceBasis.empty(u.ambient_dim)
    uu, ss, _ = np.linalg.svd(u.columns.conj().T @ v.columns)
    keep = np.sum(ss >= 1.0 - RANK_TOL)
    if keep == 0:
        return SubspaceBasis.empty(u.ambient_dim)
    raw = u.columns @ uu[:, :keep]
    # re-orthonormalize; cosines slightly below 1 leave the columns a hair off
    q, _ = np.linalg.qr(raw)
    return SubspaceBasis._built(q[:, :keep])


def find_non_c0dot_witness(t, tol: float = CLASSIFY_TOL):
    """The spectral radius of a contraction T, and an eigenpair
    certifying that adjoint powers of T do not vanish.  The radius is
    read off the eigenvalues; the eigenvectors are computed, with the
    eigenvalues again, only when the radius is at least 1 - tol.

    The pair is (lam, h) with |lam| >= 1 - tol and h a unit eigenvector
    of T, or None when every eigenvalue lies strictly inside the disc.
    The bounded sequence h_n = lam^(-n) h then satisfies h_n = T h_{n+1}.
    Ties are broken deterministically: largest modulus first, then
    smallest argument in [0, 2pi).
    """
    a = as_matrix(t)
    if operator_norm(a) > 1.0 + tol:
        raise NotAContraction("input is not a contraction")
    if a.size == 0:
        return 0.0, None
    # eigenvectors only when there may be a witness to read off them
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    if radius < 1.0 - tol:
        return radius, None
    lams, vecs = np.linalg.eig(a)
    radius = float(np.max(np.abs(lams)))
    # quantize moduli so conjugate pairs compare as ties and the argument decides
    order = sorted(
        range(len(lams)),
        key=lambda i: (-round(abs(lams[i]), 12), np.angle(lams[i]) % (2.0 * np.pi)),
    )
    best = order[0]
    if abs(lams[best]) < 1.0 - tol:
        return radius, None
    h = vecs[:, best]
    h = h / np.linalg.norm(h)
    # pin the phase so the witness is reproducible across BLAS builds
    k = int(np.argmax(np.abs(h)))
    h = h * (abs(h[k]) / h[k])
    return radius, (complex(lams[best]), h)
