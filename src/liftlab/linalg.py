"""Dense complex linear algebra with tolerance-aware classification.

Everything operates on plain complex ``numpy`` arrays.  Matrices are
immutable by convention (no function mutates its inputs) and all
decisions that depend on floating point noise take an explicit
tolerance, with library-wide defaults ``CLASSIFY_TOL`` for operator
classification and ``RANK_TOL`` for numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CLASSIFY_TOL = 1e-9
RANK_TOL = 1e-7


class LinalgError(ValueError):
    """Base class for contract violations in this module."""


class NotAContraction(LinalgError):
    pass


class DimensionMismatch(LinalgError):
    pass


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise LinalgError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise LinalgError("matrix has non-finite entries")
    return a


def operator_norm(m) -> float:
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def spectral_radius(m) -> float:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("spectral radius needs a square matrix")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def hermitian_part(m) -> np.ndarray:
    a = as_matrix(m)
    return 0.5 * (a + a.conj().T)


def psd_sqrt(h) -> np.ndarray:
    """Square root of a Hermitian matrix, clamping negative eigenvalues at 0.

    Eigenvalues below rounding noise (1e-13 relative) are zeroed before
    the square root; otherwise sqrt would amplify 1e-16 noise to 1e-8
    and the defect of an exact isometry would not vanish.
    """
    a = hermitian_part(h)
    if a.size == 0:
        return a
    w, v = np.linalg.eigh(a)
    floor = 1e-13 * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    w = np.where(w < floor, 0.0, w)
    w = np.sqrt(w)
    return (v * w) @ v.conj().T


def adjoint_batch(values: np.ndarray) -> np.ndarray:
    """Conjugate transposes of a stack of matrices, (..., rows, cols) to
    (..., cols, rows)."""
    return np.conj(np.swapaxes(values, -1, -2))


def defect_batch(values: np.ndarray) -> np.ndarray:
    """Pointwise defects (I - M*M)^(1/2) for a stack of matrices.

    values has shape (..., rows, cols); the result has shape
    (..., cols, cols).  No contraction check: callers evaluating a
    contractive function on a grid may overshoot 1 by rounding, which
    the eigenvalue clamp absorbs.
    """
    a = np.asarray(values, dtype=complex)
    gram = adjoint_batch(a) @ a
    n = gram.shape[-1]
    gram = 0.5 * (gram + adjoint_batch(gram))
    w, v = np.linalg.eigh(np.eye(n) - gram)
    floor = 1e-13
    w = np.sqrt(np.where(w < floor, 0.0, w))
    return (v * w[..., None, :]) @ adjoint_batch(v)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of C^ambient_dim."""

    columns: np.ndarray
    tol: float = RANK_TOL

    def __post_init__(self):
        cols = as_matrix(self.columns)
        object.__setattr__(self, "columns", cols)
        gram = cols.conj().T @ cols
        if gram.size and np.linalg.norm(gram - np.eye(cols.shape[1]), 2) > max(self.tol, 1e-10):
            raise LinalgError("columns are not orthonormal within tol")

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
        return SubspaceBasis(np.eye(n, dtype=complex))

    @staticmethod
    def empty(n: int) -> "SubspaceBasis":
        return SubspaceBasis(np.zeros((n, 0), dtype=complex))


def defect(m, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Defect operator (I - M*M)^(1/2) of a contraction M.

    Raises NotAContraction when the largest singular value exceeds
    1 + tol; inside the tolerance band, eigenvalues of I - M*M that
    round below zero are clamped to 0 before the square root.
    """
    a = as_matrix(m)
    if operator_norm(a) > 1.0 + tol:
        raise NotAContraction(f"norm {operator_norm(a):.6g} exceeds 1 + tol")
    n = a.shape[1]
    return psd_sqrt(np.eye(n) - a.conj().T @ a)


def defect_adjoint(m, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Defect of the adjoint, (I - M M*)^(1/2)."""
    return defect(as_matrix(m).conj().T, tol)


def classify(m, tol: float = CLASSIFY_TOL) -> frozenset:
    """Report every operator class that holds within tol.

    Possible members: "contraction", "isometry", "coisometry",
    "unitary", "partial_isometry".  The result is monotone by
    construction: unitary implies isometry and coisometry, and any of
    those implies partial_isometry and contraction.  An empty set means
    not even a contraction.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    out = set()
    if operator_norm(a) <= 1.0 + tol:
        out.add("contraction")
    gram = a.conj().T @ a
    cogram = a @ a.conj().T
    isometry = bool(np.linalg.norm(gram - np.eye(cols), 2) <= tol)
    coisometry = bool(np.linalg.norm(cogram - np.eye(rows), 2) <= tol)
    partial = bool(np.linalg.norm(a @ gram - a, 2) <= tol)
    if isometry:
        out.add("isometry")
    if coisometry:
        out.add("coisometry")
    if isometry and coisometry:
        out.add("unitary")
    if partial or isometry or coisometry:
        out.add("partial_isometry")
    if isometry or coisometry:
        out.add("contraction")
    return frozenset(out)


def kernel_basis(m, tol: float = RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel (singular values < tol)."""
    a = as_matrix(m)
    if a.shape[1] == 0:
        return SubspaceBasis.empty(0)
    if a.shape[0] == 0:
        return SubspaceBasis.full(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    cut = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s >= cut))
    return SubspaceBasis(vh[rank:].conj().T, tol)


def range_basis(m, tol: float = RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the numerical range (column space)."""
    a = as_matrix(m)
    if a.shape[1] == 0 or a.shape[0] == 0:
        return SubspaceBasis.empty(a.shape[0])
    u, s, _ = np.linalg.svd(a)
    cut = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s >= cut))
    return SubspaceBasis(u[:, :rank], tol)


def orth_complement(basis: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement within the ambient space."""
    n = basis.ambient_dim
    if basis.dim == 0:
        return SubspaceBasis.full(n)
    return kernel_basis(basis.columns.conj().T, basis.tol)


def subspace_intersection(u: SubspaceBasis, v: SubspaceBasis, tol: float = RANK_TOL) -> SubspaceBasis:
    """Intersection of two subspaces via principal angles.

    Directions whose principal-angle cosine is at least 1 - tol are
    kept.  Compare results through projectors, not through the returned
    column vectors, which are basis dependent.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if u.dim == 0 or v.dim == 0:
        return SubspaceBasis.empty(u.ambient_dim)
    uu, ss, _ = np.linalg.svd(u.columns.conj().T @ v.columns)
    keep = np.sum(ss >= 1.0 - tol)
    if keep == 0:
        return SubspaceBasis.empty(u.ambient_dim)
    raw = u.columns @ uu[:, :keep]
    # re-orthonormalize; cosines slightly below 1 leave the columns a hair off
    q, _ = np.linalg.qr(raw)
    return SubspaceBasis(q[:, :keep], tol)


def find_non_c0dot_witness(t, tol: float = CLASSIFY_TOL):
    """Eigenpair certifying that adjoint powers of T do not vanish.

    Returns (lam, h) with |lam| >= 1 - tol and h a unit eigenvector of
    T, or None when every eigenvalue lies strictly inside the disc.
    The bounded sequence h_n = lam^(-n) h then satisfies h_n = T h_{n+1}.
    Ties are broken deterministically: largest modulus first, then
    smallest argument in [0, 2pi).
    """
    a = as_matrix(t)
    if operator_norm(a) > 1.0 + tol:
        raise NotAContraction("input is not a contraction")
    if a.size == 0:
        return None
    lams, vecs = np.linalg.eig(a)
    # quantize moduli so conjugate pairs compare as ties and the argument decides
    order = sorted(
        range(len(lams)),
        key=lambda i: (-round(abs(lams[i]), 12), np.angle(lams[i]) % (2.0 * np.pi)),
    )
    best = order[0]
    if abs(lams[best]) < 1.0 - tol:
        return None
    h = vecs[:, best]
    h = h / np.linalg.norm(h)
    # pin the phase so the witness is reproducible across BLAS builds
    k = int(np.argmax(np.abs(h)))
    h = h * (abs(h[k]) / h[k])
    return complex(lams[best]), h
