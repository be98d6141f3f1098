"""Truncated Taylor series on the unit disc and their circle-grid numerics.

A ``MatPoly`` is a matrix-valued polynomial sum(P_k z^k) standing in for
an analytic operator function.  Degrees and grid sizes are explicit
everywhere: limits toward the boundary are replaced by evaluations on
rho-circles, and a K-point uniform grid integrates trigonometric
polynomials of degree < K exactly, so every Parseval-type statement
below is exact once K >= 2*degree + 1.  A constant evaluates on a grid
as a read-only broadcast of its one coefficient, with no FFT.

Series layer.  ``realize`` turns A(z) = sum_(j<=p) A_j z^j into its
companion M, of size dim (p + 1), and coefficient n of Q(z) (I - z
A(z))^(-1) d is ``state_rows(Q)`` M^n E* d, E* = [I; 0].  So every
series the lifting and the isometry criteria need is read off the
powers M, M^2, M^4, ... of ``linalg.power_ladder``, squared once per
symbol and held by its ``Companion``, with the symbol W = [B; A] split
once: the criteria Stein-sum the powers, the Hardy sum once per
companion (``Companion.hardy_sum``), and ``clt.lift``, the tests'
truncated lifting, doubles the stacked states of Y's coefficients, one
product per power.  The convolution recursion is written once, in
``resolvent_terms``, which returns the first `count` coefficients of
(I - z A(z))^(-1) C(z), stacked; ``_neumann_coeffs`` runs it with C =
I, and ``criteria.intertwining_norm`` on the p + 1 terms of the
residual of the coupling identity.

Dense inverses go through one kernel for (I - z S(z))^(-1):
``neumann_inverse`` hands it A, ``series_inverse`` normalises P = P_0
(I - z S) once.  ``herglotz_to_symbol`` reads A off J = (F + I)^(-1)
alone: zA = (F + I)^(-1) (F - I) = I - 2J, so A_k = -2 J_(k+1), with
no product.  For an S with `terms` coefficients of size dim x dim,
inverted through `degree`, Newton doubling (Brent & Kung, "Fast
algorithms for manipulating formal power series", JACM 1978) runs when
min(terms, degree) >= NEWTON_TERMS_PER_DIM * dim, the recursion on the
identity otherwise.  Its FFTs hold the coefficients on the last axis
and take the spectra node-last, so a product is one einsum over all
nodes, at the least 2^a 3^b 5^c length that holds it.  ``polymul``
sums term by term unless both truncated factors have FFT_MIN_TERMS
coefficients or more.  Measured on a 2-core Xeon at degree 1024,
recursion / Newton in ms, medians of 5:

    dim  terms   recursion  Newton
      1      1       5.9      1.5
      1      8      40        1.1
      1   1024    1735        1.0
      3      1       3.5      2.5
      3      8      23        2.0
      3    128     426        2.2
      8      4      15       17
      8     16      50       15
     25     32     270      326
     25     64     507      323
     50      1      45     2591

Constant symbols stay on the recursion even at dims 1 and 3, where
Newton is faster: the recursion's error in each coefficient is relative
to that coefficient, the FFT's to the largest one, and
``neumann_inverse`` is the tests' per-coefficient oracle, decaying
tails included.  Degree-1024 products: 6 ms direct against 0.2 ms FFT
at dim 1, 207 against 2.2 ms at dim 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg

DEFAULT_DEGREE = 256
DEFAULT_GRID = 2048
LOG_FLOOR = 1e-12
# crossovers of the series kernel, measured (see the module docstring)
FFT_MIN_TERMS = 8
NEWTON_TERMS_PER_DIM = 2


class H2Error(ValueError):
    pass


class GridTooCoarse(H2Error):
    pass


class NotSquare(H2Error):
    pass


class AllZeroModulus(H2Error):
    pass


@dataclass(frozen=True)
class MatPoly:
    """Matrix-valued polynomial; coeffs[k] is the degree-k coefficient."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3:
            raise H2Error("coeffs must have shape (degree+1, out_dim, in_dim)")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def out_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def in_dim(self) -> int:
        return self.coeffs.shape[2]

    def __call__(self, z: complex) -> np.ndarray:
        """Value at a point of the closed disc: the coefficients summed
        against the powers 1, z, z^2, ... in one tensordot."""
        powers = np.full(self.degree + 1, z, dtype=complex)
        powers[0] = 1.0
        return np.tensordot(np.cumprod(powers), self.coeffs, axes=1)

    def block_rows(self, split: int) -> tuple["MatPoly", "MatPoly"]:
        return MatPoly(self.coeffs[:, :split, :]), MatPoly(self.coeffs[:, split:, :])

    @staticmethod
    def constant(matrix) -> "MatPoly":
        m = linalg.as_matrix(matrix)
        return MatPoly(m[np.newaxis, :, :])

    @staticmethod
    def zero(out_dim: int, in_dim: int, degree: int = 0) -> "MatPoly":
        return MatPoly(np.zeros((degree + 1, out_dim, in_dim), dtype=complex))

    @staticmethod
    def from_scalar_coeffs(seq) -> "MatPoly":
        c = np.asarray(seq, dtype=complex)
        return MatPoly(c.reshape(-1, 1, 1))


def check_radius(rho: float) -> float:
    """rho itself, once it is known to lie in (0, 1]."""
    if not (0.0 < rho <= 1.0):
        raise H2Error("rho must lie in (0, 1]")
    return rho


def eval_circle_grid(p: MatPoly, rho, grid: int) -> np.ndarray:
    """Evaluate P at the nodes rho*exp(2*pi*i*k/grid), k = 0..grid-1.

    The trapezoid mean over this grid integrates trigonometric
    polynomials of degree < grid exactly; grid must cover twice the
    polynomial degree for quadratic quantities, hence the guard.  A
    constant takes the same value at every node and is returned as a
    read-only broadcast of its one coefficient, without an FFT.

    rho is one radius, giving shape (grid, rows, cols), or a 1-d ladder
    of radii, giving a leading rung axis, shape (rungs, grid, rows,
    cols): the coefficients of every rung are weighted and transformed
    by one FFT over the stack.  One radius keeps the bits of the
    one-radius transform, and rung k of a ladder is the call at rho[k]
    within rounding.
    """
    radii = _radii(rho)
    if grid < 2 * p.degree + 1:
        raise GridTooCoarse(f"grid {grid} < 2*degree+1 = {2 * p.degree + 1}")
    if p.degree == 0:
        return np.broadcast_to(p.coeffs[0], radii.shape + (grid,) + p.coeffs.shape[1:])
    padded = np.zeros(radii.shape + (grid,) + p.coeffs.shape[1:], dtype=complex)
    scale = radii[..., None] ** np.arange(p.degree + 1)
    np.multiply(p.coeffs, scale[..., None, None], out=padded[..., : p.degree + 1, :, :])
    vals = np.fft.ifft(padded, axis=radii.ndim)
    vals *= grid
    return vals


def _radii(rho) -> np.ndarray:
    """rho as a 0-d or 1-d float array, each radius checked by
    ``check_radius`` in ladder order."""
    radii = np.asarray(rho, dtype=float)
    if radii.ndim > 1:
        raise H2Error("rho must be a radius or a 1-d ladder of radii")
    for r in radii.reshape(-1):
        check_radius(r)
    return radii


def circle_nodes(rho, grid: int) -> np.ndarray:
    """The nodes rho*exp(2*pi*i*k/grid): shape (grid,) for one radius,
    (rungs, grid) for a 1-d ladder, the roots of unity formed once."""
    # complex radii give the same products, and a float-by-complex broadcast is slow
    return np.asarray(rho, dtype=complex)[..., None] * np.exp(2j * np.pi * np.arange(grid) / grid)


def pad_coeffs(p: MatPoly, degree: int) -> MatPoly:
    if p.degree >= degree:
        return MatPoly(p.coeffs[: degree + 1])
    shape = (degree + 1 - p.coeffs.shape[0],) + p.coeffs.shape[1:]
    return MatPoly(np.concatenate([p.coeffs, np.zeros(shape, dtype=complex)], axis=0))


def state_rows(q: MatPoly, terms: int) -> np.ndarray:
    """The constant row [Q_0 ... Q_(terms-1)] that reads Q(z) d(z) off the
    companion state of ``realize``, for terms >= deg Q + 1."""
    c = pad_coeffs(q, terms - 1).coeffs
    return c.transpose(1, 0, 2).reshape(q.out_dim, terms * q.in_dim)


def realize(a: MatPoly) -> np.ndarray:
    """The companion M of A(z) = sum_(j<=p) A_j z^j, first block row
    [A_0 ... A_p] and identities below it: M^n E* d = (Z_n, ...,
    Z_(n-p)), E* = [I; 0], Z_n the coefficients of (I - z A(z))^(-1) d
    and Z_(-k) = 0.  A constant A is M itself."""
    dim, terms = a.in_dim, a.degree + 1
    m = np.eye(dim * terms, k=-dim, dtype=complex)
    m[:dim] = state_rows(a, terms)
    return m


class Companion:
    """A Schur symbol W, its square block A(z) = sum_(j<=p) A_j z^j from
    row `start`, the rest B of its rows, A's companion M = ``realize(A)``
    and the ladder M, M^2, ..., M^(2^j), 2^j <= count, of
    ``linalg.power_ladder``, which stops at the first zero power.  W is
    split here only, so A, B and the powers are always W's own.  A
    command builds one per symbol (``criteria.companion``) and hands it,
    as the symbol, to every check, the Hardy limit and the lifting.  M
    and the ladder are built on their first read, so a companion whose
    powers nobody reads costs no product."""

    def __init__(self, w: MatPoly, start: int, count: int):
        dim, c = w.in_dim, w.coeffs
        self.w, self.start, self.count = w, start, count
        self.a = MatPoly(c[:, start : start + dim])
        self.b = MatPoly(np.concatenate([c[:, :start], c[:, start + dim :]], axis=1))
        self._hardy = {}

    @cached_property
    def m(self) -> np.ndarray:
        return realize(self.a)

    @cached_property
    def powers(self) -> list:
        return linalg.power_ladder(self.m, self.count)

    def prefix(self, count: int) -> list:
        """The powers M^(2^j) with 2^j <= count: the ladder
        ``linalg.power_ladder(M, count)`` would build, with its bits."""
        if count > self.count:
            raise H2Error(f"the ladder reaches {self.count}, not {count}")
        return self.powers[: max(count, 0).bit_length()]

    @cached_property
    def column_norms(self) -> list:
        """||M^(2^j) E*||_F for each power of the ladder, E* = [I; 0]: the
        values of the Taylor trace, read once."""
        return [float(np.linalg.norm(p[:, : self.a.in_dim])) for p in self.powers]

    def hardy_sum(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``linalg.stein_sum`` of the weight L*L, L = ``state_rows(B)``,
        over the ladder through `count`, and M^count: the Stein sum of the
        H^2 norm of B (I - zA)^(-1) s on states s.  Summed on the first
        read of a count and kept, so every Gram matrix read off one
        companion shares one sum."""
        if count not in self._hardy:
            rows = state_rows(self.b, self.a.degree + 1)
            self._hardy[count] = linalg.stein_sum(self.prefix(count), rows.conj().T @ rows, count)
        return self._hardy[count]


def vstack_polys(top: MatPoly, bottom: MatPoly) -> MatPoly:
    deg = max(top.degree, bottom.degree)
    t = pad_coeffs(top, deg)
    b = pad_coeffs(bottom, deg)
    return MatPoly(np.concatenate([t.coeffs, b.coeffs], axis=1))


def polymul(p: MatPoly, q: MatPoly, degree: int | None = None) -> MatPoly:
    """Product of matrix polynomials, truncated to the requested degree.

    Summed term by term unless both truncated factors have at least
    FFT_MIN_TERMS coefficients; then one FFT product along the
    coefficient axis.
    """
    if p.in_dim != q.out_dim:
        raise H2Error("inner dimensions do not match")
    full = p.degree + q.degree
    deg = full if degree is None else min(degree, full)
    pc, qc = p.coeffs[: deg + 1], q.coeffs[: deg + 1]
    if min(pc.shape[0], qc.shape[0]) >= FFT_MIN_TERMS:
        size = _fft_size(pc.shape[0] + qc.shape[0] - 1)
        p_hat = _spectrum(np.moveaxis(pc, 0, -1), size)
        prod = _fft_product(p_hat, _spectrum(np.moveaxis(qc, 0, -1), size), 0, deg + 1)
        return MatPoly(np.moveaxis(prod, -1, 0))
    out = np.zeros((deg + 1, p.out_dim, q.in_dim), dtype=complex)
    for k in range(pc.shape[0]):
        hi = min(q.degree, deg - k)
        out[k : k + hi + 1] += pc[k] @ qc[: hi + 1]
    return MatPoly(out)


def _fft_size(terms: int) -> int:
    """The smallest 2^a 3^b 5^c at or above `terms`: a length the FFT
    factors into radix-2, 3 and 5 passes (Frigo & Johnson, "The Design
    and Implementation of FFTW3", Proc. IEEE 2005)."""
    best = 1 << max(terms - 1, 0).bit_length()
    odd = 1
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << max(-(-terms // part) - 1, 0).bit_length())
            part *= 3
        odd *= 5
    return best


def _spectrum(c: np.ndarray, size: int) -> np.ndarray:
    """The length-`size` FFT of coefficients stacked on the last axis,
    shape (n, m, terms): node axis last, shape (n, m, size)."""
    return np.fft.fft(c, size, axis=-1)


def _fft_product(p_hat: np.ndarray, q_hat: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1, stacked on the last axis, of the cyclic
    product of two node-last spectra: the products at every node summed
    over the inner index in one einsum, then one inverse FFT."""
    return np.fft.ifft(np.einsum("ikl,kjl->ijl", p_hat, q_hat), axis=-1)[..., lo:hi]


def neumann_inverse(a: MatPoly, degree: int) -> MatPoly:
    """Expansion of (I - z*A(z))^(-1) through the requested degree.

    The output J satisfies J_0 = I and (I - z A(z)) J(z) = I up to
    O(z^(degree+1)); see ``series_inverse`` for the two algorithms.
    """
    if a.out_dim != a.in_dim:
        raise NotSquare("A(z) must be square")
    return MatPoly(_neumann_coeffs(a.coeffs, degree))


def resolvent_apply_grid(a: MatPoly, d, rho, grid: int) -> np.ndarray:
    """Values (I - z A(z))^(-1) d on the rho-circle.

    d is either a vector of length dim, giving shape (grid, dim), or a
    (dim, m) block of columns, giving shape (grid, dim, m): one
    factorisation per node serves every column, and the identity block
    gives the resolvent (I - z A(z))^(-1) itself.  A 1-d ladder rho
    adds a leading rung axis, as in ``eval_circle_grid``: A is
    transformed once for every rung, the nodes rho w^k are formed from
    one set of roots of unity w^k, and every node of every rung is
    solved in one batch.  Solves one linear system per node instead of
    summing a truncated Neumann series; reliable even when the series
    coefficients do not decay, e.g. near a singular boundary point.  A 1
    x 1 system is a division, 60 times cheaper than batched LAPACK on
    4096 nodes; a node where 1 - z A(z) is exactly zero raises
    LinAlgError, as solve does.
    """
    if a.out_dim != a.in_dim:
        raise NotSquare("A(z) must be square")
    d = np.asarray(d, dtype=complex)
    block = d if d.ndim == 2 else d.reshape(-1, 1)
    # I - z A(z) as one array: -z A(z), then 1 added on the diagonal in place
    systems = eval_circle_grid(a, rho, grid) * (-circle_nodes(rho, grid))[..., None, None]
    diag = np.arange(a.in_dim)
    systems[..., diag, diag] += 1.0
    if a.in_dim == 1:
        if not systems.all():
            raise np.linalg.LinAlgError("Singular matrix")
        out = block / systems
    else:
        out = np.linalg.solve(systems, np.broadcast_to(block, systems.shape[:-2] + block.shape))
    return out if d.ndim == 2 else out[..., 0]


@dataclass(frozen=True)
class CircleMeasure:
    """Positive measure on the unit circle: piecewise-constant density
    pieces (theta_start, theta_end, value) against dtheta/(2*pi), plus
    point masses (theta, mass)."""

    density_pieces: tuple = ()
    point_masses: tuple = ()

    def __post_init__(self):
        pieces = tuple((float(a), float(b), float(v)) for a, b, v in self.density_pieces)
        masses = tuple((float(t), float(m)) for t, m in self.point_masses)
        for a, b, v in pieces:
            if not (0.0 <= a < b <= 2.0 * np.pi):
                raise H2Error("density piece must satisfy 0 <= start < end <= 2*pi")
            if v < 0:
                raise H2Error("density value must be nonnegative")
        for (a1, b1, _), (a2, b2, _) in zip(pieces, pieces[1:]):
            if b1 > a2 + 1e-15:
                raise H2Error("density pieces overlap")
        for _, m in masses:
            if m < 0:
                raise H2Error("point mass must be nonnegative")
        object.__setattr__(self, "density_pieces", pieces)
        object.__setattr__(self, "point_masses", masses)

    def total_mass(self) -> float:
        dens = sum(v * (b - a) for a, b, v in self.density_pieces) / (2.0 * np.pi)
        return dens + sum(m for _, m in self.point_masses)


def herglotz_from_measure(mu: CircleMeasure, degree: int) -> MatPoly:
    """Taylor expansion of the circle average of (zeta+z)/(zeta-z).

    Normalized so that Lebesgue density 1 gives the constant 1; the
    coefficients are mu's total mass followed by twice its moments.
    """
    n = np.arange(1, degree + 1)
    # the moments, integrals of conj(zeta)^n against mu, for every n at once
    moments = np.zeros(degree, dtype=complex)
    for a, b, v in mu.density_pieces:
        moments += v * (np.exp(-1j * n * b) - np.exp(-1j * n * a)) / (-2j * np.pi * n)
    for t, m in mu.point_masses:
        moments += m * np.exp(-1j * n * t)
    return MatPoly.from_scalar_coeffs(np.concatenate([[mu.total_mass()], 2.0 * moments]))


def herglotz_from_A(a: MatPoly, degree: int) -> MatPoly:
    """Expansion of (I + z A(z))(I - z A(z))^(-1); real part is PSD on the disc."""
    j = neumann_inverse(a, degree)
    coeffs = 2.0 * j.coeffs.copy()
    coeffs[0] -= np.eye(a.in_dim)
    return MatPoly(coeffs)


def herglotz_to_symbol(f: MatPoly, degree: int) -> MatPoly:
    """Invert the resolvent transform: the A with (I+zA)(I-zA)^(-1) = F.

    Requires F(0) = I (so the quotient vanishes at the origin and the
    division by z is exact).  Inverse of herglotz_from_A up to
    truncation.  With J = (F + I)^(-1), zA = (F + I)^(-1) (F - I) =
    I - 2J, so A_k = -2 J_(k+1) with no product, exact also after
    truncation.  The output degree is capped at f.degree - 1: the
    division shifts degrees down by one, so the coefficient at
    f.degree would need data beyond the input's truncation.
    """
    dim = f.in_dim
    if f.out_dim != dim:
        raise NotSquare("Herglotz data must be square")
    if linalg.norm_exceeds(f.coeffs[0] - np.eye(dim), 1e-10):
        raise H2Error("transform inversion needs F(0) = I")
    eff = min(degree, max(f.degree - 1, 0))
    den = f.coeffs.copy()
    den[0] += np.eye(dim)
    return MatPoly(-2.0 * series_inverse(MatPoly(den), eff + 1).coeffs[1:])


def series_inverse(p: MatPoly, degree: int) -> MatPoly:
    """Multiplicative inverse of a square polynomial with invertible P_0.

    P = P_0 (I - z S(z)) with S_(k-1) = -P_0^(-1) P_k, so the inverse is
    (I - z S)^(-1) P_0^(-1): one normalisation, then the kernel.  For
    short S the kernel runs the convolution recursion
    J_n = sum_{k=1..n} S_(k-1) J_(n-k); for long S Newton doubling
    (Brent & Kung, JACM 1978), Q <- Q + Q (I - P Q) mod z^(2m), each
    product an FFT along the coefficient axis with one einsum over the
    nodes.  Long means p.degree (capped at the requested degree) >=
    NEWTON_TERMS_PER_DIM * dim.  Measured at degree 1024 (table in the
    module docstring), Newton wins from 1 term at dims 1 and 3, from
    between 4 and 16 at dim 8 and from between 32 and 64 at dim 25; a
    constant 50 x 50 symbol takes 45 ms on the recursion and 2.6 s with
    Newton.  The normalisation forms P_0^(-1) P_k and J_k P_0^(-1) as
    one product each over the stacked coefficients.
    """
    if p.out_dim != p.in_dim:
        raise NotSquare("series inverse needs a square polynomial")
    q0 = np.linalg.inv(p.coeffs[0])
    s = -np.tensordot(q0, p.coeffs[1:], axes=(1, 1)).transpose(1, 0, 2)
    return MatPoly(np.tensordot(_neumann_coeffs(s, degree), q0, axes=(2, 0)))


def _newton_pays(terms: int, dim: int, degree: int) -> bool:
    """Whether Newton doubling beats the recursion for an S with `terms`
    coefficients of size dim x dim, inverted through `degree`."""
    return min(terms, degree) >= NEWTON_TERMS_PER_DIM * dim


def _neumann_coeffs(s: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0..degree of (I - z S(z))^(-1), s[k] = S_k."""
    if _newton_pays(s.shape[0], s.shape[1], degree):
        return _newton_inverse(s, degree)
    return resolvent_terms(s, np.eye(s.shape[1])[None], degree + 1)


def resolvent_terms(a: np.ndarray, c: np.ndarray, count: int) -> np.ndarray:
    """The coefficients Z_0 .. Z_(count-1) of (I - z A(z))^(-1) C(z),
    a[j] = A_j square and c[k] = C_k of shape (n, m) or (n,), stacked
    into shape (count,) + c.shape[1:]: Z_n = C_n + sum over j <= deg A of
    A_j Z_(n-1-j), added from j = 0 up; an empty a gives Z_n = C_n."""
    out = np.zeros((count,) + c.shape[1:], dtype=complex)
    out[: len(c)] = c[:count]
    for n in range(count):
        for j in range(min(n, len(a))):
            out[n] += a[j] @ out[n - 1 - j]
    return out


def _newton_inverse(s: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0..degree of P^(-1), P = I - z S, by Newton doubling.

    With Q exact through z^(m-1), P Q = I + z^m E, and the correction
    -z^m Q E extends Q through z^(m'-1), m' <= 2m.  E is read from the
    cyclic product of P (m' terms) and Q (m terms) at length >= m',
    whose wrap-around only reaches coefficients below m.
    """
    dim = s.shape[1]
    terms = degree + 1
    # P and Q hold their coefficients on the last axis, as the spectra do
    p = np.zeros((dim, dim, min(s.shape[0] + 1, terms)), dtype=complex)
    p[..., 0] = np.eye(dim)
    p[..., 1:] = -np.moveaxis(s[: p.shape[-1] - 1], 0, -1)
    targets = []
    while terms > 1:
        targets.append(terms)
        terms = (terms + 1) // 2
    q = p[..., :1].copy()
    for target in reversed(targets):
        m = q.shape[-1]
        size = _fft_size(target)
        q_hat = _spectrum(q, size)
        e = _fft_product(_spectrum(p[..., :target], size), q_hat, m, target)
        q = np.concatenate([q, -_fft_product(q_hat, _spectrum(e, size), 0, target - m)], axis=-1)
    return np.ascontiguousarray(np.moveaxis(q, -1, 0))


def series_exp_scalar(coeffs, degree: int) -> np.ndarray:
    """exp of a scalar power series, via n*b_n = sum k*l_k*b_{n-k}."""
    l = np.zeros(degree + 1, dtype=complex)
    src = np.asarray(coeffs, dtype=complex).reshape(-1)
    l[: min(len(src), degree + 1)] = src[: degree + 1]
    # k l_k reversed once: rkl[degree - n : degree] is k l_k for k = n..1
    rkl = (np.arange(degree + 1) * l)[::-1].copy()
    b = np.zeros(degree + 1, dtype=complex)
    b[0] = np.exp(l[0])
    for n in range(1, degree + 1):
        b[n] = rkl[degree - n : degree].dot(b[:n]) / n
    return b


def unit_circle_values(coeffs, grid: int) -> np.ndarray:
    """Exact values of a scalar polynomial at the K-th roots of unity.

    Coefficients are folded modulo the grid size (z^n = z^(n mod K)
    there), so arbitrarily high degrees evaluate exactly on the nodes.
    """
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    folded = np.zeros(grid, dtype=complex)
    for start in range(0, len(c), grid):
        chunk = c[start : start + grid]
        folded[: len(chunk)] += chunk
    return np.fft.ifft(folded) * grid


@dataclass(frozen=True)
class OuterResult:
    """Outer function reconstruction plus its diagnostics.

    poly is the Taylor truncation of exp(log_series); log_coeffs holds
    the log-series coefficients, whose exact node values give the outer
    function's boundary values without exp-truncation error.
    """

    poly: MatPoly
    clamped: int
    max_modulus_error: float
    log_coeffs: np.ndarray = field(default=None, repr=False)


def outer_from_boundary_modulus(samples, degree: int) -> OuterResult:
    """Outer function b with |b| matching the given boundary samples.

    samples are nonnegative values of the target modulus on the uniform
    K-point grid.  Values below LOG_FLOOR are clamped (and counted) so
    the log stays integrable.  b(0) = exp(mean log m) > 0, and with
    degree >= K/2 the grid moduli are reproduced to rounding.
    """
    m = np.asarray(samples, dtype=float).reshape(-1)
    if np.any(m < 0):
        raise H2Error("boundary modulus samples must be nonnegative")
    grid = m.shape[0]
    clamped = int(np.sum(m < LOG_FLOOR))
    if clamped == grid:
        raise AllZeroModulus("every sample is below the clamping floor")
    m = np.maximum(m, LOG_FLOOR)
    hat = np.fft.fft(np.log(m)) / grid
    half = grid // 2
    l = np.zeros(degree + 1, dtype=complex)
    l[0] = hat[0].real
    top = min(degree, grid - 1, half)
    l[1 : top + 1] = 2.0 * hat[1 : top + 1]
    if grid % 2 == 0 and half <= degree:
        l[half] = hat[half]
    series = series_exp_scalar(l, degree)
    b = MatPoly.from_scalar_coeffs(series)
    vals = unit_circle_values(series, grid)
    err = float(np.max(np.abs(np.abs(vals) - m)))
    return OuterResult(b, clamped, err, l)
