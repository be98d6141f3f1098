"""Truncated Taylor series on the unit disc and their circle-grid numerics.

A ``MatPoly`` is a matrix-valued polynomial sum(P_k z^k) standing in for
an analytic operator function.  Degrees and grid sizes are explicit
everywhere: limits toward the boundary are replaced by evaluations on
rho-circles, and a K-point uniform grid integrates trigonometric
polynomials of degree < K exactly, so every Parseval-type statement
below is exact once K >= 2*degree + 1.  A constant evaluates on a grid
as a read-only broadcast of its one coefficient, with no FFT.

Series layer.  The convolution recursion is written once, in
``resolvent_terms``, which yields the coefficients of
(I - z A(z))^(-1) C(z) one term at a time, holding only the last
deg A + 1 of them.  ``_neumann_coeffs`` stacks it with C = I, the
criteria's Taylor trace of a polynomial symbol reads it term by term,
and ``clt.lift`` runs it on the transposes: Gamma_n^T is coefficient n
of (I - z A^T)^(-1) B^T, so each step is an r x r by r x r' product
whatever the dimension of the space Y acts on.  Constant symbols are
summed elsewhere, by ``linalg.stein_sum``.

Dense inverses go through one kernel for (I - z S(z))^(-1):
``neumann_inverse`` hands it A, ``series_inverse`` normalises P = P_0
(I - z S) once.  For an S with `terms` coefficients of size dim x dim,
inverted through `degree`, Newton doubling (Brent & Kung, "Fast
algorithms for manipulating formal power series", JACM 1978) runs when
min(terms, degree) >= NEWTON_TERMS_PER_DIM * dim, the recursion on the
identity otherwise.  ``polymul`` sums term by term unless both
truncated factors have FFT_MIN_TERMS coefficients or more.  Measured on
a 2-core Xeon at degree 1024, recursion / Newton in ms:

    dim  terms   recursion  Newton
      1      1       4.2      0.7
      1      8      39        1.2
      1   1024    2150        1.2
      3      1       6.9     10.1
      3      8      38       10.5
      3    128     739        7.7
      8      4      23       54
      8     16      84       54
     25     32     340      458
     25     64     817      507
     50      1     125     2176

Constant symbols stay on the recursion even at dim 1, where Newton is
faster: the recursion's error in each coefficient is relative to that
coefficient, the FFT's to the largest one, and ``neumann_inverse`` is
the tests' per-coefficient oracle, decaying tails included.
Degree-1024 products: 12 ms direct against 0.3 ms FFT at dim 1, 219
against 5.9 ms at dim 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count

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
        """Horner evaluation at a point of the closed disc."""
        acc = np.zeros((self.out_dim, self.in_dim), dtype=complex)
        for k in range(self.degree, -1, -1):
            acc = acc * z + self.coeffs[k]
        return acc

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


def eval_circle_grid(p: MatPoly, rho: float, grid: int) -> np.ndarray:
    """Evaluate P at the nodes rho*exp(2*pi*i*k/grid), k = 0..grid-1.

    The trapezoid mean over this grid integrates trigonometric
    polynomials of degree < grid exactly; grid must cover twice the
    polynomial degree for quadratic quantities, hence the guard.  A
    constant takes the same value at every node and is returned as a
    read-only broadcast of its one coefficient, without an FFT.
    """
    check_radius(rho)
    if grid < 2 * p.degree + 1:
        raise GridTooCoarse(f"grid {grid} < 2*degree+1 = {2 * p.degree + 1}")
    if p.degree == 0:
        return np.broadcast_to(p.coeffs[0], (grid,) + p.coeffs.shape[1:])
    weighted = p.coeffs * (rho ** np.arange(p.degree + 1))[:, None, None]
    padded = np.zeros((grid,) + p.coeffs.shape[1:], dtype=complex)
    padded[: p.degree + 1] = weighted
    return np.fft.ifft(padded, axis=0) * grid


def circle_nodes(rho: float, grid: int) -> np.ndarray:
    return rho * np.exp(2j * np.pi * np.arange(grid) / grid)


def pad_coeffs(p: MatPoly, degree: int) -> MatPoly:
    if p.degree >= degree:
        return MatPoly(p.coeffs[: degree + 1])
    shape = (degree + 1 - p.coeffs.shape[0],) + p.coeffs.shape[1:]
    return MatPoly(np.concatenate([p.coeffs, np.zeros(shape, dtype=complex)], axis=0))


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
        p_hat, q_hat = np.fft.fft(pc, size, axis=0), np.fft.fft(qc, size, axis=0)
        return MatPoly(_fft_product(p_hat, q_hat, 0, deg + 1))
    out = np.zeros((deg + 1, p.out_dim, q.in_dim), dtype=complex)
    for k in range(pc.shape[0]):
        hi = min(q.degree, deg - k)
        out[k : k + hi + 1] += pc[k] @ qc[: hi + 1]
    return MatPoly(out)


def _fft_size(terms: int) -> int:
    """The power of two at or above `terms`."""
    return 1 << max(terms - 1, 0).bit_length()


def _fft_product(p_hat: np.ndarray, q_hat: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of the cyclic product of two spectra: a
    batched matrix product per node, then one inverse FFT."""
    return np.fft.ifft(p_hat @ q_hat, axis=0)[lo:hi]


def neumann_inverse(a: MatPoly, degree: int) -> MatPoly:
    """Expansion of (I - z*A(z))^(-1) through the requested degree.

    The output J satisfies J_0 = I and (I - z A(z)) J(z) = I up to
    O(z^(degree+1)); see ``series_inverse`` for the two algorithms.
    """
    if a.out_dim != a.in_dim:
        raise NotSquare("A(z) must be square")
    return MatPoly(_neumann_coeffs(a.coeffs, degree))


def resolvent_apply_grid(a: MatPoly, d, rho: float, grid: int) -> np.ndarray:
    """Values (I - z A(z))^(-1) d on the rho-circle.

    d is either a vector of length dim, giving shape (grid, dim), or a
    (dim, m) block of probe columns, giving shape (grid, dim, m): one
    factorisation per node serves every column.  Solves one linear
    system per node instead of summing a truncated Neumann series;
    reliable even when the series coefficients do not decay, e.g. near
    a singular boundary point.
    """
    if a.out_dim != a.in_dim:
        raise NotSquare("A(z) must be square")
    d = np.asarray(d, dtype=complex)
    block = d if d.ndim == 2 else d.reshape(-1, 1)
    # I - z A(z) as one array: -z A(z), then 1 added on the diagonal in place
    systems = eval_circle_grid(a, rho, grid) * -circle_nodes(rho, grid)[:, None, None]
    diag = np.arange(a.in_dim)
    systems[:, diag, diag] += 1.0
    out = np.linalg.solve(systems, np.broadcast_to(block, (grid,) + block.shape))
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

    def moment(self, n: int) -> complex:
        """Integral of conj(zeta)^n against the measure."""
        if n == 0:
            return complex(self.total_mass())
        acc = 0.0 + 0.0j
        for a, b, v in self.density_pieces:
            acc += v * (np.exp(-1j * n * b) - np.exp(-1j * n * a)) / (-2j * np.pi * n)
        for t, m in self.point_masses:
            acc += m * np.exp(-1j * n * t)
        return complex(acc)


def herglotz_from_measure(mu: CircleMeasure, degree: int) -> MatPoly:
    """Taylor expansion of the circle average of (zeta+z)/(zeta-z).

    Normalized so that Lebesgue density 1 gives the constant 1; the
    coefficients are mu's total mass followed by twice its moments.
    """
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[0] = mu.total_mass()
    for n in range(1, degree + 1):
        coeffs[n] = 2.0 * mu.moment(n)
    return MatPoly.from_scalar_coeffs(coeffs)


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
    truncation.  The output degree is capped at f.degree - 1: the
    division shifts degrees down by one, so the coefficient at
    f.degree would need data beyond the input's truncation.
    """
    dim = f.in_dim
    if f.out_dim != dim:
        raise NotSquare("Herglotz data must be square")
    if np.linalg.norm(f.coeffs[0] - np.eye(dim), 2) > 1e-10:
        raise H2Error("transform inversion needs F(0) = I")
    eff = min(degree, max(f.degree - 1, 0))
    num = MatPoly(f.coeffs - (np.arange(f.degree + 1) == 0)[:, None, None] * np.eye(dim))
    den = MatPoly(f.coeffs + (np.arange(f.degree + 1) == 0)[:, None, None] * np.eye(dim))
    za = polymul(series_inverse(den, eff + 1), num, eff + 1)
    return MatPoly(za.coeffs[1:])


def series_inverse(p: MatPoly, degree: int) -> MatPoly:
    """Multiplicative inverse of a square polynomial with invertible P_0.

    P = P_0 (I - z S(z)) with S_(k-1) = -P_0^(-1) P_k, so the inverse is
    (I - z S)^(-1) P_0^(-1): one normalisation, then the kernel.  For
    short S the kernel runs the convolution recursion
    J_n = sum_{k=1..n} S_(k-1) J_(n-k); for long S Newton doubling
    (Brent & Kung, JACM 1978), Q <- Q + Q (I - P Q) mod z^(2m), each
    product an FFT along the coefficient axis with one batched matrix
    product per node.  Long means p.degree (capped at the requested
    degree) >= NEWTON_TERMS_PER_DIM * dim.  Measured at degree 1024
    (table in the module docstring), Newton wins from 1 term at dim 1,
    from ~4 at dim 3 and from ~50 at dim 25; a constant 50 x 50 symbol
    takes 125 ms on the recursion and 2.2 s with Newton.
    """
    if p.out_dim != p.in_dim:
        raise NotSquare("series inverse needs a square polynomial")
    q0 = np.linalg.inv(p.coeffs[0])
    return MatPoly(_neumann_coeffs(-(q0 @ p.coeffs[1:]), degree) @ q0)


def _newton_pays(terms: int, dim: int, degree: int) -> bool:
    """Whether Newton doubling beats the recursion for an S with `terms`
    coefficients of size dim x dim, inverted through `degree`."""
    return min(terms, degree) >= NEWTON_TERMS_PER_DIM * dim


def _neumann_coeffs(s: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0..degree of (I - z S(z))^(-1), s[k] = S_k."""
    if _newton_pays(s.shape[0], s.shape[1], degree):
        return _newton_inverse(s, degree)
    out = np.empty((degree + 1,) + s.shape[1:], dtype=complex)
    for n, term in zip(range(degree + 1), resolvent_terms(s, np.eye(s.shape[1])[None])):
        out[n] = term
    return out


def resolvent_terms(a: np.ndarray, c: np.ndarray):
    """The endless coefficients Z_0, Z_1, ... of (I - z A(z))^(-1) C(z),
    a[j] = A_j square and c[k] = C_k of shape (n, m) or (n,):
    Z_n = C_n + sum over j <= deg A of A_j Z_(n-1-j), one term per step,
    holding the last deg A + 1 terms; an empty a gives Z_n = C_n."""
    history = deque(maxlen=max(a.shape[0], 1))
    for n in count():
        z = np.array(c[n], dtype=complex) if n < c.shape[0] else np.zeros(c.shape[1:], dtype=complex)
        for aj, x in zip(a, history):
            z += aj @ x
        history.appendleft(z)
        yield z


def _newton_inverse(s: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0..degree of P^(-1), P = I - z S, by Newton doubling.

    With Q exact through z^(m-1), P Q = I + z^m E, and the correction
    -z^m Q E extends Q through z^(m'-1), m' <= 2m.  E is read from the
    cyclic product of P (m' terms) and Q (m terms) at length >= m',
    whose wrap-around only reaches coefficients below m.
    """
    dim = s.shape[1]
    terms = degree + 1
    p = np.zeros((min(s.shape[0] + 1, terms), dim, dim), dtype=complex)
    p[0] = np.eye(dim)
    p[1:] = -s[: p.shape[0] - 1]
    targets = []
    while terms > 1:
        targets.append(terms)
        terms = (terms + 1) // 2
    q = p[:1].copy()
    for target in reversed(targets):
        m = q.shape[0]
        size = _fft_size(target)
        q_hat = np.fft.fft(q, size, axis=0)
        e = _fft_product(np.fft.fft(p[:target], size, axis=0), q_hat, m, target)
        q = np.concatenate([q, -_fft_product(q_hat, np.fft.fft(e, size, axis=0), 0, target - m)])
    return q


def series_exp_scalar(coeffs, degree: int) -> np.ndarray:
    """exp of a scalar power series, via n*b_n = sum k*l_k*b_{n-k}."""
    l = np.zeros(degree + 1, dtype=complex)
    src = np.asarray(coeffs, dtype=complex).reshape(-1)
    l[: min(len(src), degree + 1)] = src[: degree + 1]
    kl = np.arange(degree + 1) * l
    b = np.zeros(degree + 1, dtype=complex)
    b[0] = np.exp(l[0])
    for n in range(1, degree + 1):
        b[n] = np.dot(kl[n:0:-1], b[:n]) / n
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
    for n in range(1, top + 1):
        l[n] = 2.0 * hat[n]
    if grid % 2 == 0 and half <= degree:
        l[half] = hat[half]
    series = series_exp_scalar(l, degree)
    b = MatPoly.from_scalar_coeffs(series)
    vals = unit_circle_values(series, grid)
    err = float(np.max(np.abs(np.abs(vals) - m)))
    return OuterResult(b, clamped, err, l)
