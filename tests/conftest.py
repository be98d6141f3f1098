import numpy as np
import pytest

from liftlab import clt, h2
from liftlab.h2 import MatPoly, eval_circle_grid


def random_matpoly(rng, out_dim, in_dim, degree):
    c = rng.standard_normal((degree + 1, out_dim, in_dim)) + 1j * rng.standard_normal(
        (degree + 1, out_dim, in_dim)
    )
    return MatPoly(c)


def contractive_matpoly(rng, out_dim, in_dim, degree, norm=0.95, probe_grid=None):
    """Random matrix polynomial scaled so its grid sup-norm is `norm`."""
    p = random_matpoly(rng, out_dim, in_dim, degree)
    grid = probe_grid or max(64, 2 * degree + 1)
    vals = eval_circle_grid(p, 1.0, grid)
    sup = max(np.linalg.norm(v, 2) for v in vals)
    return MatPoly(p.coeffs * (norm / sup))


def per_term_series(w: np.ndarray, a_rows: slice, block, count: int) -> np.ndarray:
    """Reference: the first `count` coefficients Y_n of W (I - zA)^(-1)
    block, A = W[a_rows], one term at a time by Y_n = sum_j W_j X_(n-j)
    and X_(n+1) = Y_n[a_rows], X_0 = block, stacked on a leading axis."""
    xs, ys = [np.asarray(block, dtype=complex)], []
    for n in range(count):
        y = np.zeros(w.shape[1:2] + xs[0].shape[1:], dtype=complex)
        for j in range(min(n + 1, w.shape[0])):
            y += w[j] @ xs[n - j]
        ys.append(y)
        xs.append(y[a_rows])
    return np.stack(ys)


def random_contraction(rng, rows, cols, norm=1.0):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    s = np.linalg.norm(m, 2)
    return m * (norm / s) if s > 0 else m


def random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(rng, rows, cols):
    assert rows >= cols
    return random_unitary(rng, rows)[:, :cols]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def lifting_of(p, r, degree, ld=None):
    """``clt.lift`` of the free parameter r (zero when None) on the
    coupling ld (the definitional one when None), with the companion of
    its symbol squared through `degree`."""
    ld = clt.build_omega(p) if ld is None else ld
    return clt.lift(p, ld, h2.Companion(clt.assemble_schur_W(ld, r), ld.basis_tprime.dim, degree), degree)
