"""Canonical model of a commuting pair of isometries from a symbol.

A contractive analytic symbol on the disc generates a pair (V, W): the
model space holds a truncated power series with vector coefficients
together with a second layer of series whose coefficients live,
node by node on the unit circle, inside the range of the symbol's
boundary defect.  V multiplies by the series variable on the first
layer and by the node value on the second; W multiplies by the symbol
and feeds the defect of the first layer's boundary values into the
second.  Both act isometrically as long as the truncation window is
respected, and they commute.

`verify_bi_isometry` reads its verdict off two pointwise identities of
the sampled symbol and defect, whose residuals bound how far the two
actions are from isometric and commuting on the window; it draws no
random vectors and takes no seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import h2, linalg
from .criteria import CriterionReport
from .h2 import MatPoly


class BimodelError(ValueError):
    pass


class NotContractiveOnGrid(BimodelError):
    pass


class WindowOverflow(BimodelError):
    pass


@dataclass(frozen=True)
class ThetaModel:
    theta: MatPoly
    grid: int
    degree: int
    theta_values: np.ndarray
    delta: np.ndarray
    range_projectors: np.ndarray

    @property
    def fiber_dim(self) -> int:
        return self.theta.in_dim

    @property
    def nodes(self) -> np.ndarray:
        return h2.circle_nodes(1.0, self.grid)


@dataclass(frozen=True)
class ModelVector:
    """First layer: series coefficients (degree+1, fiber); second
    layer: per-node series coefficients (degree+1, grid, fiber)."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=complex))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=complex))


def build_model(theta: MatPoly, grid: int, degree: int) -> ThetaModel:
    """Sample the symbol and its defect on the circle grid.

    The grid must resolve quadratic quantities of the truncation
    (grid >= 2*(degree + deg theta) + 1), so that coefficient norms and
    grid means agree exactly and the isometry identities are exact.
    The symbol must be contractive on the grid within CLASSIFY_TOL; the
    range projector of each node's defect keeps the eigenvalues that
    ``linalg.rank_mask`` keeps.  One stacked eigendecomposition of
    I - Theta* Theta (``linalg.defect_batch``) gives all three: its least
    eigenvalue at a node is 1 - ||Theta||^2 there, and its eigenvectors
    carry the defect and the projector.
    """
    if theta.out_dim != theta.in_dim:
        raise BimodelError("model symbol must be square")
    need = 2 * (degree + theta.degree) + 1
    if grid < need:
        raise BimodelError(f"grid {grid} too coarse for degree {degree}: need {need}")
    vals = h2.eval_circle_grid(theta, 1.0, grid)
    d = linalg.defect_batch(vals)
    sup = float(np.sqrt(max(0.0, 1.0 - np.min(d.eigenvalues, initial=1.0))))
    if sup > 1.0 + linalg.CLASSIFY_TOL:
        raise NotContractiveOnGrid(f"symbol grid norm {sup:.6g} exceeds 1 + tol")
    keep = linalg.rank_mask(d.roots)
    proj = (d.vectors * keep[:, None, :]) @ linalg.adjoint_batch(d.vectors)
    return ThetaModel(theta, grid, degree, vals, d.root, proj)


def vector_norm_sq(model: ThetaModel, v: ModelVector) -> float:
    """Coefficient norm on the first layer, grid-mean tensor coefficient
    norm on the second."""
    first = float(np.sum(linalg.sq_norms(v.f, axis=())))
    second = float(np.sum(linalg.sq_norms(v.g, axis=())) / model.grid)
    return first + second


def boundary_values(model: ThetaModel, f: np.ndarray) -> np.ndarray:
    """Values of the first-layer series on the circle grid, (grid, fiber)."""
    padded = np.zeros((model.grid, model.fiber_dim), dtype=complex)
    padded[: f.shape[0]] = f
    return np.fft.ifft(padded, axis=0) * model.grid


def _check_window(coeffs: np.ndarray, top_slots: int, what: str, tol: float = 1e-12):
    if top_slots <= 0:
        return
    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if coeffs.shape[0] >= top_slots:
        top = coeffs[-top_slots:]
        if np.max(np.abs(top)) > tol * max(1.0, scale):
            raise WindowOverflow(f"{what} has content in its top {top_slots} degree slots")


def apply_V(model: ThetaModel, v: ModelVector) -> ModelVector:
    """Multiply the first layer by the series variable and the second
    by the circle node; isometric on the window (top degree empty)."""
    _check_window(v.f, 1, "first layer")
    f1 = np.zeros_like(v.f)
    f1[1:] = v.f[:-1]
    g1 = v.g * model.nodes[None, :, None]
    return ModelVector(f1, g1)


def apply_W(model: ThetaModel, v: ModelVector) -> ModelVector:
    """Multiply the first layer by the symbol; feed the defect of its
    boundary values into the second layer's degree-zero slot and shift
    the rest."""
    _check_window(v.f, model.theta.degree, "first layer")
    _check_window(v.g, 1, "second layer")
    n = model.degree
    f2 = np.zeros_like(v.f)
    for k in range(model.theta.degree + 1):
        f2[k:] += v.f[: n + 1 - k] @ model.theta.coeffs[k].T
    fb = boundary_values(model, v.f)
    g2 = np.zeros_like(v.g)
    g2[0] = (model.delta @ fb[:, :, None])[:, :, 0]
    g2[1:] = v.g[:-1]
    return ModelVector(f2, g2)


def project_second_layer(model: ThetaModel, g: np.ndarray) -> np.ndarray:
    """Pointwise projection onto the range of the boundary defect, the
    membership constraint for second-layer data."""
    return (model.range_projectors @ g[..., None])[..., 0]


def random_vector(
    model: ThetaModel,
    rng: np.random.Generator,
    f_degree: int | None = None,
    g_degree: int | None = None,
) -> ModelVector:
    """Window-respecting random vector with second layer projected into
    the defect ranges."""
    e, n, k = model.fiber_dim, model.degree, model.grid
    fd = min(f_degree if f_degree is not None else n - 1 - model.theta.degree, n)
    gd = min(g_degree if g_degree is not None else n - 1, n)
    f = np.zeros((n + 1, e), dtype=complex)
    f[: fd + 1] = rng.standard_normal((fd + 1, e)) + 1j * rng.standard_normal((fd + 1, e))
    g = np.zeros((n + 1, k, e), dtype=complex)
    g[: gd + 1] = rng.standard_normal((gd + 1, k, e)) + 1j * rng.standard_normal((gd + 1, k, e))
    return ModelVector(f, project_second_layer(model, g))


def verify_bi_isometry(model: ThetaModel) -> CriterionReport:
    """Isometry of both actions and their commutation, read off two
    pointwise identities of the sampled symbol and defect.

    For a window vector v = (f, g), with f-hat the values of f on the
    grid, W v = (Theta f, [Delta f-hat, g shifted up one slot]).  Theta f
    and f have degree below the grid size (build_model enforces
    grid >= 2*(degree + deg Theta) + 1), so their coefficient norms are
    grid means of |Theta f-hat|^2 and |f-hat|^2; the shifted second
    layer keeps its norm because its top slot is empty.  Hence

        ||W v||^2 - ||v||^2 = mean_z <E(z) f-hat(z), f-hat(z)>,
        E(z) = Theta(z)* Theta(z) + Delta(z)* Delta(z) - I,

    and |||W v||^2 - ||v||^2| <= r1 ||f||^2 <= r1 ||v||^2 with
    r1 = max_z ||E(z)||_2.  Since |a - b| <= |a^2 - b^2| / b for a >= 0,
    the relative W-isometry residual of every window vector is at most
    r1.  V shifts the first layer and multiplies the second by the
    unimodular node, so it is isometric on the window with no condition
    on the symbol; V W v and W V v agree slot by slot because the values
    of the shifted series are z f-hat(z), and Delta(z) commutes with the
    scalar z.  What remains is that W maps into the model space: the
    defect feed Delta f-hat must lie in the range of Delta, which
    r2 = max_z ||Delta(z) - P(z) Delta(z)||_2 measures, P(z) being the
    stored range projector.  defect_batch zeroes the eigenvalues of
    I - Theta* Theta below DEFECT_FLOOR = 1e-13, so every nonzero
    eigenvalue of Delta is at least sqrt(1e-13), above the cut of
    ``linalg.rank_mask`` that P keeps, and r2 reads rounding unless P
    and Delta disagree.  The verdict passes iff r1 and r2 are both at
    most 1e-10.

    E(z) is Hermitian, so r1 is read as its largest |eigenvalue|
    (``linalg.hermitian_norm``), one stacked eigvalsh over the grid.
    Delta - P Delta is Hermitian only when P and Delta share their
    eigenvectors, which is what r2 tests, so r2 is read by
    ``linalg.operator_norm`` over the stack; no SVD is taken.
    """
    theta, delta = model.theta_values, model.delta
    eye = np.eye(model.fiber_dim)
    pythagoras = linalg.adjoint_batch(theta) @ theta + linalg.adjoint_batch(delta) @ delta - eye
    outside = delta - model.range_projectors @ delta
    r1 = float(linalg.hermitian_norm(pythagoras).max())
    r2 = float(linalg.operator_norm(outside).max())
    tol = 1e-10
    ok = r1 <= tol and r2 <= tol
    return CriterionReport(
        criterion_id="bi_isometry",
        verdict="pass" if ok else "fail",
        tolerances={"tol": tol},
        notes=f"pythagoras residual: {'pass' if r1 <= tol else 'fail'}; "
        f"defect range residual: {'pass' if r2 <= tol else 'fail'}",
        extras={"pythagoras_residual": r1, "defect_range_residual": r2},
    )
