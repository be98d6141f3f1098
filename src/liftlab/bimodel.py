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


def build_model(theta: MatPoly, grid: int, degree: int, tol: float = 1e-9) -> ThetaModel:
    """Sample the symbol and its defect on the circle grid.

    The grid must resolve quadratic quantities of the truncation
    (grid >= 2*(degree + deg theta) + 1), so that coefficient norms and
    grid means agree exactly and the isometry identities are exact.
    """
    if theta.out_dim != theta.in_dim:
        raise BimodelError("model symbol must be square")
    need = 2 * (degree + theta.degree) + 1
    if grid < need:
        raise BimodelError(f"grid {grid} too coarse for degree {degree}: need {need}")
    vals = h2.eval_circle_grid(theta, 1.0, grid)
    sup = max(np.linalg.norm(v, 2) for v in vals)
    if sup > 1.0 + tol:
        raise NotContractiveOnGrid(f"symbol grid norm {sup:.6g} exceeds 1 + tol")
    delta = linalg.defect_batch(vals)
    w, v = np.linalg.eigh(delta)
    keep = w > linalg.RANK_TOL
    proj = np.einsum("nik,nk,njk->nij", v, keep.astype(float), v.conj())
    return ThetaModel(theta, grid, degree, vals, delta, proj)


def vector_norm_sq(model: ThetaModel, v: ModelVector) -> float:
    """Coefficient norm on the first layer, grid-mean tensor coefficient
    norm on the second."""
    first = float(np.sum(np.abs(v.f) ** 2))
    second = float(np.sum(np.abs(v.g) ** 2) / model.grid)
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
        block = np.einsum("ij,nj->ni", model.theta.coeffs[k], v.f[: n + 1 - k])
        f2[k:] += block
    fb = boundary_values(model, v.f)
    g2 = np.zeros_like(v.g)
    g2[0] = np.einsum("nij,nj->ni", model.delta, fb)
    g2[1:] = v.g[:-1]
    return ModelVector(f2, g2)


def project_second_layer(model: ThetaModel, g: np.ndarray) -> np.ndarray:
    """Pointwise projection onto the range of the boundary defect, the
    membership constraint for second-layer data."""
    return np.einsum("kij,nkj->nki", model.range_projectors, g)


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


def verify_bi_isometry(model: ThetaModel, trials: int = 50, seed: int = 7) -> CriterionReport:
    """Isometry of both actions and their commutation on random window
    vectors; residuals are relative and reported in the extras."""
    rng = np.random.default_rng(seed)
    worst_v = worst_w = worst_comm = 0.0
    for _ in range(trials):
        vec = random_vector(model, rng)
        nrm = np.sqrt(vector_norm_sq(model, vec))
        if nrm == 0:
            continue
        v_iso = abs(np.sqrt(vector_norm_sq(model, apply_V(model, vec))) - nrm) / nrm
        w_iso = abs(np.sqrt(vector_norm_sq(model, apply_W(model, vec))) - nrm) / nrm
        vw = apply_V(model, apply_W(model, vec))
        wv = apply_W(model, apply_V(model, vec))
        diff = ModelVector(vw.f - wv.f, vw.g - wv.g)
        comm = np.sqrt(vector_norm_sq(model, diff)) / nrm
        worst_v, worst_w = max(worst_v, v_iso), max(worst_w, w_iso)
        worst_comm = max(worst_comm, comm)
    tol = 1e-10
    ok = worst_v <= tol and worst_w <= tol and worst_comm <= tol
    return CriterionReport(
        criterion_id="bi_isometry",
        verdict="pass" if ok else "fail",
        tolerances={"tol": tol, "trials": trials, "seed": seed},
        notes=(
            f"isometry residuals {worst_v:.3e} / {worst_w:.3e}, "
            f"commutation residual {worst_comm:.3e}"
        ),
        extras={
            "first_action_residual": worst_v,
            "second_action_residual": worst_w,
            "commutation_residual": worst_comm,
        },
    )
