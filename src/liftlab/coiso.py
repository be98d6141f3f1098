"""Coisometric extension of a contraction with dense range.

Given subspaces M of H and M' of H' and a contraction C: M' -> M whose
range is dense (numerically: full rank onto M), a coisometry extending
C from all of H' to H exists iff the complement of M' has room for the
complement of M plus the adjoint defect of C.  The constructor realizes
the extension by an explicit isometry built column by column; the
arbitrary unitary fills are pinned to basis-aligned maps unless a
generator is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import SubspaceBasis


class CoisoError(ValueError):
    pass


class NotDenseRange(CoisoError):
    pass


class DimensionObstruction(CoisoError):
    pass


@dataclass(frozen=True)
class ExtensionProblem:
    """C maps M'-coordinates to M-coordinates inside H' and H."""

    h_dim: int
    h_prime_dim: int
    m: SubspaceBasis
    m_prime: SubspaceBasis
    c: np.ndarray
    tol: float = 1e-8

    def __post_init__(self):
        c = linalg.as_matrix(self.c)
        object.__setattr__(self, "c", c)
        if self.m.ambient_dim != self.h_dim or self.m_prime.ambient_dim != self.h_prime_dim:
            raise CoisoError("subspace ambient dimensions do not match the spaces")
        if c.shape != (self.m.dim, self.m_prime.dim):
            raise CoisoError(
                f"C must be {self.m.dim} x {self.m_prime.dim} in subspace coordinates"
            )
        if linalg.operator_norm(c) > 1.0 + self.tol:
            raise CoisoError("C is not a contraction")
        if self.m.dim and linalg.range_basis(c).dim < self.m.dim:
            raise NotDenseRange("C does not have full numerical rank onto M")

    @cached_property
    def d_c_star(self) -> np.ndarray:
        """D_C*, factored once: the feasibility test and the extension share it and its range."""
        return linalg.defect_adjoint(self.c, self.tol)

    @cached_property
    def defect_range(self) -> SubspaceBasis:
        return linalg.range_basis(self.d_c_star)


@dataclass(frozen=True)
class ExtensionFeasibility:
    feasible: bool
    room: int
    complement_dim: int
    rank_adjoint_defect: int

    @property
    def needed(self) -> int:
        return self.complement_dim + self.rank_adjoint_defect

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "room": self.room,
            "complement_dim": self.complement_dim,
            "rank_adjoint_defect": self.rank_adjoint_defect,
            "needed": self.needed,
        }


def can_extend(p: ExtensionProblem) -> ExtensionFeasibility:
    """Compare the free dimensions on the M' side with what the
    extension must absorb: the complement of M and the adjoint defect."""
    room = p.h_prime_dim - p.m_prime.dim
    complement = p.h_dim - p.m.dim
    rank_dcs = p.defect_range.dim
    return ExtensionFeasibility(room >= complement + rank_dcs, room, complement, rank_dcs)


def build_extension(p: ExtensionProblem, rng: np.random.Generator | None = None) -> np.ndarray:
    """Coisometry H' -> H restricting to C on M'.

    The adjoint is assembled as an isometry: C* plus an isometric copy
    of the adjoint defect into fresh directions of H' minus M', plus a
    unitary copy of H minus M into further fresh directions.  With a
    generator the two fills are twisted by random unitaries, which
    parametrizes other valid extensions.
    """
    feas = can_extend(p)
    if not feas.feasible:
        raise DimensionObstruction(
            f"need {feas.needed} free dimensions on the M' side, have {feas.room}"
        )
    qm, qmp = p.m.columns, p.m_prime.columns
    m_perp = linalg.orth_complement(p.m)
    mp_perp = linalg.orth_complement(p.m_prime)
    dcs, e = p.d_c_star, p.defect_range
    q = e.dim
    y_dim = m_perp.dim
    x_cols = mp_perp.columns[:, :q]
    y_cols = mp_perp.columns[:, q : q + y_dim]
    if rng is not None:
        if q:
            x_cols = x_cols @ _haar_unitary(rng, q)
        if y_dim:
            y_cols = y_cols @ _haar_unitary(rng, y_dim)
    c1 = qmp @ p.c.conj().T @ qm.conj().T
    if q:
        c1 = c1 + x_cols @ e.columns.conj().T @ dcs @ qm.conj().T
    if y_dim:
        c1 = c1 + y_cols @ m_perp.columns.conj().T
    return c1.conj().T


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))
