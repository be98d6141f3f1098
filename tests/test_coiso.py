import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from liftlab import cli, coiso, linalg
from liftlab.linalg import SubspaceBasis

from conftest import random_contraction, random_isometry, random_unitary


def make_problem(rng, h_dim, hp_dim, m_dim, mp_dim, norm=0.8):
    m = SubspaceBasis(random_isometry(rng, h_dim, m_dim)) if m_dim else SubspaceBasis.empty(h_dim)
    mp = SubspaceBasis(random_isometry(rng, hp_dim, mp_dim)) if mp_dim else SubspaceBasis.empty(hp_dim)
    # dense range onto M: start from a full-rank core
    c = random_contraction(rng, m_dim, mp_dim, norm=norm) if m_dim and mp_dim else np.zeros((m_dim, mp_dim))
    return coiso.ExtensionProblem(h_dim, hp_dim, m, mp, c)


class TestProblemValidation:
    def test_rejects_expansive(self, rng):
        m = SubspaceBasis.full(2)
        with pytest.raises(coiso.CoisoError):
            coiso.ExtensionProblem(2, 2, m, m, 2.0 * np.eye(2))

    def test_rejects_rank_deficient(self, rng):
        m = SubspaceBasis.full(2)
        with pytest.raises(coiso.NotDenseRange):
            coiso.ExtensionProblem(2, 2, m, m, np.diag([0.5, 0.0]))

    def test_rejects_shape_mismatch(self, rng):
        m = SubspaceBasis.full(2)
        with pytest.raises(coiso.CoisoError):
            coiso.ExtensionProblem(2, 2, m, m, np.eye(3))


class TestCanExtend:
    def test_unitary_full_spaces(self, rng):
        u = random_unitary(rng, 3)
        p = coiso.ExtensionProblem(3, 3, SubspaceBasis.full(3), SubspaceBasis.full(3), u)
        feas = coiso.can_extend(p)
        assert feas.feasible and feas.room == 0 and feas.needed == 0

    def test_scalar_zero_needs_room(self):
        # C = 0 is excluded by dense range; use a tiny contraction with
        # full rank instead: adjoint defect has rank 1, no room in H'
        p = coiso.ExtensionProblem(
            1, 1, SubspaceBasis.full(1), SubspaceBasis.full(1), np.array([[0.1]])
        )
        feas = coiso.can_extend(p)
        assert not feas.feasible
        assert feas.rank_adjoint_defect == 1 and feas.room == 0

    def test_padded_strict_contraction(self, rng):
        # 2-dim strict contraction, H' padded by 3 extra dims, H minus M 1-dim:
        # rank-counting oracle: need 1 + 2 <= 3
        p = make_problem(rng, h_dim=3, hp_dim=5, m_dim=2, mp_dim=2, norm=0.7)
        feas = coiso.can_extend(p)
        assert feas.room == 3 and feas.complement_dim == 1
        assert feas.rank_adjoint_defect == 2
        assert feas.feasible


class TestBuildExtension:
    def test_identity_everywhere(self):
        p = coiso.ExtensionProblem(2, 2, SubspaceBasis.full(2), SubspaceBasis.full(2), np.eye(2))
        np.testing.assert_allclose(coiso.build_extension(p), np.eye(2), atol=1e-12)

    def test_scalar_half_closed_form(self):
        # M = H = C inside H' = C^2: the extension row is [1/2, sqrt(3)/2]
        m = SubspaceBasis.full(1)
        mp = SubspaceBasis(np.array([[1.0], [0.0]], dtype=complex))
        p = coiso.ExtensionProblem(1, 2, m, mp, np.array([[0.5]]))
        got = coiso.build_extension(p)
        np.testing.assert_allclose(got, [[0.5, np.sqrt(3) / 2]], atol=1e-12)

    def test_random_instances_succeed_iff_feasible(self, rng):
        successes = failures = 0
        for _ in range(200):
            h_dim = int(rng.integers(1, 7))
            m_dim = int(rng.integers(1, h_dim + 1))
            hp_dim = int(rng.integers(1, 7))
            mp_dim = int(rng.integers(min(m_dim, hp_dim), hp_dim + 1))
            try:
                p = make_problem(rng, h_dim, hp_dim, m_dim, mp_dim, norm=rng.uniform(0.3, 0.99))
            except coiso.CoisoError:
                continue
            feas = coiso.can_extend(p)
            if feas.feasible:
                ext = coiso.build_extension(p)
                assert np.linalg.norm(ext @ ext.conj().T - np.eye(h_dim), 2) <= 1e-10
                assert np.linalg.norm(ext @ p.m_prime.columns - p.m.columns @ p.c, 2) <= 1e-10
                successes += 1
            else:
                with pytest.raises(coiso.DimensionObstruction):
                    coiso.build_extension(p)
                failures += 1
        assert successes >= 20 and failures >= 20

    def test_adjoint_maps_complement_into_complement(self, rng):
        p = make_problem(rng, h_dim=4, hp_dim=7, m_dim=2, mp_dim=3, norm=0.6)
        ext = coiso.build_extension(p)
        m_perp = linalg.orth_complement(p.m)
        # vectors orthogonal to M are carried into the complement of M'
        image = ext.conj().T @ m_perp.columns
        assert np.linalg.norm(p.m_prime.columns.conj().T @ image, 2) <= 1e-10

    def test_adjoint_compression_is_c_star(self, rng):
        p = make_problem(rng, h_dim=4, hp_dim=7, m_dim=2, mp_dim=3, norm=0.6)
        ext = coiso.build_extension(p)
        compressed = p.m_prime.columns.conj().T @ ext.conj().T @ p.m.columns
        np.testing.assert_allclose(compressed, p.c.conj().T, atol=1e-10)

    def test_randomized_fills_are_still_extensions(self, rng):
        p = make_problem(rng, h_dim=3, hp_dim=6, m_dim=2, mp_dim=2, norm=0.5)
        a = coiso.build_extension(p)
        b = coiso.build_extension(p, rng=np.random.default_rng(5))
        for ext in (a, b):
            assert np.linalg.norm(ext @ ext.conj().T - np.eye(3), 2) <= 1e-10
            assert np.linalg.norm(ext @ p.m_prime.columns - p.m.columns @ p.c, 2) <= 1e-10
        assert np.linalg.norm(a - b, 2) > 1e-6


FEASIBLE = Path(__file__).resolve().parent / "golden" / "inputs" / "coiso_feasible.json"


def factorings_of_the_adjoint_defect(monkeypatch, tmp_path, seed: int) -> tuple[int, int]:
    """The D_C* that one `coiso` command on the golden feasible input
    factors, and the range bases it takes of them."""
    defects, bases = [], []
    defect_adjoint, range_basis = linalg.defect_adjoint, linalg.range_basis

    def recorded_defect(*args):
        defects.append(defect_adjoint(*args))
        return defects[-1]

    def recorded_basis(m):
        bases.append(m)
        return range_basis(m)

    monkeypatch.setattr(linalg, "defect_adjoint", recorded_defect)
    monkeypatch.setattr(linalg, "range_basis", recorded_basis)
    argv = ["coiso", "--input", str(FEASIBLE), "--seed", str(seed), "--out", str(tmp_path / "report.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return len(defects), sum(any(m is d for d in defects) for m in bases)


@pytest.mark.parametrize("seed", [0, 3])
def test_coiso_factors_the_adjoint_defect_once(monkeypatch, tmp_path, seed):
    # can_extend and build_extension share the problem's D_C* and its range
    assert factorings_of_the_adjoint_defect(monkeypatch, tmp_path, seed) == (1, 1)


def test_the_count_sees_a_second_factoring(monkeypatch, tmp_path):
    # planted: build_extension factors D_C* again instead of reading the problem's
    monkeypatch.setattr(coiso.ExtensionProblem, "d_c_star", property(lambda p: linalg.defect_adjoint(p.c, p.tol)))
    assert factorings_of_the_adjoint_defect(monkeypatch, tmp_path, 0) == (2, 1)
