import numpy as np
import pytest

from motc.errors import BranchBoundaryError, ConsistencyError
from motc.linalg import (
    BRANCH_TOL,
    condition_number,
    herm_to_vec,
    log_unitary_principal,
    vec_to_herm,
)

from conftest import expi, random_hermitian, random_unitary


class TestExpiHermitian:
    """The exp(-i theta H) oracle that the dynamics and tracking tests compare against."""

    def test_zero_angle(self, rng):
        h = random_hermitian(5, rng)
        assert np.allclose(expi(h, 0.0), np.eye(5))

    def test_scalar_phase(self):
        assert np.allclose(expi(np.array([[np.pi]]), 1.0), [[-1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(7, rng)
        theta = rng.uniform(-3, 3)
        u = expi(h, theta)
        assert np.linalg.norm(u @ expi(h, -theta) - np.eye(7)) <= 1e-10

    def test_unitarity(self, rng):
        u = expi(random_hermitian(11, rng), 2.7)
        assert np.linalg.norm(u.conj().T @ u - np.eye(11)) <= 1e-10


class TestLogUnitaryPrincipal:
    def test_identity(self):
        assert np.allclose(log_unitary_principal(np.eye(4)), np.zeros((4, 4)))

    def test_diagonal_phases(self):
        v = np.diag([np.exp(1j * np.pi / 2), 1.0])
        a = log_unitary_principal(v)
        assert np.allclose(np.sort(np.linalg.eigvalsh(a)), [0.0, np.pi / 2], atol=1e-12)

    def test_branch_boundary(self):
        with pytest.raises(BranchBoundaryError):
            log_unitary_principal(np.diag([-1.0, 1.0]).astype(complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            log_unitary_principal(2 * np.eye(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_reconstructs(self, seed):
        # Eigenphases kept away from the branch cut by construction.
        rng = np.random.default_rng(seed)
        phases = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 6)
        z = random_unitary(6, rng)
        v = (z * np.exp(1j * phases)) @ z.conj().T
        a = log_unitary_principal(v)
        assert np.abs(a - a.conj().T).max() < 1e-12
        assert np.linalg.norm(expi(a, -1.0) - v) <= 1e-8

    # Phases that LAPACK sees as one cluster: exactly repeated, or split by
    # gaps from 1e-14 to 1e-4, where raw eigenvectors need not be orthogonal.
    @pytest.mark.parametrize("gap", [0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("n", [2, 3, 11])
    def test_clustered_phases(self, n, gap):
        rng = np.random.default_rng(n)
        base = rng.uniform(-np.pi + 0.1, np.pi - 0.1, n)
        # One cluster of two (all of N=2), and for N=11 a second of four.
        base[1] = base[0]
        if n == 11:
            base[5:9] = base[4]
        theta = base + gap * np.arange(n)
        _assert_log_matches(theta, random_unitary(n, rng))

    # Phases up to 1e-3 from one side of the branch cut, each farther than
    # BRANCH_TOL: the principal branch keeps them all near +pi or all near -pi.
    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("n", [2, 3, 11])
    def test_phases_near_branch_cut(self, n, side):
        rng = np.random.default_rng(100 + n)
        theta = rng.uniform(-np.pi + 0.1, np.pi - 0.1, n)
        near = [1e-3, 3 * BRANCH_TOL, 1e-4, 1e-5, 5e-4][: 2 if n == 2 else 5 if n == 11 else 3]
        theta[: len(near)] = side * (np.pi - np.array(near))
        _assert_log_matches(theta, random_unitary(n, rng))

    # Phases near +pi and near -pi are close on the unit circle but 2 pi
    # apart in A, so roundoff in V reaches A amplified by 2 pi / gap, for the
    # exact logarithm as for any algorithm.
    @pytest.mark.parametrize("n", [2, 3, 11])
    def test_phases_straddling_branch_cut(self, n):
        rng = np.random.default_rng(200 + n)
        theta = rng.uniform(-np.pi + 0.1, np.pi - 0.1, n)
        theta[:2] = [np.pi - 1e-3, -np.pi + 1e-4]
        if n == 11:
            theta[2:5] = [np.pi - 3 * BRANCH_TOL, np.pi - 1e-5, -np.pi + 2 * BRANCH_TOL]
        gap = 2 * np.pi - theta[theta > 0].max() + theta[theta < 0].min()
        _assert_log_matches(theta, random_unitary(n, rng), tol=1e-14 * 2 * np.pi / gap)

    def test_non_diagonalising_basis_raises(self, monkeypatch):
        rng = np.random.default_rng(7)
        v, wrong = random_unitary(5, rng), random_unitary(5, rng)
        monkeypatch.setattr(np.linalg, "eig", lambda a: (np.diag(a), wrong))
        with pytest.raises(ConsistencyError, match="off-diagonal"):
            log_unitary_principal(v)


def _assert_log_matches(theta: np.ndarray, q: np.ndarray, tol: float = 1e-12) -> None:
    """The log of V = Q diag(e^{i theta}) Q^dag is the closed form Q diag(theta) Q^dag."""
    v = (q * np.exp(1j * theta)) @ q.conj().T
    a = log_unitary_principal(v)
    assert np.abs(a - (q * theta) @ q.conj().T).max() <= tol
    assert np.abs(a - a.conj().T).max() <= 1e-14


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(9)) == 1.0

    def test_diagonal(self):
        assert np.isclose(condition_number(np.diag([4.0, 2.0])), 2.0)

    def test_rank_deficient_sentinel(self):
        assert condition_number(np.diag([1.0, 0.0])) == np.inf
        assert condition_number(np.zeros((3, 3))) == np.inf

    @pytest.mark.parametrize("scale", [1e-7, 3.0, 2.5e8])
    def test_scale_invariance(self, scale, rng):
        m = rng.standard_normal((10, 10))
        c1, c2 = condition_number(m), condition_number(scale * m)
        assert abs(c1 - c2) <= 1e-10 * c1


class TestHermVectorization:
    def test_isometry(self, rng):
        h = random_hermitian(7, rng)
        v = herm_to_vec(h)
        assert v.shape == (49,)
        assert np.isclose(np.linalg.norm(v), np.linalg.norm(h))

    def test_roundtrip(self, rng):
        h = random_hermitian(6, rng)
        assert np.allclose(vec_to_herm(herm_to_vec(h), 6), h)

    def test_inner_product_preserved(self, rng):
        a, b = random_hermitian(5, rng), random_hermitian(5, rng)
        hs = np.trace(a @ b).real
        assert np.isclose(herm_to_vec(a) @ herm_to_vec(b), hs)

    def test_batched(self, rng):
        stack = np.array([random_hermitian(4, rng) for _ in range(3)])
        v = herm_to_vec(stack)
        assert v.shape == (3, 16)
        assert np.allclose(v[1], herm_to_vec(stack[1]))
