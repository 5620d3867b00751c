import numpy as np
import pytest

from motc.errors import BranchBoundaryError
from motc.linalg import (
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
