import numpy as np
import pytest

from motc.bench import (
    build_model_system,
    build_observable_set,
    build_rank_truncated_state,
    build_thermal_state,
    sample_random_field,
)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def expi(h: np.ndarray, theta: float = 1.0) -> np.ndarray:
    """exp(-i theta H) for Hermitian H, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def free_evolution_final(system) -> np.ndarray:
    """U(T) for eps = 0, directly from the H0 eigenbasis."""
    return expi(system.h0, system.t_final)


@pytest.fixture(scope="session")
def model_system():
    return build_model_system(11, t_final=100.0, q=1024)


@pytest.fixture(scope="session")
def small_system():
    # Shorter horizon and coarser grid: fast propagations for module tests.
    return build_model_system(11, t_final=20.0, q=256)


@pytest.fixture(scope="session")
def thermal_state(small_system):
    return build_thermal_state(small_system, 1.0)


@pytest.fixture(scope="session")
def rank7_state(small_system):
    return build_rank_truncated_state(small_system, 7)


@pytest.fixture(scope="session")
def observable_set():
    return build_observable_set(11, 10, np.random.default_rng(7))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_field(small_system):
    return sample_random_field(small_system, np.random.default_rng(5))
