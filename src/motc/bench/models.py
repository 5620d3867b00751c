"""Builders for the benchmark system, states, observables, and random fields."""

from __future__ import annotations

import numpy as np

from ..dynamics import QuantumSystem, ControlField, StateSpec
from ..landscape import ObservableSet


def build_model_system(n: int = 11, t_final: float = 100.0, q: int = 1024) -> QuantumSystem:
    """The banded N-level benchmark system.

    H0 = diag(0.1, 0.2, ..., 0.1 N); the dipole has unit diagonal, 0.15 on
    the first off-diagonals, 0.08 on the second, zero beyond.
    """
    if n < 3:
        raise ValueError("band rule degenerates below dimension 3")
    h0 = np.diag(0.1 * np.arange(1, n + 1)).astype(complex)
    mu = np.eye(n, dtype=complex)
    off = np.arange(n - 1)
    mu[off, off + 1] = mu[off + 1, off] = 0.15
    off = np.arange(n - 2)
    mu[off, off + 2] = mu[off + 2, off] = 0.08
    return QuantumSystem(h0=h0, mu=mu, t_final=t_final, q=q)


def sample_random_field(system: QuantumSystem, rng: np.random.Generator) -> ControlField:
    """Multimode field eps(t) = sum_{i<j} A_ij sin(w_ij t + phi_ij).

    Mode frequencies are the transition frequencies |E_i - E_j| of H0;
    amplitudes are uniform on (0, 1], phases uniform on (0, 2 pi].
    """
    energies = system.energies()
    iu, ju = np.triu_indices(system.dim, 1)
    omega = np.abs(energies[iu] - energies[ju])
    n_modes = omega.size
    amps = 1.0 - rng.uniform(0.0, 1.0, n_modes)
    phases = 2.0 * np.pi * (1.0 - rng.uniform(0.0, 1.0, n_modes))
    t = system.times
    eps = np.einsum("m,mt->t", amps, np.sin(omega[:, None] * t[None, :] + phases[:, None]))
    return ControlField(eps)


def build_rank_truncated_state(
    system: QuantumSystem, rank: int, temperature: float = 1.0
) -> StateSpec:
    """The thermal state of H0, truncated to its ``rank`` largest weights.

    lambda_i = exp(-E_i / T_e) / sum_k exp(-E_k / T_e) over the ``rank``
    lowest energies, zero above them, renormalized; nondegenerate whenever
    the energies are distinct.  Rank N is the full thermal state and rank 1
    the projector onto the ground state of H0.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if not 1 <= rank <= system.dim:
        raise ValueError(f"rank must be in 1..{system.dim}")
    w, v = np.linalg.eigh(system.h0)
    lam = np.exp(-(w - w.min()) / temperature)
    order = np.argsort(lam)[::-1]
    keep = np.zeros(system.dim, dtype=bool)
    keep[order[:rank]] = True
    lam = np.where(keep, lam, 0.0)
    lam /= lam.sum()
    rho = (v * lam) @ v.conj().T
    return StateSpec(rho)


def build_observable_set(n: int, m: int, rng: np.random.Generator) -> ObservableSet:
    """Theta_1 a random nondegenerate diagonal; Theta_2..Theta_m sequential
    canonical-basis projectors |k-1><k-1| (1-based kets)."""
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}")
    while True:
        d = 1.0 - rng.uniform(0.0, 1.0, n)
        if np.diff(np.sort(d)).min() >= 1e-6:
            break
    ops = [np.diag(d).astype(complex)]
    for k in range(2, m + 1):
        proj = np.zeros((n, n), dtype=complex)
        proj[k - 2, k - 2] = 1.0
        ops.append(proj)
    return ObservableSet(np.array(ops))
