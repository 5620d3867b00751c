"""Propagating the driven 11-level benchmark system.

Builds the banded model system, samples a multimode control field at the
transition frequencies, propagates the Schrodinger equation with the
piecewise-constant diagonalization scheme, and checks the conservation
properties that every downstream computation relies on.
"""

import numpy as np

from motc import expectations, propagate, zero_field
from motc.bench import build_model_system, build_rank_truncated_state, sample_random_field
from motc.landscape import ObservableSet

system = build_model_system(11, t_final=100.0, q=1024)
print(f"system: N={system.dim}, T={system.t_final}, q={system.q}, dt={system.dt:.4f}")

# Free evolution first: with eps = 0 the propagator is diagonal in H0's basis.
prop_free = propagate(system, zero_field(system))
expected = np.diag(np.exp(-1j * system.t_final * np.diag(system.h0).real))
print("free evolution matches e^{-i E_k T}:",
      np.linalg.norm(prop_free.final - expected) < 1e-10)

# Now drive it with a random field (55 modes at the transition frequencies).
field = sample_random_field(system, np.random.default_rng(42))
prop = propagate(system, field)

unitarity = np.linalg.norm(prop.final.conj().T @ prop.final - np.eye(11))
print(f"||U(T)^dag U(T) - I||_F = {unitarity:.2e}")

# The thermal state: the rank-N truncation keeps every Boltzmann weight.
state = build_rank_truncated_state(system, system.dim, temperature=1.0)
rho_t = prop.final @ state.rho0 @ prop.final.conj().T
print(f"Tr rho(T) = {np.trace(rho_t).real:.15f}")
print("spectrum preserved:",
      np.allclose(np.linalg.eigvalsh(rho_t), state.populations, atol=1e-9))

# Populations move, of course:
proj_ground = np.zeros((11, 11), dtype=complex)
proj_ground[0, 0] = 1.0
phi = expectations(prop, state, ObservableSet(proj_ground))
print(f"ground-state population: {np.diag(state.rho0)[0].real:.4f} -> {phi[0]:.4f}")
