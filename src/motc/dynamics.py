"""Driven N-level system: time grid, propagators, evolved dipoles, expectations.

The control enters through H(t) = H0 - mu * eps(t) (hbar = 1).  The field is
sampled on q uniform nodes over [0, T] and held constant on each step
[t_j, t_{j+1}] (left-endpoint rule), so the local propagator is
exp(-i H(t_j) dt) with dt = T/(q-1).  Local propagators are built by
diagonalization, exponentiation of the eigenvalues, and sandwiching back.

Besides the cumulative propagators, the propagation returns the within-step
average of the evolved dipole mu(t) = U^dag(t,0) mu U(t,0) over each step,
obtained in closed form from the step eigenbasis.  That average is what makes
functional derivatives of the discrete dynamics exact: the sensitivity of
U(T) to the j-th field sample is i dt U(T) mu_avg(t_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .linalg import require_hermitian

# Eigenvalue clustering tolerance for the state eigenstructure metadata.
DEGENERACY_TOL = 1e-8
# Eigenvalues of rho below this are treated as exact zeros for the rank.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class QuantumSystem:
    """Internal Hamiltonian, dipole, final time and time-grid size."""

    h0: np.ndarray
    mu: np.ndarray
    t_final: float = 100.0
    q: int = 1024

    def __post_init__(self):
        h0 = require_hermitian(np.asarray(self.h0, dtype=complex), name="h0")
        mu = require_hermitian(np.asarray(self.mu, dtype=complex), name="mu")
        if h0.shape != mu.shape:
            raise ValueError(f"h0 and mu dimensions differ: {h0.shape} vs {mu.shape}")
        if not (self.t_final > 0):
            raise ValueError("t_final must be positive")
        if self.q < 2:
            raise ValueError("q must be at least 2")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def dt(self) -> float:
        return self.t_final / (self.q - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.q)

    @property
    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights on the q-grid, used for every [0, T] integral."""
        w = np.full(self.q, self.dt)
        w[0] = w[-1] = self.dt / 2.0
        return w

    def energies(self) -> np.ndarray:
        """Eigenvalues of H0, ascending."""
        return np.linalg.eigvalsh(self.h0)


@dataclass(frozen=True)
class ControlField:
    """Real field samples eps(t_j) on the system's uniform time grid."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1:
            raise ValueError("field samples must be a flat sequence")
        if not np.all(np.isfinite(s)):
            raise ValueError("field has non-finite samples")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.size


def zero_field(system: QuantumSystem) -> ControlField:
    return ControlField(np.zeros(system.q))


@dataclass(frozen=True)
class StateSpec:
    """Initial density matrix with eigenstructure metadata.

    ``rank`` is the number of nonzero eigenvalues, ``degeneracies`` the
    multiplicities (n_1, ..., n_r) of the r distinct nonzero eigenvalues.
    """

    rho0: np.ndarray
    rank: int
    distinct_count: int
    degeneracies: tuple[int, ...]

    def __post_init__(self):
        rho = require_hermitian(np.asarray(self.rho0, dtype=complex), name="rho0")
        w = np.linalg.eigvalsh(rho)
        if w.min() < -1e-12:
            raise ValueError(f"rho0 not positive semidefinite (min eigenvalue {w.min():.3e})")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"rho0 trace {tr!r} differs from 1 beyond 1e-12")
        n = int((w > RANK_TOL).sum())
        if n != self.rank:
            raise ValueError(f"declared rank {self.rank} but spectrum has {n} nonzero eigenvalues")
        if sum(self.degeneracies) != self.rank or len(self.degeneracies) != self.distinct_count:
            raise ValueError("degeneracies inconsistent with rank / distinct_count")
        if self.rank > rho.shape[0]:
            raise ValueError("rank exceeds dimension")
        object.__setattr__(self, "rho0", rho)
        object.__setattr__(self, "degeneracies", tuple(int(k) for k in self.degeneracies))

    @property
    def dim(self) -> int:
        return self.rho0.shape[0]

    @classmethod
    def from_density(cls, rho: np.ndarray, cluster_tol: float = DEGENERACY_TOL) -> "StateSpec":
        """Build the metadata from the spectrum, clustering at ``cluster_tol``."""
        rho = require_hermitian(np.asarray(rho, dtype=complex), name="rho0")
        w = np.sort(np.linalg.eigvalsh(rho))
        nonzero = w[w > RANK_TOL]
        degens: list[int] = []
        last = None
        for lam in nonzero:
            if last is not None and abs(lam - last) <= cluster_tol:
                degens[-1] += 1
            else:
                degens.append(1)
            last = lam
        return cls(
            rho0=rho,
            rank=int(nonzero.size),
            distinct_count=len(degens),
            degeneracies=tuple(degens),
        )


def pure_state(n: int, index: int = 0) -> StateSpec:
    """Projector |index><index| as a StateSpec."""
    rho = np.zeros((n, n), dtype=complex)
    rho[index, index] = 1.0
    return StateSpec(rho0=rho, rank=1, distinct_count=1, degeneracies=(1,))


@dataclass(frozen=True)
class PropagationResult:
    """Cumulative propagators and step-averaged evolved dipoles on the grid.

    ``cumulative[j]`` is U(t_j, 0); ``evolved_dipole_step[j]`` is the exact
    average of mu(t) over the step [t_j, t_{j+1}] (zero matrix at j = q-1,
    where no step starts: the last field sample never enters the
    left-endpoint dynamics).
    """

    cumulative: np.ndarray
    evolved_dipole_step: np.ndarray
    dt: float
    weights: np.ndarray = field(repr=False)

    @property
    def final(self) -> np.ndarray:
        return self.cumulative[-1]

    @property
    def q(self) -> int:
        return self.cumulative.shape[0]

    @property
    def dim(self) -> int:
        return self.cumulative.shape[1]


def propagate(system: QuantumSystem, control: ControlField) -> PropagationResult:
    """Piecewise-constant propagation of the driven system over [0, T]."""
    eps = control.samples
    if eps.size != system.q:
        raise ValueError(f"field has {eps.size} samples, system grid has {system.q}")
    n, q, dt = system.dim, system.q, system.dt
    h0, mu = system.h0, system.mu

    ham = h0[None, :, :] - eps[:-1, None, None] * mu[None, :, :]
    w, v = np.linalg.eigh(ham)
    vh = v.conj().transpose(0, 2, 1)
    steps = (v * np.exp(-1j * dt * w)[:, None, :]) @ vh

    cumulative = np.empty((q, n, n), dtype=complex)
    cumulative[0] = np.eye(n)
    u = cumulative[0]
    for j in range(q - 1):
        u = steps[j] @ u
        cumulative[j + 1] = u
    uh = cumulative.conj().transpose(0, 2, 1)

    # Within-step average of the interaction-picture dipole, in closed form:
    # (1/dt) int_0^dt e^{iHs} mu e^{-iHs} ds has eigenbasis elements
    # mu'_{ab} * phi(i (w_a - w_b) dt) with phi(x) = (e^x - 1)/x.
    gap = (w[:, :, None] - w[:, None, :]) * dt
    small = np.abs(gap) < 1e-7
    safe = np.where(small, 1.0, gap)
    phi = np.where(small, 1.0 + 0.5j * gap, (np.exp(1j * safe) - 1.0) / (1j * safe))
    mu_eig = vh @ mu[None] @ v
    mu_local = (v @ (mu_eig * phi)) @ vh
    evolved_step = np.zeros((q, n, n), dtype=complex)
    evolved_step[:-1] = uh[:-1] @ mu_local @ cumulative[:-1]

    return PropagationResult(
        cumulative=cumulative,
        evolved_dipole_step=evolved_step,
        dt=dt,
        weights=system.quadrature_weights,
    )


def expectations(prop: PropagationResult | np.ndarray, state: StateSpec, observables) -> np.ndarray:
    """Phi_k = Tr(U(T) rho(0) U^dag(T) Theta_k) for each observable; ``prop``
    is a propagation or U(T) itself (such as a flow target W)."""
    theta = observables.operators if hasattr(observables, "operators") else np.asarray(observables)
    theta = np.asarray(theta, dtype=complex)
    if theta.ndim == 2:
        theta = theta[None]
    u = prop.final if isinstance(prop, PropagationResult) else np.asarray(prop)
    if state.dim != u.shape[-1] or theta.shape[-1] != u.shape[-1]:
        raise ValueError("dimension mismatch between propagation, state, and observables")
    rho_t = u @ state.rho0 @ u.conj().T
    vals = np.einsum("ab,kba->k", rho_t, theta)
    resid = np.abs(vals.imag).max()
    scale = max(np.abs(vals.real).max(), 1.0)
    if resid > 1e-10 * scale:
        raise ConsistencyError(f"expectation imaginary residue {resid:.3e} above tolerance")
    return vals.real

