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

One pass computes both.  The step Hamiltonians H_j = V_j diag(w_j) V_j^dag
are diagonalized in one batched ``eigh``: the real-symmetric one when H0 and
mu have no imaginary part (as in the banded model of ``motc.bench``), the
complex-Hermitian one otherwise.  With W_j = V_j^dag U(t_j, 0), the step average is
W_j^dag (mu'_j o Phi_j) W_j, where mu'_j = V_j^dag mu V_j is the dipole in
the step eigenbasis and (Phi_j)_ab = phi(i g_ab) with g_ab = (w_a - w_b) dt,
phi(ig) = (e^{ig} - 1)/(ig) = sin(g)/g + i 2 sin^2(g/2)/g and phi(0) = 1.
The sine form is taken from real sines, so no gap loses digits to the
cancellation in e^{ig} - 1.  For a real system V_j, mu'_j and Phi_j's
gaps are real, and the products with a real left factor, the step
exponentials S_j = V_j (e^{-i w_j dt} o V_j^T) and W_j = V_j^T U(t_j, 0),
run as real GEMMs on the complex right factor's float64 view.
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
    left-endpoint dynamics).  Both come from one eigendecomposition per
    step, real-symmetric when the system is real: the average is
    W_j^dag (mu'_j o Phi_j) W_j with W_j = V_j^dag U(t_j, 0) and Phi_j
    taken in the sine form phi(ig) = sin(g)/g + i 2 sin^2(g/2)/g; with a
    real V_j, S_j and W_j are real GEMMs (see the module docstring).
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


def _matmul_real_left(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into ``out`` for complex ``b`` and ``out`` with contiguous last axes.

    A real ``a`` multiplies b's float64 view, whose interleaved real and
    imaginary columns make one real GEMM of twice the width in place of a
    complex GEMM that first promotes ``a`` to complex.
    """
    if np.iscomplexobj(a):
        return np.matmul(a, b, out=out)
    np.matmul(a, b.view(np.float64), out=out.view(np.float64))
    return out


def propagate(system: QuantumSystem, control: ControlField) -> PropagationResult:
    """Piecewise-constant propagation of the driven system over [0, T]."""
    eps = control.samples
    if eps.size != system.q:
        raise ValueError(f"field has {eps.size} samples, system grid has {system.q}")
    n, q, dt = system.dim, system.q, system.dt
    h0, mu = system.h0, system.mu
    if not (h0.imag.any() or mu.imag.any()):
        # A real-symmetric H_j has a real eigenbasis, which the real eigh
        # finds with less work than the complex one.
        h0, mu = h0.real, mu.real

    w, v = np.linalg.eigh(h0[None, :, :] - eps[:-1, None, None] * mu[None, :, :])
    vh = v.conj().transpose(0, 2, 1)
    # S_j = V_j (e^{-i w_j dt} o V_j^dag), the phases scaling the rows of a
    # C-ordered operand that a real V_j multiplies as one real GEMM.
    rows = np.multiply(np.exp(-1j * dt * w)[:, :, None], vh, order="C")
    steps = _matmul_real_left(v, rows, out=np.empty_like(rows))

    cumulative = np.empty((q, n, n), dtype=complex)
    cumulative[0] = np.eye(n)
    for j in range(q - 1):
        np.matmul(steps[j], cumulative[j], out=cumulative[j + 1])

    # Within-step average of the interaction-picture dipole, in closed form:
    # (1/dt) int_0^dt e^{iHs} mu e^{-iHs} ds has eigenbasis elements
    # mu'_{ab} * phi(i g_ab) with g_ab = (w_a - w_b) dt and
    # phi(ig) = (e^{ig} - 1)/(ig) = sin(g)/g + i 2 sin^2(g/2)/g, phi(0) = 1.
    # Real sines lose no digits at any gap, where e^{ig} - 1 cancels them.
    # The buffers of the step exponentials and of their rows, spent once
    # the cumulative product is built, take mu' o Phi and W_j.
    g = (w[:, :, None] - w[:, None, :]) * dt
    gap = g != 0
    phi = steps
    phi.real = 1.0
    np.divide(np.sin(g), g, out=phi.real, where=gap)
    half = np.sin(0.5 * g)
    np.multiply(half, half, out=half)
    phi.imag = 0.0
    np.divide(2.0 * half, g, out=phi.imag, where=gap)
    mu_phi = np.multiply(vh @ mu @ v, phi, out=phi)
    wj = _matmul_real_left(vh, cumulative[:-1], out=rows)
    mixed = mu_phi @ wj
    # W_j^dag is the transposed view of W_j conjugated in place: BLAS takes
    # a transposed operand as it is, where a conjugated copy costs a pass.
    np.conjugate(wj, out=wj)
    evolved_step = np.zeros((q, n, n), dtype=complex)
    np.matmul(wj.transpose(0, 2, 1), mixed, out=evolved_step[:-1])

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

