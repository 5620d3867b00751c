"""The multiobservable objective, its gradients, and its maximum on U(N).

Objective.  Phi_M = sum_k Phi_k = Tr(U rho U^dag Theta_M), Theta_M = sum_k Theta_k,
whose gradient on U(N) is the double bracket [Theta_M, V rho V^dag] V and
whose maximizers are closed-form.  The integrated flow is kept, unexported,
only because the benchmark (``perfbench/layertrace.py``) wraps it by name;
its closed-form pure-state oracle lives with the tests (``tests/conftest.py``).

Sign convention.  With H(t) = H0 - mu eps(t) and hbar = 1, first-order
perturbation of the Schroedinger equation gives

    dU(T)/d eps(t) = +i U(T) mu(t),      mu(t) = U^dag(t) mu U(t),

so the functional derivative of Phi = Tr(U rho U^dag Theta) is

    d Phi / d eps(t) = +i Tr([Theta(T), mu(t)] rho(0)),

with Theta(T) = U^dag(T) Theta U(T).  The sign is fixed by central finite
differences of the discrete objective (see tests); flipping it would turn the
ascent flow into descent.

Discrete gradients.  The field is constant per step, so the exact
sensitivity of the discrete Phi to sample j goes through the step average of
mu(t), not its node value.  The propagation's ``dipoles`` hold that average
in sample units (see ``motc.dynamics``): g_j = i Tr([Theta(T), dipoles[j]]
rho(0)) is d Phi/d eps_j over the trapezoid weight w_j, commensurate with
per-sample finite differences.  By cyclicity of the trace,
i Tr([Theta_k(T), mu_j] rho(0)) = i Tr(C_k mu_j) with the one commutator
C_k = [rho(0), Theta_k(T)] per observable, so all (m, q) samples are a
single product of C, flattened to (m, N^2), with the flattened step dipoles
(the exact GRAPE gradient: Khaneja et al., J. Magn. Reson. 172, 296 (2005)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PropagationResult, StateSpec
from .errors import ConsistencyError, StallError
from .linalg import condition_from_singular_values, require_finite, require_hermitian, require_unitary

GRAD_NORM_TOL = 1e-8
# Smallest step of the kinematic flow's halving retries before it stalls.
FLOW_DS_MIN = 1e-9
# Singular values of the natural-basis Gram matrix above this fraction of
# the largest count toward its numerical rank.
NATURAL_BASIS_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ObservableSet:
    """Hermitian, linearly independent Theta_1..Theta_m of Phi_M = sum_k Phi_k.
    A weighted sum_k alpha_k Phi_k is the unweighted one of alpha_k Theta_k."""

    operators: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None]
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("operators must be a stack of square matrices")
        for k in range(ops.shape[0]):
            require_hermitian(ops[k], name=f"Theta_{k + 1}")
        gram = np.einsum("kab,lba->kl", ops.conj().transpose(0, 2, 1), ops).real
        require_finite(gram, "observable Gram matrix")
        if condition_from_singular_values(np.linalg.svd(gram, compute_uv=False)) >= 1e12:
            raise ValueError("observables are (numerically) linearly dependent")
        object.__setattr__(self, "operators", ops)

    @property
    def m(self) -> int:
        return self.operators.shape[0]

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def subset(self, m: int) -> "ObservableSet":
        """The first m observables."""
        if not 1 <= m <= self.m:
            raise ValueError(f"subset size {m} out of range 1..{self.m}")
        return ObservableSet(self.operators[:m])


def single_observable_gradients(
    prop: PropagationResult, state: StateSpec, oset: ObservableSet
) -> np.ndarray:
    """(m, q) matrix of d Phi_k / d eps(t_j), one row per observable.

    Row k is  i Tr([Theta_k(T), dipoles[j]] rho(0)) = i Tr(C_k dipoles[j]),
    C_k = [rho(0), Theta_k(T)].
    """
    u, rho, n = prop.final, state.rho0, prop.final.shape[0]
    if oset.dim != n or state.dim != n:
        raise ValueError("dimension mismatch")
    theta_t = u.conj().T @ oset.operators @ u
    c = rho @ theta_t - theta_t @ rho
    # Tr(C mu) = sum_ab (C^T)_ab mu_ab: one GEMM over the flattened matrices.
    c_flat = c.transpose(0, 2, 1).reshape(oset.m, n * n)
    raw = 1j * (c_flat @ prop.dipoles.reshape(-1, n * n).T)
    resid = np.abs(raw.imag).max()
    if resid > 1e-10 * max(np.abs(raw.real).max(), 1.0):
        raise ConsistencyError(f"gradient imaginary residue {resid:.3e} above tolerance")
    # A strided view would send gramian_motc's a @ a.T down another BLAS
    # path, with other roundoff.
    return np.ascontiguousarray(raw.real)


def gradient_field(prop: PropagationResult, state: StateSpec, oset: ObservableSet) -> np.ndarray:
    """d Phi_M / d eps(t_j): the sum of the single-observable gradients."""
    return single_observable_gradients(prop, state, oset).sum(axis=0)


def _double_bracket(v: np.ndarray, rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """[Theta, V rho V^dag] V, for any square V (no unitarity check)."""
    om = v @ rho @ v.conj().T
    return (theta @ om - om @ theta) @ v


def unitary_gradient(v: np.ndarray, state: StateSpec, oset: ObservableSet) -> np.ndarray:
    """Gradient of Phi_M on U(N): [Theta_M, V rho(0) V^dag] V."""
    return _double_bracket(require_unitary(v, name="V"), state.rho0, oset.operators.sum(axis=0))


def _polar_unitary(v: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(v)
    return u @ vt


# Kept only for the benchmark, which wraps kinematic_flow by name; the tests
# hold its closed-form oracle.
@dataclass(frozen=True)
class KinematicFlowResult:
    """Accepted states of the gradient flow on U(N)."""

    s: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    converged: bool


def kinematic_flow(
    v0: np.ndarray,
    state: StateSpec,
    oset: ObservableSet,
    s_max: float,
    ds: float = 0.01,
    grad_tol: float = GRAD_NORM_TOL,
    ds_cap: float | None = None,
) -> KinematicFlowResult:
    """Integrate dV/ds = [Theta_M, V rho V^dag] V with re-unitarization.

    Each step is classical RK4 (the closed-form-oracle accuracy needs it)
    followed by the polar projection back onto U(N).  Steps whose Phi_M
    decreases are halved and retried, so Phi_M is nondecreasing across
    accepted states.  Accepted steps may regrow up to ``ds_cap`` (defaults
    to the initial ds, i.e. no growth; set it larger to speed up the slow
    tail toward a critical point).  Terminates at ``s_max`` or when the
    gradient norm drops below ``grad_tol``.  The right-hand side at each
    accepted V serves both the gradient-norm test and the next step's k1,
    also across halved retries.
    """
    v = require_unitary(np.asarray(v0, dtype=complex), name="V0").copy()
    if ds <= 0:
        raise ValueError("ds must be positive")
    rho, theta_m = state.rho0, oset.operators.sum(axis=0)

    def rhs(vc: np.ndarray) -> np.ndarray:
        # The RK4 stage points are not unitary: no check here.
        return _double_bracket(vc, rho, theta_m)

    def phi_of(vc: np.ndarray) -> float:
        return float(np.trace(vc @ rho @ vc.conj().T @ theta_m).real)

    phi_cur = phi_of(v)
    s_list, v_list, phi_list = [0.0], [v.copy()], [phi_cur]
    s = 0.0
    ds_cap = ds if ds_cap is None else max(ds, ds_cap)
    k1 = rhs(v)
    converged = float(np.linalg.norm(k1)) < grad_tol
    while not converged and s < s_max - 1e-12:
        h = min(ds, s_max - s)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        cand = _polar_unitary(v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        phi_cand = phi_of(cand)
        if phi_cand < phi_cur:
            ds = ds / 2.0
            if ds < FLOW_DS_MIN:
                if phi_cur - phi_cand <= 1e-12 * (abs(phi_cur) + 1.0):
                    break  # ascent exhausted at numerical precision
                raise StallError(
                    f"kinematic flow stalled at s = {s:.6f} (step below {FLOW_DS_MIN:.1e})",
                    s=s,
                )
            continue
        v, s, phi_cur = cand, s + h, phi_cand
        ds = min(ds * 2.0, ds_cap)
        s_list.append(s)
        v_list.append(v.copy())
        phi_list.append(phi_cur)
        k1 = rhs(v)
        converged = float(np.linalg.norm(k1)) < grad_tol
    return KinematicFlowResult(
        s=np.array(s_list),
        v=np.array(v_list),
        phi=np.array(phi_list),
        converged=converged,
    )


def kinematic_maximizer(u0: np.ndarray, state: StateSpec, theta: np.ndarray) -> np.ndarray:
    """The maximizer W of Tr(W rho W^dag Theta) on U(N) nearest U0 in the
    Frobenius norm, in closed form.

    With both eigenbases ascending, the maximum sum_k p_k lambda_k (von
    Neumann's trace inequality) is attained on W = V_Theta D V_rho^dag, D
    block-unitary over rho's degenerate eigenspaces: the fixed points of the
    double-bracket flow `kinematic_flow` integrates (Brockett, Linear Algebra
    Appl. 146, 79 (1991)).  ||U0 - W||_F = ||V_Theta^dag U0 V_rho - D||_F is
    least for the polar factor of each diagonal block.  V_rho and the blocks
    are the state's ``eigenbasis`` and ``cluster_edges``.  Theta is taken
    nondegenerate, as the model's Theta_1 is.
    """
    u0 = require_unitary(np.asarray(u0, dtype=complex), name="U0")
    v_rho = state.eigenbasis
    _, v_theta = np.linalg.eigh(require_hermitian(np.asarray(theta, dtype=complex), name="Theta"))
    u = v_theta.conj().T @ u0 @ v_rho
    d = np.zeros_like(u)
    edges = state.cluster_edges
    for lo, hi in zip(edges, edges[1:]):
        d[lo:hi, lo:hi] = _polar_unitary(u[lo:hi, lo:hi])
    return v_theta @ d @ v_rho.conj().T


def natural_basis_dimension(state: StateSpec) -> int:
    """D = n(2N - n) - sum_i n_i^2 for the dimension N, rank n and
    degeneracies n_i the state derives from its density matrix."""
    n = state.rank
    return n * (2 * state.dim - n) - sum(k * k for k in state.degeneracies)


def natural_basis_functions(prop: PropagationResult, state: StateSpec) -> np.ndarray:
    """Independent coefficient functions spanning the dynamical gradient.

    In the rho(0) eigenbasis the gradient reads
    i sum_{ij} (p_i - p_j) Theta(T)_{ij} mu(t)_{ji}, so as the observable
    varies the gradient spans {Re mu(t)_{ij}, Im mu(t)_{ij}} over pairs
    i < j with p_i != p_j, i.e. in different clusters of the state's
    ``cluster_edges``.  Returns those real functions sampled on the grid,
    shape (n_functions, q), Re and Im of each pair in turn; n_functions
    equals :func:`natural_basis_dimension`.  mu(t) is the propagation's
    ``dipoles``, in sample units, so the functions span the exact discrete
    gradients.
    """
    if state.dim != prop.final.shape[0]:
        raise ValueError("dimension mismatch")
    r = state.eigenbasis
    mu_eig = r.conj().T @ prop.dipoles @ r
    sizes = np.diff(state.cluster_edges)
    cluster = np.repeat(np.arange(sizes.size), sizes)
    iu, ju = np.triu_indices(state.dim, 1)
    apart = cluster[iu] != cluster[ju]
    pairs = mu_eig[:, iu[apart], ju[apart]].T
    return np.stack([pairs.real, pairs.imag], axis=1).reshape(-1, prop.weights.size)


def natural_basis_rank(prop: PropagationResult, state: StateSpec) -> int:
    """Numerical rank of the natural-basis Gram matrix (trapezoid quadrature)."""
    fam = natural_basis_functions(prop, state)
    if fam.size == 0:
        return 0
    gram = (fam * prop.weights[None, :]) @ fam.T
    sv = np.linalg.svd(gram, compute_uv=False)
    return int((sv > NATURAL_BASIS_RANK_TOL * sv[0]).sum())

