"""Control-landscape objectives, gradients, and the kinematic flow on U(N).

Sign convention.  With H(t) = H0 - mu eps(t) and hbar = 1, first-order
perturbation of the Schroedinger equation gives

    dU(T)/d eps(t) = +i U(T) mu(t),      mu(t) = U^dag(t) mu U(t),

so the functional derivative of Phi = Tr(U rho U^dag Theta) is

    d Phi / d eps(t) = +i Tr([Theta(T), mu(t)] rho(0)),

with Theta(T) = U^dag(T) Theta U(T).  The sign is fixed by central finite
differences of the discrete objective (see tests); flipping it would turn the
ascent flow into descent.

Discrete gradients.  The propagation holds the field constant per step, so
the exact sensitivity of the discrete Phi to sample j involves the step
average of mu(t) over [t_j, t_{j+1}] (``evolved_dipole_step``), not the node
value.  Gradient samples are reported divided by the trapezoidal quadrature
weights, which makes  d Phi  =  sum_j w_j g_j d eps_j  an exact chain rule
and keeps per-sample finite differences commensurate with the functional
derivative.  By cyclicity of the trace,
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
from .linalg import condition_number, herm_to_vec, require_hermitian, require_unitary

GRAD_NORM_TOL = 1e-8
# Eigenvalue clustering tolerance when deciding p_i != p_j in the natural basis.
DEGENERACY_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class ObservableSet:
    """Hermitian observables Theta_1..Theta_m with weights and optional targets."""

    operators: np.ndarray
    weights: np.ndarray | None = None
    targets: np.ndarray | None = None

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None]
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("operators must be a stack of square matrices")
        for k in range(ops.shape[0]):
            require_hermitian(ops[k], name=f"Theta_{k + 1}")
        w = np.ones(ops.shape[0]) if self.weights is None else np.asarray(self.weights, float)
        if w.shape != (ops.shape[0],) or np.any(w <= 0):
            raise ValueError("weights must be positive, one per observable")
        t = None if self.targets is None else np.asarray(self.targets, float)
        if t is not None and t.shape != (ops.shape[0],):
            raise ValueError("targets must have one entry per observable")
        gram = np.einsum("kab,lba->kl", ops.conj().transpose(0, 2, 1), ops).real
        if condition_number(gram) >= 1e12:
            raise ValueError("observables are (numerically) linearly dependent")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "targets", t)

    @property
    def m(self) -> int:
        return self.operators.shape[0]

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def weighted_operator(self) -> np.ndarray:
        """Theta_M = sum_k alpha_k Theta_k."""
        return np.einsum("k,kab->ab", self.weights, self.operators)

    def subset(self, m: int) -> "ObservableSet":
        """The first m observables with their weights (and targets, if any)."""
        if not 1 <= m <= self.m:
            raise ValueError(f"subset size {m} out of range 1..{self.m}")
        t = None if self.targets is None else self.targets[:m]
        return ObservableSet(self.operators[:m], self.weights[:m], t)


def objective_weighted(phi: np.ndarray, oset: ObservableSet) -> float:
    """Phi_M = sum_k alpha_k Phi_k."""
    phi = np.asarray(phi, float)
    if phi.shape != (oset.m,):
        raise ValueError(f"expected {oset.m} expectation values, got {phi.shape}")
    return float(oset.weights @ phi)


def objective_targeted(phi: np.ndarray, oset: ObservableSet) -> float:
    """Phi'_M = sum_k alpha_k (Phi_k - chi_k)^2."""
    phi = np.asarray(phi, float)
    if oset.targets is None:
        raise ValueError("observable set has no targets")
    if phi.shape != (oset.m,):
        raise ValueError(f"expected {oset.m} expectation values, got {phi.shape}")
    return float(oset.weights @ (phi - oset.targets) ** 2)


def _sample_scale(prop: PropagationResult) -> np.ndarray:
    """dt / w_j per sample: converts step sensitivities to weight-divided samples."""
    return prop.dt / prop.weights


def single_observable_gradients(
    prop: PropagationResult, state: StateSpec, oset: ObservableSet
) -> np.ndarray:
    """(m, q) matrix of d Phi_k / d eps(t_j), unit observable weights.

    Row k is  (dt/w_j) * i Tr([Theta_k(T), mu_step(t_j)] rho(0))
    = (dt/w_j) * i Tr(C_k mu_step(t_j)),  C_k = [rho(0), Theta_k(T)].
    """
    if oset.dim != prop.dim or state.dim != prop.dim:
        raise ValueError("dimension mismatch")
    u, rho, n = prop.final, state.rho0, prop.dim
    theta_t = u.conj().T @ oset.operators @ u
    c = rho @ theta_t - theta_t @ rho
    # Tr(C mu) = sum_ab (C^T)_ab mu_ab: one GEMM over the flattened matrices.
    c_flat = c.transpose(0, 2, 1).reshape(oset.m, n * n)
    raw = 1j * (c_flat @ prop.evolved_dipole_step.reshape(prop.q, n * n).T)
    resid = np.abs(raw.imag).max()
    scale = max(np.abs(raw.real).max(), 1e-30)
    if resid > 1e-10 * max(scale, 1.0):
        raise ConsistencyError(f"gradient imaginary residue {resid:.3e} above tolerance")
    return raw.real * _sample_scale(prop)[None, :]


def gradient_field(prop: PropagationResult, state: StateSpec, oset: ObservableSet) -> np.ndarray:
    """d Phi_M / d eps(t_j): alpha-weighted sum of single-observable gradients."""
    return oset.weights @ single_observable_gradients(prop, state, oset)


def gradient_field_targeted(
    prop: PropagationResult, state: StateSpec, oset: ObservableSet, phi: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of sum_k alpha_k (Phi_k - chi_k)^2 via the chain rule."""
    from .dynamics import expectations  # local import to avoid cycle at module load

    if oset.targets is None:
        raise ValueError("observable set has no targets")
    if phi is None:
        phi = expectations(prop, state, oset)
    singles = single_observable_gradients(prop, state, oset)
    coeff = 2.0 * oset.weights * (np.asarray(phi, float) - oset.targets)
    return coeff @ singles


def unitary_gradient(v: np.ndarray, state: StateSpec, oset: ObservableSet) -> np.ndarray:
    """Gradient of Phi_M on U(N): [Theta_M, V rho(0) V^dag] V."""
    v = require_unitary(v, name="V")
    theta_m = oset.weighted_operator()
    om = v @ state.rho0 @ v.conj().T
    return (theta_m @ om - om @ theta_m) @ v


def _polar_unitary(v: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(v)
    return u @ vt


@dataclass(frozen=True)
class KinematicFlowResult:
    """Accepted states of the gradient flow on U(N)."""

    s: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    converged: bool
    gradient_norm: float

    @property
    def final(self) -> np.ndarray:
        return self.v[-1]


def kinematic_flow(
    v0: np.ndarray,
    state: StateSpec,
    oset: ObservableSet,
    s_max: float,
    ds: float = 0.01,
    grad_tol: float = GRAD_NORM_TOL,
    ds_min: float = 1e-9,
    record_every: int = 1,
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
    rho, theta_m = state.rho0, oset.weighted_operator()

    def rhs(vc: np.ndarray) -> np.ndarray:
        om = vc @ rho @ vc.conj().T
        return (theta_m @ om - om @ theta_m) @ vc

    def phi_of(vc: np.ndarray) -> float:
        return float(np.trace(vc @ rho @ vc.conj().T @ theta_m).real)

    phi_cur = phi_of(v)
    s_list, v_list, phi_list = [0.0], [v.copy()], [phi_cur]
    s, step_index = 0.0, 0
    ds_cap = ds if ds_cap is None else max(ds, ds_cap)
    k1 = rhs(v)
    grad_norm = float(np.linalg.norm(k1))
    converged = grad_norm < grad_tol
    while not converged and s < s_max - 1e-12:
        h = min(ds, s_max - s)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        cand = _polar_unitary(v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        phi_cand = phi_of(cand)
        if phi_cand < phi_cur:
            ds = ds / 2.0
            if ds < ds_min:
                if phi_cur - phi_cand <= 1e-12 * (abs(phi_cur) + 1.0):
                    break  # ascent exhausted at numerical precision
                raise StallError(
                    f"kinematic flow stalled at s = {s:.6f} (step below {ds_min:.1e})",
                    s=s,
                )
            continue
        v, s, phi_cur = cand, s + h, phi_cand
        ds = min(ds * 2.0, ds_cap)
        step_index += 1
        if step_index % record_every == 0:
            s_list.append(s)
            v_list.append(v.copy())
            phi_list.append(phi_cur)
        k1 = rhs(v)
        grad_norm = float(np.linalg.norm(k1))
        converged = grad_norm < grad_tol
    if s_list[-1] != s:
        s_list.append(s)
        v_list.append(v.copy())
        phi_list.append(phi_cur)
    return KinematicFlowResult(
        s=np.array(s_list),
        v=np.array(v_list),
        phi=np.array(phi_list),
        converged=converged,
        gradient_norm=grad_norm,
    )


def analytic_purestate_flow(x0: np.ndarray, lambdas: np.ndarray, s: float) -> np.ndarray:
    """Closed-form populations of the pure-state kinematic flow.

    x_k(s) = exp(2 s lambda_k) x_k(0) / sum_j exp(2 s lambda_j) x_j(0),
    evaluated with a max-shift for overflow safety.
    """
    x0 = np.asarray(x0, float)
    lam = np.asarray(lambdas, float)
    if x0.shape != lam.shape:
        raise ValueError("x0 and lambdas must have matching lengths")
    if np.any(x0 < -1e-12):
        raise ValueError("x0 has negative entries")
    if abs(x0.sum() - 1.0) > 1e-8:
        raise ValueError(f"x0 sums to {x0.sum()!r}, not 1")
    y = np.clip(x0, 0.0, None) * np.exp(2.0 * s * (lam - lam.max()))
    return y / y.sum()


def distance_derivative(x0: np.ndarray, lambdas: np.ndarray, jstar: int, s: float) -> float:
    """d/ds of ||x(s) - e_jstar||^2 along the closed-form flow.

    With <lam> = sum_k lambda_k x_k(s), the derivative is
    4 [ sum_k x_k^2 (lambda_k - <lam>)  -  x_jstar (lambda_jstar - <lam>) ].
    Its sign may alternate along s; no monotonicity is implied.
    """
    lam = np.asarray(lambdas, float)
    if not 0 <= jstar < lam.size:
        raise ValueError(f"jstar {jstar} out of range")
    x = analytic_purestate_flow(x0, lam, s)
    lam_mean = float(lam @ x)
    return float(4.0 * ((x**2) @ (lam - lam_mean) - x[jstar] * (lam[jstar] - lam_mean)))


def natural_basis_dimension(state: StateSpec, n_levels: int) -> int:
    """D = n(2N - n) - sum_i n_i^2 for rank n and degeneracies n_i."""
    n = state.rank
    if n > n_levels:
        raise ValueError("state rank exceeds dimension")
    return n * (2 * n_levels - n) - sum(k * k for k in state.degeneracies)


def natural_basis_functions(prop: PropagationResult, state: StateSpec) -> np.ndarray:
    """Independent coefficient functions spanning the dynamical gradient.

    In the rho(0) eigenbasis the gradient reads
    i sum_{ij} (p_i - p_j) Theta(T)_{ij} mu(t)_{ji}, so as the observable
    varies the gradient spans {Re mu(t)_{ij}, Im mu(t)_{ij}} over pairs
    i < j with p_i != p_j.  Returns those real functions sampled on the
    grid, shape (n_functions, q); generically n_functions equals
    :func:`natural_basis_dimension`.  mu(t) is the step-averaged evolved
    dipole scaled by dt/w_j, as in :func:`single_observable_gradients`, so
    the functions span the exact discrete gradients.
    """
    if state.dim != prop.dim:
        raise ValueError("dimension mismatch")
    p, r = np.linalg.eigh(state.rho0)
    p = np.clip(p, 0.0, None)
    mu_step = prop.evolved_dipole_step * _sample_scale(prop)[:, None, None]
    mu_eig = r.conj().T @ mu_step @ r
    rows = []
    n = state.dim
    for i in range(n):
        for j in range(i + 1, n):
            if abs(p[i] - p[j]) > DEGENERACY_CLUSTER_TOL:
                rows.append(mu_eig[:, i, j].real)
                rows.append(mu_eig[:, i, j].imag)
    return np.array(rows)


def natural_basis_rank(
    prop: PropagationResult, state: StateSpec, rel_tol: float = 1e-8
) -> int:
    """Numerical rank of the natural-basis Gram matrix (trapezoid quadrature)."""
    fam = natural_basis_functions(prop, state)
    if fam.size == 0:
        return 0
    gram = (fam * prop.weights[None, :]) @ fam.T
    sv = np.linalg.svd(gram, compute_uv=False)
    return int((sv > rel_tol * sv[0]).sum())


def dipole_component_matrix(prop: PropagationResult) -> np.ndarray:
    """(q, N^2) sample matrix of the dipole basis functions.

    Row j holds the real Hermitian-basis coordinates of the step-averaged
    evolved dipole, scaled by dt/w_j; these are exactly the per-sample
    derivatives of the propagator coordinates, i.e. the expansion functions
    of the tracking equations.  Row q-1 is zero (no step starts there).
    """
    return herm_to_vec(prop.evolved_dipole_step) * _sample_scale(prop)[:, None]

