"""Homotopy tracking: geodesic targets, Gramians, and tracking field updates.

Tracking turns "follow a prescribed path" into an initial value problem in
algorithmic time s.  For m observables with expectation path w_s, expanding
d eps/d s on the basis of the observable gradients a^i(t) and enforcing
d Phi/d s = d w/d s gives

    d eps_s(t)/d s = f_s(t) + [dw/ds + c_s - int a f dt']^T Gamma^{-1} a_s(t),

with the Gramian (Gamma)_ij = int a^i a^j dt, the free function f choosing
among the solution family, and an optional error-correction term c_s pulling
the actual expectations back onto the track.  Unitary-propagator tracking is
the same construction over the N^2 dipole basis functions with Gramian G.

All time integrals are trapezoidal sums on the propagation grid; because the
gradient samples are exact derivatives of the discrete dynamics divided by
the quadrature weights, the discrete chain rule d Phi/d s = sum_j w_j a_j
(d eps_j/d s) holds exactly and first-order tracking consistency is limited
only by O(ds^2) terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import PropagationResult, StateSpec, expectations
from .errors import SingularTrackError
from .landscape import ObservableSet, dipole_component_matrix, single_observable_gradients
from .linalg import (
    condition_from_singular_values,
    herm_to_vec,
    log_unitary_principal,
    require_unitary,
)

# Observable-tracking Gramians beyond this cap abort with SingularTrackError.
MOTC_HARD_CAP = 1e14
# Residual fraction above which a Gramian solve, of either kind of track, is
# considered to have no usable solution at all.  The residual is measured
# against max(||rhs||, RESIDUAL_FLOOR): on a track that does not move the
# right-hand side is pure roundoff (~1e-15), most of it outside range(G), and
# its exact solution (zero) must not be declared unreachable.
RESIDUAL_CAP = 0.9
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class GramianReport:
    """Symmetric PSD Gramian with its singular values and condition number."""

    matrix: np.ndarray
    singular_values: np.ndarray
    condition: float
    _u: np.ndarray = field(repr=False, default=None)
    _vt: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True, eq=False)
class TrackTarget:
    """A prescribed path over s in [0, 1], either in U(N) or in R^m.

    Unitary kind: Q_s = U0 exp(iAs) with generator A = -i log(U0^dag W), so
    Q_0 = U0 and Q_1 = W; dQ/ds = Q_s (iA).  Observable kind: the path w_s
    and its derivative as callables on s.
    """

    kind: str
    m: int
    generator: np.ndarray | None = None
    q_of_s: Callable[[float], np.ndarray] | None = None
    dq_ds: Callable[[float], np.ndarray] | None = None
    w_of_s: Callable[[float], np.ndarray] | None = None
    dw_ds: Callable[[float], np.ndarray] | None = None


def _geodesic(u0: np.ndarray, w: np.ndarray):
    """Validated U0, the geodesic generator A = -i log(U0^dag W) and its
    eigendecomposition A = va diag(wa) vah."""
    u0 = require_unitary(np.asarray(u0, complex), name="U0")
    w = require_unitary(np.asarray(w, complex), name="W")
    a = log_unitary_principal(u0.conj().T @ w)
    wa, va = np.linalg.eigh(a)
    return u0, a, wa, va, va.conj().T


def geodesic_target_unitary(u0: np.ndarray, w: np.ndarray) -> TrackTarget:
    """Geodesic track Q_s from U0 to W in U(N).

    The generator is oriented so the endpoints close: A = -i log(U0^dag W)
    and Q_s = U0 exp(iAs) gives Q_1 = W exactly.
    """
    u0, a, wa, va, vah = _geodesic(u0, w)

    def q_of_s(s: float) -> np.ndarray:
        return u0 @ ((va * np.exp(1j * s * wa)) @ vah)

    def dq_ds(s: float) -> np.ndarray:
        return u0 @ ((va * (1j * wa * np.exp(1j * s * wa))) @ vah)

    return TrackTarget(kind="unitary", m=u0.shape[0] ** 2, generator=a, q_of_s=q_of_s, dq_ds=dq_ds)


def geodesic_target_observables(
    u0: np.ndarray, w: np.ndarray, state: StateSpec, oset: ObservableSet
) -> TrackTarget:
    """Expectation-value path induced by the geodesic from U0 to W.

    w_s^k = Tr(rho(0) M_k(s)) with M_k(s) = e^{-iAs} U0^dag Theta_k U0 e^{iAs},
    and dw_s^k/ds = i Tr(rho(0) [M_k(s), A]) by commutator differentiation.
    """
    u0, a, wa, va, vah = _geodesic(u0, w)
    kern = np.einsum("ba,kbc,cd->kad", u0.conj(), oset.operators, u0)
    rho = state.rho0

    def frame(s: float) -> np.ndarray:
        e = (va * np.exp(1j * s * wa)) @ vah
        return np.einsum("ba,kbc,cd->kad", e.conj(), kern, e)

    def w_of_s(s: float) -> np.ndarray:
        return np.einsum("kab,ba->k", frame(s), rho).real

    def dw_ds(s: float) -> np.ndarray:
        m = frame(s)
        comm = m @ a - a @ m
        return (1j * np.einsum("kab,ba->k", comm, rho)).real

    return TrackTarget(kind="observable", m=oset.m, generator=a, w_of_s=w_of_s, dw_ds=dw_ds)


def linear_target_observables(phi_start: np.ndarray, phi_target: np.ndarray) -> TrackTarget:
    """Straight-line path w_s = (1 - s) Phi_0 + s Phi_target in R^m."""
    p0 = np.asarray(phi_start, float)
    p1 = np.asarray(phi_target, float)
    if p0.shape != p1.shape or p0.ndim != 1:
        raise ValueError("phi_start and phi_target must be matching vectors")

    return TrackTarget(
        kind="observable", m=p0.size,
        w_of_s=lambda s: (1.0 - s) * p0 + s * p1,
        dw_ds=lambda s: p1 - p0,
    )


def gramian_motc(a: np.ndarray, weights: np.ndarray) -> GramianReport:
    """MOTC Gramian (Gamma)_ij = int a^i(t) a^j(t) dt by trapezoid quadrature."""
    a = np.asarray(a, float)
    if a.ndim != 2 or a.shape[1] != np.asarray(weights).size:
        raise ValueError("a must be (m, q) with one column per quadrature node")
    g = (a * weights[None, :]) @ a.T
    g = 0.5 * (g + g.T)
    u, s, vt = np.linalg.svd(g)
    return GramianReport(
        matrix=g, singular_values=s, condition=condition_from_singular_values(s), _u=u, _vt=vt
    )


def gramian_unitary(prop: PropagationResult) -> GramianReport:
    """Unitary-tracking Gramian G: the MOTC Gramian of the N^2 dipole basis
    functions in the real Hermitian parameterization (a = B^T).  G is also
    the kernel F of the projected gradient flow on U(N)."""
    return gramian_motc(dipole_component_matrix(prop).T, prop.weights)


def free_function_min_fluence(samples: np.ndarray, eta: float) -> np.ndarray:
    """Minimal-fluence free function f_s(t) = -(1/eta) eps_s(t)."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    return -np.asarray(samples, float) / eta


def solve_gramian(report: GramianReport, b: np.ndarray, hard_cap: float | None = None) -> np.ndarray:
    """Solve Gramian x = b under the conditioning policy of every track.

    SingularTrackError beyond ``hard_cap`` (when given); otherwise x comes
    from the report's SVD, dropping singular values below 1e-12 sigma_max
    (none below condition 1e12).  The solve residual, measured against
    max(||b||, RESIDUAL_FLOOR), must then stay below RESIDUAL_CAP, else
    SingularTrackError: b has no usable component in the range of the
    Gramian.
    """
    if hard_cap is not None and not (report.condition <= hard_cap):
        raise SingularTrackError(
            f"Gramian condition {report.condition:.3e} beyond cap {hard_cap:.1e}",
            condition=report.condition,
        )
    s = report.singular_values
    keep = s > 1e-12 * s[0]
    coeff = np.zeros_like(s)
    coeff[keep] = (report._u.T @ b)[keep] / s[keep]
    x = report._vt.T @ coeff
    b_norm = np.linalg.norm(b)
    abs_residual = np.linalg.norm(report.matrix @ x - b)
    residual = abs_residual / max(b_norm, RESIDUAL_FLOOR)
    if residual > RESIDUAL_CAP:
        raise SingularTrackError(
            f"track unreachable: solve residual {residual:.2f} "
            f"(absolute {abs_residual:.3e}, |rhs| {b_norm:.3e}; "
            f"Gramian condition {report.condition:.3e})",
            condition=report.condition,
        )
    return x


def _track_rhs(
    a: np.ndarray,
    weights: np.ndarray,
    dw: np.ndarray,
    free: np.ndarray | None,
    hard_cap: float | None,
) -> np.ndarray:
    """d eps/d s = f + x^T a with Gamma x = dw - int a f dt: the tracking
    solve shared by observable and unitary tracks."""
    f = np.zeros(a.shape[1]) if free is None else np.asarray(free, float)
    if f.shape != (a.shape[1],):
        raise ValueError("free function must have one sample per grid node")
    x = solve_gramian(gramian_motc(a, weights), dw - a @ (weights * f), hard_cap=hard_cap)
    return x @ a + f


def motc_rhs(
    prop: PropagationResult,
    state: StateSpec,
    oset: ObservableSet,
    target: TrackTarget,
    s: float,
    free: np.ndarray | None = None,
    beta: float | None = None,
) -> np.ndarray:
    """d eps/d s for multiobservable tracking at algorithmic time s.

    With ``beta`` the track derivative gains the error correction
    c_s = beta (w_s - Phi_s); None tracks without it."""
    if target.kind != "observable":
        raise ValueError("motc_rhs requires an observable-kind target")
    if target.m != oset.m:
        raise ValueError(f"target tracks {target.m} observables, set has {oset.m}")
    a = single_observable_gradients(prop, state, oset)
    dw = target.dw_ds(s)
    if beta is not None:
        dw = dw + beta * (target.w_of_s(s) - expectations(prop, state, oset))
    return _track_rhs(a, prop.weights, dw, free, MOTC_HARD_CAP)


def unitary_rhs(
    prop: PropagationResult,
    target: TrackTarget,
    s: float,
    free: np.ndarray | None = None,
    beta: float | None = None,
) -> np.ndarray:
    """d eps/d s for unitary-propagator tracking at algorithmic time s.

    This is observable tracking with a = B^T, the N^2 dipole basis rows.
    The track derivative is mapped into the tangent frame at U_s(T):
    Delta_s = Herm(-i U_s^dag(T) dQ_s/ds), whose real coordinates the dipole
    basis must reproduce; with ``beta`` it gains the error correction
    beta (-i log(U_s^dag(T) Q_s)).  G is routinely ill-conditioned, so its solve
    drops the directions below 1e-12 sigma_max; there is no hard condition
    cap (a cap would reject essentially every propagation).  As for every
    track, the residual check of `solve_gramian` applies; its
    absolute floor matters on a track that does not move, whose right-hand
    side is pure roundoff and whose answer is d eps/d s = 0.
    """
    if target.kind != "unitary":
        raise ValueError("unitary_rhs requires a unitary-kind target")
    u = prop.final
    uh = u.conj().T
    delta = -1j * (uh @ target.dq_ds(s))
    delta = 0.5 * (delta + delta.conj().T)
    if beta is not None:
        delta = delta + beta * log_unitary_principal(uh @ target.q_of_s(s))
    return _track_rhs(dipole_component_matrix(prop).T, prop.weights, herm_to_vec(delta), free, None)
