"""Homotopy tracking: tracks, Gramians, and the tracking field update.

Tracking turns "follow a prescribed path" into an initial value problem in
algorithmic time s.  For m observables with expectation path w_s, expanding
d eps/d s on the basis of the observable gradients a^i(t) and enforcing
d Phi/d s = d w/d s gives

    d eps_s(t)/d s = f_s(t) + [dw/ds + c_s - int a f dt']^T Gamma^{-1} a_s(t),

with the Gramian (Gamma)_ij = int a^i a^j dt, the free function f choosing
among the solution family, and an optional error-correction term c_s pulling
the actual expectations back onto the track.  Unitary-propagator tracking is
the same construction over the N^2 dipole basis functions with Gramian G.

So the two differ only in their track, and `motc_rhs` is the one engine for
both.  A track (`ObservableTrack`, `UnitaryTrack`) supplies ``rows(prop)``,
the rows a of shape (m, q); ``rate(prop, s, beta)``, dw/ds in the rows'
coordinates plus beta times the deviation from the track; ``error(prop, s)``,
the 2-norm error, inf-norm error and track distance a run logs; and its
``hard_cap`` on the Gramian condition (None: no cap).  ``gramian(prop)`` gives
the rows and their `GramianReport` once per propagation, memoised on the
propagation object (held by weak reference), so a run's recorder and the
integrator's next first stage share one gradient, Gramian and SVD.

All time integrals are trapezoidal sums on the propagation grid; because the
gradient samples are exact derivatives of the discrete dynamics divided by
the quadrature weights, the discrete chain rule d Phi/d s = sum_j w_j a_j
(d eps_j/d s) holds exactly and first-order tracking consistency is limited
only by O(ds^2) terms.
"""

from __future__ import annotations

import functools
import weakref
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

# Observable-track Gramians beyond this cap abort with SingularTrackError.
MOTC_HARD_CAP = 1e14
# Residual fraction above which a Gramian solve, along any track, is
# considered to have no usable solution at all.  The residual is measured
# against max(||rhs||, RESIDUAL_FLOOR): on a track that does not move the
# right-hand side is pure roundoff (~1e-15), most of it outside range(G), and
# its exact solution (zero) must not be declared unreachable.
RESIDUAL_CAP = 0.9
RESIDUAL_FLOOR = 1e-12

Path = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class GramianReport:
    """Symmetric PSD Gramian with its singular values and condition number."""

    matrix: np.ndarray
    singular_values: np.ndarray
    condition: float
    _u: np.ndarray = field(repr=False, default=None)
    _vt: np.ndarray = field(repr=False, default=None)


def _per_propagation(method):
    """Memoise ``method(self, prop)`` for the last ``prop``, keyed on the
    object (``is``) and held by weak reference: it keeps no propagation alive."""
    name = "_last_" + method.__name__

    @functools.wraps(method)
    def memoised(self, prop):
        ref, value = getattr(self, name, (None, None))
        if ref is None or ref() is not prop:
            value = method(self, prop)
            setattr(self, name, (weakref.ref(prop), value))
        return value

    return memoised


class Track:
    """A path to follow (see the module docstring), with its Gramian memo."""

    hard_cap: float | None = None

    @_per_propagation
    def gramian(self, prop: PropagationResult) -> tuple[np.ndarray, GramianReport]:
        """The rows a of ``prop`` and their Gramian report."""
        a = self.rows(prop)
        return a, gramian_motc(a, prop.weights)


class ObservableTrack(Track):
    """A path w_s in R^m for the expectations Phi of ``oset`` in ``state``.

    Rows: the single-observable gradients.  Rate: dw/ds, plus
    beta (w_s - Phi_s).  Error: the 2-norm and inf-norm of Phi_s - w_s, and
    no track distance (NaN).  Gramians beyond MOTC_HARD_CAP abort.
    """

    hard_cap = MOTC_HARD_CAP

    def __init__(self, state: StateSpec, oset: ObservableSet, w_of_s: Path, dw_ds: Path):
        self.state, self.oset, self.w_of_s, self.dw_ds = state, oset, w_of_s, dw_ds

    def rows(self, prop: PropagationResult) -> np.ndarray:
        return single_observable_gradients(prop, self.state, self.oset)

    @_per_propagation
    def phi(self, prop: PropagationResult) -> np.ndarray:
        """The expectations Phi of ``prop`` that the track follows."""
        return expectations(prop, self.state, self.oset)

    def rate(self, prop: PropagationResult, s: float, beta: float | None = None) -> np.ndarray:
        dw = self.dw_ds(s)
        if beta is not None:
            dw = dw + beta * (self.w_of_s(s) - self.phi(prop))
        return dw

    def error(self, prop: PropagationResult, s: float) -> tuple[float, float, float]:
        dev = self.phi(prop) - self.w_of_s(s)
        return float(np.linalg.norm(dev)), float(np.abs(dev).max()), float("nan")


class UnitaryTrack(Track):
    """A path Q_s in U(N) for the propagator U_s(T), generated by A.

    Rows: the N^2 dipole basis functions (a = B^T).  Rate: the coordinates
    of Delta_s = Herm(-i U_s^dag(T) dQ_s/ds), dQ/ds in the tangent frame at
    U_s(T), plus beta (-i log(U_s^dag(T) Q_s)).  Error: ||U_s(T) - Q_s||_F
    in all three places.  G is routinely ill-conditioned, so there is no
    hard cap (a cap would reject essentially every propagation); the
    residual check of `solve_gramian` applies as for every track.
    """

    def __init__(self, generator: np.ndarray, q_of_s: Path, dq_ds: Path):
        self.generator, self.q_of_s, self.dq_ds = generator, q_of_s, dq_ds

    def rows(self, prop: PropagationResult) -> np.ndarray:
        return dipole_component_matrix(prop).T

    def rate(self, prop: PropagationResult, s: float, beta: float | None = None) -> np.ndarray:
        uh = prop.final.conj().T
        delta = -1j * (uh @ self.dq_ds(s))
        delta = 0.5 * (delta + delta.conj().T)
        if beta is not None:
            delta = delta + beta * log_unitary_principal(uh @ self.q_of_s(s))
        return herm_to_vec(delta)

    def error(self, prop: PropagationResult, s: float) -> tuple[float, float, float]:
        dist = float(np.linalg.norm(prop.final - self.q_of_s(s)))
        return dist, dist, dist


def _geodesic(u0: np.ndarray, w: np.ndarray):
    """Validated U0, the geodesic generator A = -i log(U0^dag W) and its
    eigendecomposition A = va diag(wa) vah."""
    u0 = require_unitary(np.asarray(u0, complex), name="U0")
    w = require_unitary(np.asarray(w, complex), name="W")
    a = log_unitary_principal(u0.conj().T @ w)
    wa, va = np.linalg.eigh(a)
    return u0, a, wa, va, va.conj().T


def geodesic_target_unitary(u0: np.ndarray, w: np.ndarray) -> UnitaryTrack:
    """Geodesic track Q_s from U0 to W in U(N).

    The generator is oriented so the endpoints close: A = -i log(U0^dag W)
    and Q_s = U0 exp(iAs) gives Q_1 = W exactly.
    """
    u0, a, wa, va, vah = _geodesic(u0, w)

    def q_of_s(s: float) -> np.ndarray:
        return u0 @ ((va * np.exp(1j * s * wa)) @ vah)

    def dq_ds(s: float) -> np.ndarray:
        return u0 @ ((va * (1j * wa * np.exp(1j * s * wa))) @ vah)

    return UnitaryTrack(a, q_of_s, dq_ds)


def geodesic_target_observables(
    u0: np.ndarray, w: np.ndarray, state: StateSpec, oset: ObservableSet
) -> ObservableTrack:
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

    return ObservableTrack(state, oset, w_of_s, dw_ds)


def linear_target_observables(
    phi_start: np.ndarray, phi_target: np.ndarray, state: StateSpec, oset: ObservableSet
) -> ObservableTrack:
    """Straight-line path w_s = (1 - s) Phi_0 + s Phi_target for the
    expectations of ``oset`` in ``state``."""
    p0, p1 = np.asarray(phi_start, float), np.asarray(phi_target, float)
    if p0.shape != p1.shape or p0.ndim != 1:
        raise ValueError("phi_start and phi_target must be matching vectors")
    return ObservableTrack(state, oset, lambda s: (1.0 - s) * p0 + s * p1, lambda s: p1 - p0)


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


def motc_rhs(
    track: Track, prop: PropagationResult, s: float,
    free: np.ndarray | None = None, beta: float | None = None,
) -> np.ndarray:
    """d eps/d s = f + x^T a along ``track`` at algorithmic time s, with
    Gamma x = rate - int a f dt solved under the track's hard cap; ``beta``
    adds the track's error correction (None tracks without it)."""
    a, report = track.gramian(prop)
    f = np.zeros(a.shape[1]) if free is None else np.asarray(free, float)
    if f.shape != (a.shape[1],):
        raise ValueError("free function must have one sample per grid node")
    b = track.rate(prop, s, beta) - a @ (prop.weights * f)
    return solve_gramian(report, b, hard_cap=track.hard_cap) @ a + f
