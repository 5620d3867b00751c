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
Both follow one geodesic Q_s in U(N): the observable geodesic is its image
w_s = Phi(Q_s), with dw_s^k/ds = 2 Re Tr(Theta_k dQ_s/ds rho(0) Q_s^dag).

So the two differ only in their track, and `motc_rhs` is the one engine for
both.  A track (`ObservableTrack`, `UnitaryTrack`) supplies ``rows(prop)``,
the rows a of shape (m, q); ``rate(prop, s, beta)``, dw/ds in the rows'
coordinates plus beta times the deviation from the track; and
``error(prop, s)``, the 2-norm error, inf-norm error and track distance a run
logs.  ``gramian(prop)`` gives the rows and their `GramianReport` once per
propagation, memoised on the propagation object (held by weak reference), so
a run's recorder and the integrator's next first stage share one gradient,
Gramian and SVD.  Every track's Gramian is solved by `solve_gramian`.

All time integrals are trapezoidal sums on the propagation grid.  Every
track's rows are linear images of the propagation's ``dipoles``, in sample
units (see ``motc.dynamics``), so the discrete chain rule
d Phi/d s = sum_j w_j a_j (d eps_j/d s) holds exactly and first-order
tracking consistency is limited only by O(ds^2) terms.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import PropagationResult, StateSpec, expectations
from .errors import ConsistencyError, SingularTrackError
from .landscape import ObservableSet, single_observable_gradients
from .linalg import (
    condition_from_singular_values,
    herm_to_vec,
    log_unitary_principal,
    require_unitary,
)

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
    _u: np.ndarray = field(repr=False)
    _vt: np.ndarray = field(repr=False)


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

    @_per_propagation
    def gramian(self, prop: PropagationResult) -> tuple[np.ndarray, GramianReport]:
        """The rows a of ``prop`` and their Gramian report."""
        a = self.rows(prop)
        return a, gramian_motc(a, prop.weights)


class ObservableTrack(Track):
    """A path w_s in R^m for the expectations Phi of ``oset`` in ``state``.

    Rows: the single-observable gradients.  Rate: dw/ds, plus
    beta (w_s - Phi_s).  Error: the 2-norm and inf-norm of Phi_s - w_s, and
    no track distance (NaN).
    """

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
    """The geodesic Q_s = U0 e^{iAs} in U(N) for the propagator U_s(T).

    One ``eigh`` of the generator A = va diag(wa) va^dag at construction
    serves every Q_s and dQ_s/ds, and so the observable geodesic Phi(Q_s).  Rows:
    the N^2 dipole basis functions, the real coordinates of ``dipoles`` (a = B^T).
    Rate: the coordinates of Delta_s = Herm(-i U_s^dag(T) dQ_s/ds), dQ/ds in the
    tangent frame at U_s(T), plus beta (-i log(U_s^dag(T) Q_s)).  Error:
    ||U_s(T) - Q_s||_F in all three places.  G is routinely ill-conditioned; its
    solves truncate and check the residual as for every track.
    """

    def __init__(self, u0: np.ndarray, generator: np.ndarray):
        self.u0, self.generator = u0, generator
        self._wa, self._va = np.linalg.eigh(generator)
        self._vah = self._va.conj().T

    def q_of_s(self, s: float) -> np.ndarray:
        return self.u0 @ ((self._va * np.exp(1j * s * self._wa)) @ self._vah)

    def dq_ds(self, s: float) -> np.ndarray:
        return self.u0 @ ((self._va * (1j * self._wa * np.exp(1j * s * self._wa))) @ self._vah)

    def rows(self, prop: PropagationResult) -> np.ndarray:
        return herm_to_vec(prop.dipoles).T

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


def geodesic_target_unitary(u0: np.ndarray, w: np.ndarray) -> UnitaryTrack:
    """Geodesic track Q_s from U0 to W in U(N).

    The generator is oriented so the endpoints close: A = -i log(U0^dag W)
    and Q_s = U0 exp(iAs) gives Q_1 = W exactly.
    """
    u0 = require_unitary(np.asarray(u0, complex), name="U0")
    w = require_unitary(np.asarray(w, complex), name="W")
    return UnitaryTrack(u0, log_unitary_principal(u0.conj().T @ w))


def geodesic_target_observables(
    geodesic: UnitaryTrack, state: StateSpec, oset: ObservableSet
) -> ObservableTrack:
    """Expectation-value path w_s = Phi(Q_s) along the unitary ``geodesic``.

    w_s^k = Tr(Q_s rho(0) Q_s^dag Theta_k), by `expectations` at Q_s, and
    dw_s^k/ds = 2 Re Tr(Theta_k dQ_s/ds rho(0) Q_s^dag).
    """
    def w_of_s(s: float) -> np.ndarray:
        return expectations(geodesic.q_of_s(s), state, oset)

    def dw_ds(s: float) -> np.ndarray:
        d = geodesic.dq_ds(s) @ state.rho0 @ geodesic.q_of_s(s).conj().T
        return 2.0 * np.einsum("ab,kba->k", d, oset.operators).real

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
    """MOTC Gramian (Gamma)_ij = int a^i(t) a^j(t) dt by trapezoid quadrature,
    as b b^T with b = a sqrt(w): one BLAS symmetric rank-k update, exactly symmetric."""
    a = np.asarray(a, float)
    if a.ndim != 2 or a.shape[1] != np.asarray(weights).size:
        raise ValueError("a must be (m, q) with one column per quadrature node")
    b = a * np.sqrt(weights)
    g = b @ b.T
    u, s, vt = np.linalg.svd(g)
    return GramianReport(
        matrix=g, singular_values=s, condition=condition_from_singular_values(s), _u=u, _vt=vt
    )


def gramian_unitary(prop: PropagationResult) -> GramianReport:
    """Unitary-tracking Gramian G: the MOTC Gramian of the N^2 dipole basis
    functions in the real Hermitian parameterization (a = B^T).  G is also
    the kernel F of the projected gradient flow on U(N)."""
    return gramian_motc(herm_to_vec(prop.dipoles).T, prop.weights)


def free_function_min_fluence(samples: np.ndarray, eta: float) -> np.ndarray:
    """Minimal-fluence free function f_s(t) = -(1/eta) eps_s(t).  A sample
    that overflows is infinite, which `motc_rhs` rejects."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    with np.errstate(over="ignore"):
        return -np.asarray(samples, float) / eta


def solve_gramian(report: GramianReport, b: np.ndarray) -> np.ndarray:
    """Solve Gramian x = b under the conditioning policy of every track.

    x comes from the report's SVD, dropping singular values below
    1e-12 sigma_max (none below condition 1e12).  The solve residual,
    measured against max(||b||, RESIDUAL_FLOOR), must then stay below
    RESIDUAL_CAP, else SingularTrackError: b has no usable component in the
    range of the Gramian.
    """
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
    Gamma x = rate - int a f dt solved by `solve_gramian`; ``beta`` adds the
    track's error correction (None tracks without it).  ConsistencyError
    if f is not finite, or if the solve's right-hand side or its squared
    norm, which the solve's residual check takes, is not."""
    a, report = track.gramian(prop)
    f = np.zeros(a.shape[1]) if free is None else np.asarray(free, float)
    if f.shape != (a.shape[1],):
        raise ValueError("free function must have one sample per grid node")
    if not np.isfinite(f).all():
        raise ConsistencyError(f"non-finite free function at s = {s:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        b = track.rate(prop, s, beta) - a @ (prop.weights * f)
        if not np.isfinite(b @ b):
            raise ConsistencyError(f"non-finite Gramian right-hand side at s = {s:.6g}")
    return solve_gramian(report, b) @ a + f
