"""Algorithmic-time integrators for field-update flows.

The integrators drive a right-hand side mapping (s, ControlField) to the
field derivative d eps/d s.  `euler_integrate` is the fixed-step linear
update scheme; `rkck_adaptive` is the embedded Cash-Karp Runge-Kutta 4(5)
pair with step-size control from the difference between the fourth- and
fifth-order estimates.  Both are deterministic: identical problems produce
bit-identical step sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ControlField
from .errors import MotcError, StallError

# Cash-Karp tableau.
_CK_C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
_CK_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([3 / 10, -9 / 10, 6 / 5]),
    np.array([-11 / 54, 5 / 2, -70 / 27, 35 / 27]),
    np.array([1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096]),
]
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])

_SAFETY = 0.9
_GROWTH_CAP = 5.0
_SHRINK_CAP = 0.1


@dataclass(frozen=True)
class FlowProblem:
    """A field-update flow over an s interval with error targets, the
    adaptive integrator's step bounds [ds_min, ds_max] and the budget of
    steps either integrator attempts before it stops short of the end."""

    rhs: Callable[[float, ControlField], np.ndarray]
    s_span: tuple[float, float]
    initial: ControlField
    atol: float = 1e-6
    rtol: float = 1e-6
    ds_min: float = 1e-6
    ds_max: float = 0.1
    max_steps: int = 100_000

    def __post_init__(self):
        s0, s1 = self.s_span
        if not s1 > s0:
            raise ValueError("s_span must satisfy s1 > s0")
        if not (self.atol > 0 and self.rtol > 0):
            raise ValueError("tolerances must be positive")
        if not 0 < self.ds_min <= self.ds_max:
            raise ValueError("need 0 < ds_min <= ds_max")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass
class IntegrationReport:
    """Step accounting, the last accepted field and why the integration
    ended: ``termination`` is "completed" (reached the end of the s
    interval), "observer" (the observer asked to stop) or "max_steps" (the
    step budget ran out first).  The accepted trajectory is what the
    observer sees."""

    accepted_steps: int
    rejected_steps: int
    rhs_evaluations: int
    final_field: ControlField
    termination: str = "completed"

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.accepted_steps, self.rejected_steps, self.rhs_evaluations


Observer = Callable[[float, ControlField], bool | None]


def euler_integrate(
    problem: FlowProblem, ds: float, observer: Observer | None = None
) -> IntegrationReport:
    """Fixed-step forward Euler: eps <- eps + ds * rhs(s, eps).

    The interval takes n = round((s1 - s0) / ds) steps (at least one): n - 1
    of length ds, and a last one that ends exactly at s1.  The observer (if
    any) is called after every accepted step; returning True stops the
    integration early.  After the problem's ``max_steps`` steps the
    integration returns with termination "max_steps" short of the
    interval's end.  A MotcError from the right-hand side or the observer
    propagates with ``counts`` set.
    """
    if ds <= 0:
        raise ValueError("ds must be positive")
    s0, s1 = problem.s_span
    n = max(1, round((s1 - s0) / ds))
    y = problem.initial.samples.copy()
    s, steps, termination = s0, 0, "completed"
    try:
        while steps < n:
            h = ds if steps < n - 1 else s1 - s
            dy = problem.rhs(s, ControlField(y))
            steps += 1
            y = y + h * dy
            s = s + h if steps < n else s1
            if observer is not None and observer(s, ControlField(y)):
                termination = "observer"
                break
            if steps >= problem.max_steps and steps < n:
                termination = "max_steps"
                break
    except MotcError as exc:
        exc.counts = (steps, 0, steps)
        raise
    return IntegrationReport(
        accepted_steps=steps,
        rejected_steps=0,
        rhs_evaluations=steps,
        final_field=ControlField(y),
        termination=termination,
    )


def rkck_adaptive(problem: FlowProblem, observer: Observer | None = None) -> IntegrationReport:
    """Adaptive Cash-Karp embedded Runge-Kutta 4(5) over the s interval.

    Per-component errors are scaled by atol + rtol |eps| and combined in an
    RMS norm; a step is accepted when the scaled error is at most 1.  The
    next step is safety * err^(-1/5) times the current one, clamped to
    [ds_min, ds_max] with growth at most 5x.  A required step below ds_min
    raises StallError.  After the problem's ``max_steps`` attempted steps
    the integration returns with termination "max_steps" short of the
    interval's end.  Any MotcError propagates with ``counts`` set.

    A rejected attempt keeps k[0] = rhs(s, eps): the next attempt starts
    from the same (s, eps), so it evaluates only the five later stages.
    The right-hand side is thus evaluated 5 times per attempt plus once per
    state an attempt starts from (the initial one and each accepted one
    that another attempt follows); rejections do not change the step
    sequence.
    """
    s0, s1 = problem.s_span
    y = problem.initial.samples.copy()
    h = min(problem.ds_max, 0.01, s1 - s0)
    h = max(h, problem.ds_min)
    s, acc, rej, n_eval, termination = s0, 0, 0, 0, "completed"
    k = [None] * 6
    try:
        while s < s1 - 1e-14:
            h = min(h, s1 - s)
            if k[0] is None:
                k[0] = problem.rhs(s, ControlField(y))
                n_eval += 1
            for i in range(1, 6):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_CK_A[i]))
                k[i] = problem.rhs(s + _CK_C[i] * h, ControlField(yi))
                n_eval += 1
            y5 = y + h * sum(b * ki for b, ki in zip(_CK_B5, k))
            y4 = y + h * sum(b * ki for b, ki in zip(_CK_B4, k))
            scale = problem.atol + problem.rtol * np.abs(y)
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if err <= 1.0:
                s = s + h
                y = y5
                k[0] = None
                acc += 1
                if observer is not None and observer(s, ControlField(y)):
                    termination = "observer"
                    break
                factor = _GROWTH_CAP if err == 0.0 else min(_GROWTH_CAP, _SAFETY * err ** (-0.2))
            else:
                rej += 1
                factor = max(_SHRINK_CAP, _SAFETY * err ** (-0.2))
            h_new = h * factor
            if h_new < problem.ds_min:
                if err > 1.0:
                    raise StallError(
                        f"step below ds_min = {problem.ds_min:.1e} at s = {s:.6f} "
                        f"(scaled error {err:.3e})",
                        s=s,
                        error_estimate=err,
                    )
                h_new = problem.ds_min
            h = min(h_new, problem.ds_max)
            if acc + rej >= problem.max_steps and s < s1 - 1e-14:
                termination = "max_steps"
                break
    except MotcError as exc:
        exc.counts = (acc, rej, n_eval)
        raise
    return IntegrationReport(
        accepted_steps=acc,
        rejected_steps=rej,
        rhs_evaluations=n_eval,
        final_field=ControlField(y),
        termination=termination,
    )

