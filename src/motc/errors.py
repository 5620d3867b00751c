"""Exception types shared across the package."""


class MotcError(Exception):
    """Base class for all package errors.  An integrator that propagates one
    sets ``counts`` to its (accepted, rejected, rhs evaluations) so far."""

    counts: tuple[int, int, int] | None = None


class BranchBoundaryError(MotcError):
    """A unitary logarithm has an eigenphase too close to the +-pi branch cut."""


class SingularTrackError(MotcError):
    """A tracking Gramian solve leaves a residual above its cap: the rate
    has no usable component in the Gramian's range (see ``solve_gramian``)."""

    def __init__(self, msg: str, condition: float = float("inf")):
        super().__init__(msg)
        self.condition = condition


class ConsistencyError(MotcError):
    """An internal invariant failed (e.g. imaginary residue above tolerance)."""


class StallError(MotcError):
    """An integrator needed a step below its minimum step size."""

    def __init__(self, msg: str, s: float = float("nan"), error_estimate: float = float("nan")):
        super().__init__(msg)
        self.s = s
        self.error_estimate = error_estimate


class ConfigError(MotcError):
    """An experiment configuration failed validation."""
