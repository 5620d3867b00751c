"""Experiment harness: Gramian surveys, tracking runs, efficiency comparison.

Every run is driven by an ExperimentConfig whose single seed feeds named
SeedSequence substreams (observables, initial field, per-sample fields), so
results are reproducible and independent of sample execution order.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from ..dynamics import (
    ControlField, PropagationResult, QuantumSystem, StateSpec, expectations, propagate, spread,
)
from ..errors import BranchBoundaryError, ConfigError, MotcError, StallError
from ..integrate import FlowProblem, IntegrationReport, euler_integrate, rkck_adaptive
from ..landscape import (
    ObservableSet, gradient_field, kinematic_maximizer, single_observable_gradients,
)
from ..tracking import (
    Track,
    free_function_min_fluence,
    geodesic_target_observables,
    geodesic_target_unitary,
    gramian_motc,
    gramian_unitary,
    linear_target_observables,
    motc_rhs,
)
from .models import (
    build_model_system,
    build_observable_set,
    build_rank_truncated_state,
    sample_random_field,
)

DEFAULT_SEED = 2008

# Substream labels (SeedSequence spawn keys) for the single config seed.
_STREAM_OBSERVABLES = 0
_STREAM_FIELD0 = 1
_STREAM_SAMPLES = 2
_STREAM_PERTURB = 3

_NUMBER = r"([0-9.eE+-]+)"

# A field mode counts as high-frequency above this angular frequency when
# its power is within this many dB of the spectrum's peak.
HIGH_MODE_OMEGA_MIN = 1.0
HIGH_MODE_DB_FLOOR = -40.0


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator of the config seed for a named purpose."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _spec_numbers(what: str, spec: str, pattern: str) -> tuple[float, ...]:
    """The numbers ``pattern`` captures from a config spec (groups of an
    alternative that did not match are skipped); ConfigError unless there
    are some and all are finite and positive."""
    m = re.fullmatch(pattern, spec)
    try:
        values = tuple(float(g) for g in m.groups() if g is not None) if m else ()
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(f"unknown {what} spec {spec!r}")
    if not all(0 < v < math.inf for v in values):
        raise ConfigError(f"{what} spec {spec!r} needs finite positive numbers")
    return values


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# The check a scalar config field's annotation asks of its value.
_FIELD_CHECKS = {
    "int": (_is_integer, "an integer"),
    "float": (_is_finite, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one benchmark run."""

    experiment: str = "motc-track"
    n_levels: int = 11
    t_final: float = 100.0
    q: int = 1024
    state: str = "rank7"  # pure | thermal | rank<k>
    temperature: float = 1.0
    observables: tuple[int, ...] = (2, 4, 10)
    samples: int = 1000
    seed: int = DEFAULT_SEED
    correction: str = "beta=10"  # off | beta=<x>
    free_fn: str = "zero"  # zero | fluence:eta=<x>
    integrator: str = "rkck:atol=1e-6,rtol=1e-6"  # or euler:ds=<x>
    ds_min: float = 1e-6
    ds_max: float = 0.1
    track: str = "geodesic"  # geodesic | linear
    threshold_fraction: float = 0.95
    grad_s_max: float = 2000.0
    max_steps: int = 20000
    # Samples run on threads, not worker processes, so 1 is the only value;
    # the key stays so that configs which set it still load.
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            check, kind = _FIELD_CHECKS.get(f.type, (None, None))
            if check and not check(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be {kind}")
        if self.n_levels < 3:
            raise ConfigError("n_levels must be at least 3")
        if self.q < 2 or self.t_final <= 0:
            raise ConfigError("need q >= 2 and t_final > 0")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.ds_min <= self.ds_max:
            raise ConfigError("need 0 < ds_min <= ds_max")
        for name in ("temperature", "grad_s_max", "max_steps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        # Typed values of the string specs, parsed once; kept outside the
        # dataclass fields so to_dict() and config_hash see only the specs.
        # The pure state is the thermal one truncated to rank 1, the
        # thermal state its truncation to rank N.
        rank = {"pure": 1, "thermal": self.n_levels}.get(self.state)
        if rank is None:
            rank = int(_spec_numbers("state", self.state, r"rank(\d+)")[0])
            if rank > self.n_levels:
                raise ConfigError(
                    f"state {self.state!r} needs n_levels >= {rank}, got {self.n_levels}"
                )
        beta = None
        if self.correction != "off":
            (beta,) = _spec_numbers("correction", self.correction, "beta=" + _NUMBER)
        eta = None
        if self.free_fn != "zero":
            (eta,) = _spec_numbers("free_fn", self.free_fn, "fluence:eta=" + _NUMBER)
        # (ds,) for Euler, (atol, rtol) for Cash-Karp.
        integrator = _spec_numbers(
            "integrator", self.integrator, f"euler:ds={_NUMBER}|rkck:atol={_NUMBER},rtol={_NUMBER}"
        )
        if len(integrator) == 1 and not math.isfinite(max(1.0, self.grad_s_max) / integrator[0]):
            raise ConfigError(f"integrator {self.integrator!r}: ds too small for a leg's s span")
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_beta", beta)
        object.__setattr__(self, "_eta", eta)
        object.__setattr__(self, "_integrator", integrator)
        obs = tuple(self.observables) if np.iterable(self.observables) else ()
        if not obs or not all(_is_integer(m) and 1 <= m <= self.n_levels for m in obs):
            raise ConfigError(f"observables must be integers in 1..{self.n_levels}")
        if len(set(obs)) < len(obs):
            raise ConfigError(f"observables must not repeat a count: {list(obs)}")
        object.__setattr__(self, "observables", tuple(map(int, obs)))
        if self.track not in ("geodesic", "linear"):
            raise ConfigError(f"unknown track spec {self.track!r}")
        if not 0 < self.threshold_fraction <= 1:
            raise ConfigError("threshold_fraction must be in (0, 1]")
        if self.workers != 1:
            raise ConfigError("workers must be 1: samples run on threads, not processes")

    # -- constructed objects --

    def build_system(self) -> QuantumSystem:
        return build_model_system(self.n_levels, self.t_final, self.q)

    def build_state(self, system: QuantumSystem) -> StateSpec:
        return build_rank_truncated_state(system, self._rank, self.temperature)

    def build_observables(self) -> ObservableSet:
        return build_observable_set(
            self.n_levels, max(self.observables), substream(self.seed, _STREAM_OBSERVABLES)
        )

    def correction_beta(self) -> float | None:
        """The error-correction gain beta, or None when correction is off."""
        return self._beta

    def free_function(self, samples: np.ndarray) -> np.ndarray | None:
        if self._eta is None:
            return None
        return free_function_min_fluence(samples, self._eta)

    def integrate(self, problem: FlowProblem, observer=None) -> IntegrationReport:
        if len(self._integrator) == 1:
            return euler_integrate(problem, self._integrator[0], observer=observer)
        atol, rtol = self._integrator
        return rkck_adaptive(replace(problem, atol=atol, rtol=rtol), observer=observer)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["observables"] = list(self.observables)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


# The columns of a trajectory log after step, s and phi_1..phi_m, in CSV order.
LOG_COLUMNS = (
    "tracking_error", "tracking_error_inf", "u_pathlength", "field_pathlength",
    "track_distance", "gramian_condition",
)


@dataclass
class TrajectoryLog:
    """Per-step record of one tracking or gradient-flow trajectory: one
    column (name -> list) per CSV column, step, s, phi_1..phi_m and then
    LOG_COLUMNS, plus the integrator's counters and termination."""

    label: str
    m: int
    columns: dict[str, list] = field(init=False, repr=False)
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_evaluations: int = 0
    termination: str | None = None  # completed | observer | max_steps | stall | error
    error: str | None = None

    def __post_init__(self):
        names = ["step", "s", *(f"phi_{k + 1}" for k in range(self.m)), *LOG_COLUMNS]
        self.columns = {name: [] for name in names}

    def add(self, s: float, phi: np.ndarray, **cells: float) -> None:
        """Append a record: s, the m expectation values and one value for
        each LOG_COLUMNS name."""
        phi = np.atleast_1d(phi)
        if phi.shape != (self.m,) or set(cells) != set(LOG_COLUMNS):
            raise ValueError(f"a record needs {self.m} expectation values and {LOG_COLUMNS}")
        row = [len(self.columns["step"]), *map(float, [s, *phi, *map(cells.get, LOG_COLUMNS)])]
        for column, value in zip(self.columns.values(), row):
            column.append(value)

    def rows(self):
        return zip(*self.columns.values())

    def summary(self) -> dict:
        col = self.columns
        out = {
            "label": self.label,
            "m": self.m,
            "records": len(col["step"]),
            "accepted_steps": self.accepted_steps,
            "rejected_steps": self.rejected_steps,
            "rhs_evaluations": self.rhs_evaluations,
            "termination": self.termination,
        }
        if col["step"]:
            out.update(
                final_s=col["s"][-1],
                final_phi=[col[f"phi_{k + 1}"][-1] for k in range(self.m)],
                u_pathlength=col["u_pathlength"][-1],
                field_pathlength=col["field_pathlength"][-1],
            )
            err = np.asarray(col["tracking_error"])
            if np.isfinite(err).any():
                out["mean_tracking_error"] = float(np.nanmean(err))
                out["max_tracking_error_inf"] = float(np.nanmax(col["tracking_error_inf"]))
        if self.error:
            out["error"] = self.error
        return out


def field_power_spectrum(system: QuantumSystem, samples: np.ndarray):
    """One-sided power spectrum of the field over angular frequency."""
    power = np.abs(np.fft.rfft(samples)) ** 2
    omega = 2.0 * np.pi * np.fft.rfftfreq(samples.size, d=system.dt)
    return omega, power


def count_high_frequency_modes(omega: np.ndarray, power: np.ndarray) -> int:
    """Modes above HIGH_MODE_OMEGA_MIN whose power is within
    HIGH_MODE_DB_FLOOR of the peak."""
    if power.max() <= 0:
        return 0
    threshold = power.max() * 10.0 ** (HIGH_MODE_DB_FLOOR / 10.0)
    return int(((omega > HIGH_MODE_OMEGA_MIN) & (power >= threshold)).sum())


class _Recorder:
    """Observer logging accepted integrator steps into a TrajectoryLog.

    It takes each accepted field's propagation from the `_Run`'s memo, and
    the tracking error and Gramian condition from the track, whose memo
    keeps that propagation's rows and Gramian for the next step's first
    stage: a record adds no gradient, Gramian or SVD of its own.  ``phi``
    gives the expectations logged (default: the track's).
    """

    def __init__(
        self, run: _Run, track: Track, log: TrajectoryLog,
        phi=None, stop_phi1_at: float | None = None,
    ):
        self.run, self.track, self.log = run, track, log
        self.phi = track.phi if phi is None else phi
        self.stop_phi1_at = stop_phi1_at
        self._prev_u = self._prev_field = None
        self._u_length = self._field_length = 0.0

    def __call__(self, s: float, control: ControlField) -> bool:
        prop = self.run.propagation(control)
        phi = self.phi(prop)
        err, err_inf, dist = self.track.error(prop, s)
        if self._prev_u is not None:
            self._u_length += float(np.linalg.norm(prop.final - self._prev_u))
            self._field_length += float(np.linalg.norm(control.samples - self._prev_field))
        self._prev_u, self._prev_field = prop.final.copy(), control.samples.copy()
        self.log.add(
            s, phi, tracking_error=err, tracking_error_inf=err_inf,
            u_pathlength=self._u_length, field_pathlength=self._field_length,
            track_distance=dist, gramian_condition=self.track.gramian(prop)[1].condition,
        )
        return bool(self.stop_phi1_at is not None and phi[0] >= self.stop_phi1_at)


class _Run:
    """One tracking or flow run: the model system, initial state, full
    observable set and initial field eps_0, built once from the config;
    the run's geodesic, built on first use; and `leg`, which drives each
    integration.

    Every propagation of the run goes through `propagation`, a one-entry
    memo: eps_0 is asked for by `geodesic`, the first record and the first
    stage, each accepted field by the recorder and the next first stage.
    Keyed on an exact copy of the samples, a hit returns the object
    ``propagate`` gave, on which the track keys its rows and Gramian
    (`Track.gramian`).  ``propagate`` is looked up in this module at call
    time, so a wrapper bound there sees every propagation.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.system = config.build_system()
        self.state = config.build_state(self.system)
        self.eps0 = sample_random_field(self.system, substream(config.seed, _STREAM_FIELD0))
        self.oset_full = config.build_observables()
        self._samples: np.ndarray | None = None
        self._prop: PropagationResult | None = None

    def propagation(self, control: ControlField) -> PropagationResult:
        if self._samples is None or not np.array_equal(control.samples, self._samples):
            self._prop = propagate(self.system, control)
            self._samples = control.samples.copy()
        return self._prop

    @functools.cached_property
    def geodesic(self):
        """The propagation of eps_0, the maximizer W of <Theta_1> nearest U_0
        (`kinematic_maximizer`, in closed form) nudged off the log branch
        cut if the geodesic generator lands on it, and the run's one
        geodesic track from U_0 to W; plus ``target_info``, the summary
        entry ``kinematic_max_phi1``: Phi_1 at W before any nudge."""
        prop0 = self.propagation(self.eps0)
        u0, state = prop0.final, self.state
        w = kinematic_maximizer(u0, state, self.oset_full.operators[0])
        info = {"kinematic_max_phi1": float(expectations(w, state, self.oset_full.subset(1))[0])}
        rng = substream(self.config.seed, _STREAM_PERTURB)
        for _ in range(5):
            try:
                return prop0, w, geodesic_target_unitary(u0, w), info
            except BranchBoundaryError:
                herm = rng.standard_normal((state.dim, state.dim))
                herm = 1e-4 * (herm + herm.T) / 2.0
                wl, vl = np.linalg.eigh(herm)
                w = w @ ((vl * np.exp(-1j * wl)) @ vl.conj().T)
        raise BranchBoundaryError("could not move the geodesic generator off the branch cut")

    def leg(
        self, track: Track, log: TrajectoryLog, rhs=None, phi=None,
        stop_phi1_at: float | None = None, s_end: float = 1.0,
    ) -> np.ndarray | None:
        """One leg of the run: integrate d eps/d s = rhs from eps_0 over
        [0, s_end] with the configured integrator, logging eps_0 and every
        accepted step into ``log`` (`_Recorder`), then its counters and
        termination, a MotcError included.  The default rhs is `motc_rhs`
        along ``track`` with the configured free function and correction.
        Returns the final field samples, or None after an error."""
        config = self.config
        recorder = _Recorder(self, track, log, phi=phi, stop_phi1_at=stop_phi1_at)
        if rhs is None:
            beta = config.correction_beta()

            def rhs(s: float, control: ControlField) -> np.ndarray:
                free = config.free_function(control.samples)
                return motc_rhs(track, self.propagation(control), s, free=free, beta=beta)

        recorder(0.0, self.eps0)
        problem = FlowProblem(
            rhs=rhs, s_span=(0.0, s_end), initial=self.eps0, ds_min=config.ds_min,
            ds_max=config.ds_max, max_steps=config.max_steps,
        )
        try:
            report = config.integrate(problem, observer=recorder)
        except MotcError as exc:
            log.accepted_steps, log.rejected_steps, log.rhs_evaluations = exc.counts
            log.termination = "stall" if isinstance(exc, StallError) else "error"
            log.error = f"{type(exc).__name__}: {exc}"
            return None
        log.accepted_steps, log.rejected_steps, log.rhs_evaluations = report.counts
        log.termination = report.termination
        return report.final_field.samples


def run_gramian_distribution(config: ExperimentConfig) -> dict:
    """Condition numbers of G and of Gamma (thermal and pure states) over an
    ensemble of random fields; histogram plus log10 summary statistics, and
    per Gramian the count of numerically singular samples.

    Gamma is taken for one observable count only, the largest of
    ``config.observables``: the default (2, 4, 10) reports the m = 10 Gamma.
    The smaller counts are not surveyed.

    The samples run through ``dynamics.spread``: on this thread and
    ``propagate``'s helper threads, up to one thread per usable core, when a
    sample's propagation has at least ``dynamics.MIN_THREAD_WORK`` of work,
    else one after another in this thread.  Each sample draws from its own
    seed, so the table is the same either way."""
    rows, failures = [], 0
    system = config.build_system()
    shared = (
        system, config.build_observables(),
        build_rank_truncated_state(system, system.dim, config.temperature),
        build_rank_truncated_state(system, 1, config.temperature),
    )
    sample = functools.partial(_gramian_sample, shared, config.seed)
    for rec in spread(sample, config.samples, system):
        if rec is None:
            failures += 1
        else:
            rows.append(rec)
    table = np.array(rows) if rows else np.empty((0, 4))
    summary = {"samples": config.samples, "failures": failures}
    names = ["cond_g", "cond_gamma_thermal", "cond_gamma_pure"]
    # G is N^2 x N^2 and each Gamma m x m.  A condition at or above
    # 1/(size * eps), numpy's matrix_rank tolerance, marks a numerically
    # singular Gramian, whose condition number is roundoff.
    m = max(config.observables)
    sizes = [config.n_levels**2, m, m]
    histograms = {}
    for i, name in enumerate(names):
        vals = table[:, i + 1]
        finite = vals[np.isfinite(vals)]
        logs = np.log10(finite[finite > 0])
        summary[name] = {
            "median": float(np.median(finite)) if finite.size else float("nan"),
            "log10_median": float(np.median(logs)) if logs.size else float("nan"),
            "log10_mean": float(np.mean(logs)) if logs.size else float("nan"),
            "infinite": int(np.sum(~np.isfinite(vals))),
            "numerically_singular": int(np.sum(vals >= 1.0 / (sizes[i] * np.finfo(float).eps))),
        }
        if logs.size:
            lo, hi = math.floor(logs.min()), math.ceil(logs.max())
            counts, edges = np.histogram(logs, bins=max(hi - lo, 1), range=(lo, hi))
            histograms[name] = {"log10_edges": edges.tolist(), "counts": counts.tolist()}
    return {
        "name": "gramian-dist",
        "table": ("sample," + ",".join(names), table),
        "summary": summary,
        "histograms": histograms,
    }


def _gramian_sample(shared: tuple, seed: int, k: int):
    """One field sample of the Gramian survey on the survey's ``shared``
    system, observable set and states."""
    system, oset, thermal, pure = shared
    try:
        control = sample_random_field(system, substream(seed, _STREAM_SAMPLES, k))
        prop = propagate(system, control)
        cond_g = gramian_unitary(prop).condition
        cond_th = gramian_motc(single_observable_gradients(prop, thermal, oset), prop.weights).condition
        cond_pu = gramian_motc(single_observable_gradients(prop, pure, oset), prop.weights).condition
        return [float(k), cond_g, cond_th, cond_pu]
    except MotcError:
        return None


def run_motc_experiment(config: ExperimentConfig) -> dict:
    """Track the geodesic-induced multiobservable path for each configured m.

    Pipeline: sample eps_0, propagate to U_0, take the maximizer W of
    <Theta_1> nearest U_0, build the observable track per m, then integrate
    the tracking equation, logging every accepted step.  High-frequency
    modes are counted only in the field of a completed leg.
    """
    run = _Run(config)
    prop0, w, geodesic, target_info = run.geodesic
    state = run.state
    logs: dict[int, TrajectoryLog] = {}
    spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for m in config.observables:
        oset = run.oset_full.subset(m)
        if config.track == "geodesic":
            track = geodesic_target_observables(geodesic, state, oset)
        else:
            phi0 = expectations(prop0, state, oset)
            track = linear_target_observables(phi0, expectations(w, state, oset), state, oset)
        logs[m] = TrajectoryLog(label=f"motc_m{m}", m=m)
        final = run.leg(track, logs[m])
        if final is not None:
            spectra[m] = field_power_spectrum(run.system, final)
    summary = {
        **target_info,
        "phi1_at_u0": float(expectations(prop0, state, run.oset_full.subset(1))[0]),
        "high_mode_counts": {
            str(m): count_high_frequency_modes(*spectra[m])
            for m in spectra if logs[m].termination == "completed"
        },
        "per_m": {str(m): logs[m].summary() for m in logs},
    }
    return {"name": "motc-track", "logs": logs, "spectra": spectra, "summary": summary}


def run_unitary_experiment(config: ExperimentConfig) -> dict:
    """Track the geodesic Q_s in U(N) itself with the N^2-dimensional solve."""
    run = _Run(config)
    _, _, track, target_info = run.geodesic
    log = TrajectoryLog(label="unitary_track", m=max(config.observables))
    oset = run.oset_full.subset(log.m)
    run.leg(track, log, phi=lambda prop: expectations(prop, run.state, oset))
    summary = {
        **target_info,
        "final_track_distance": (log.columns["track_distance"] or [float("nan")])[-1],
        "log": log.summary(),
    }
    return {"name": "unitary-track", "logs": {"unitary": log}, "summary": summary}


def _gradient_leg(run: _Run, threshold: float | None) -> TrajectoryLog:
    """Integrate the dynamical gradient flow of <Theta_1> from eps_0 with the
    configured integrator, stopping once Phi_1 reaches ``threshold`` (if
    given); returns the flow's log."""
    state, oset1 = run.state, run.oset_full.subset(1)
    log = TrajectoryLog(label="grad_flow", m=1)
    # The flow follows no path: along a NaN one the logged tracking errors
    # are NaN, while the track still gives Phi_1 and Gamma's condition.
    nan = np.full(1, np.nan)
    run.leg(
        linear_target_observables(nan, nan, state, oset1), log,
        rhs=lambda s, control: gradient_field(run.propagation(control), state, oset1),
        stop_phi1_at=threshold, s_end=run.config.grad_s_max,
    )
    return log


def run_gradient_flow(config: ExperimentConfig) -> dict:
    """Integrate the dynamical gradient flow of <Theta_1> with the configured
    integrator over [0, grad_s_max]."""
    log = _gradient_leg(_Run(config), threshold=None)
    return {"name": "grad-flow", "logs": {"gradient": log}, "summary": {"log": log.summary()}}


def run_efficiency_comparison(config: ExperimentConfig) -> dict:
    """Accepted steps of the configured integrator to reach
    Phi_1 >= threshold: MOTC (largest m) versus the gradient flow, under
    identical tolerances."""
    run = _Run(config)
    _, _, geodesic, target_info = run.geodesic
    threshold = config.threshold_fraction * target_info["kinematic_max_phi1"]

    # MOTC leg
    m_big = max(config.observables)
    track = geodesic_target_observables(geodesic, run.state, run.oset_full.subset(m_big))
    motc_log = TrajectoryLog(label=f"efficiency_motc_m{m_big}", m=m_big)
    run.leg(track, motc_log, stop_phi1_at=threshold)

    # gradient-flow leg
    grad_log = _gradient_leg(run, threshold)

    def steps_to_threshold(log: TrajectoryLog) -> int | None:
        col = log.columns
        return next((k for k, phi1 in zip(col["step"], col["phi_1"]) if phi1 >= threshold), None)

    motc_steps = steps_to_threshold(motc_log)
    grad_steps = steps_to_threshold(grad_log)
    header = "method,accepted_steps_to_threshold,censored,total_accepted,rejected,rhs_evaluations"
    rows = [
        [method, -1 if steps is None else steps, int(steps is None),
         log.accepted_steps, log.rejected_steps, log.rhs_evaluations]
        for method, log, steps in (("motc", motc_log, motc_steps), ("gradient", grad_log, grad_steps))
    ]
    return {
        "name": "efficiency",
        "logs": {f"motc_m{m_big}": motc_log, "gradient": grad_log},
        "table": (header, rows),
        "summary": {
            **target_info,
            "threshold": threshold,
            "motc_steps_to_threshold": motc_steps,
            "gradient_steps_to_threshold": grad_steps,
            "motc": motc_log.summary(),
            "gradient": grad_log.summary(),
        },
    }
