"""Experiment harness: Gramian surveys, tracking runs, efficiency comparison.

Every run is driven by an ExperimentConfig whose single seed feeds named
SeedSequence substreams (observables, initial field, per-sample fields), so
results are reproducible and independent of sample execution order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from ..dynamics import (
    ControlField,
    PropagationResult,
    QuantumSystem,
    StateSpec,
    expectations,
    propagate,
)
from ..errors import BranchBoundaryError, ConfigError, MotcError, StallError
from ..integrate import FlowProblem, IntegrationReport, euler_integrate, rkck_adaptive
from ..landscape import ObservableSet, gradient_field, kinematic_flow, single_observable_gradients
from ..tracking import (
    CorrectionSpec,
    TrackTarget,
    free_function_min_fluence,
    geodesic_target_observables,
    geodesic_target_unitary,
    gramian_motc,
    gramian_unitary,
    linear_target_observables,
    motc_rhs,
    unitary_rhs,
)
from .models import (
    build_model_system,
    build_observable_set,
    build_pure_ground_state,
    build_rank_truncated_state,
    build_thermal_state,
    sample_random_field,
)

DEFAULT_SEED = 2008

# Substream labels (SeedSequence spawn keys) for the single config seed.
_STREAM_OBSERVABLES = 0
_STREAM_FIELD0 = 1
_STREAM_SAMPLES = 2
_STREAM_PERTURB = 3

_NUMBER = r"([0-9.eE+-]+)"


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator of the config seed for a named purpose."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _spec_numbers(what: str, spec: str, pattern: str) -> tuple[float, ...]:
    """The numbers ``pattern`` captures from a config spec (groups of an
    alternative that did not match are skipped); ConfigError unless there
    are some and all are positive."""
    m = re.fullmatch(pattern, spec)
    try:
        values = tuple(float(g) for g in m.groups() if g is not None) if m else ()
    except ValueError:
        values = ()
    if not values or not all(v > 0 for v in values):
        raise ConfigError(f"unknown {what} spec {spec!r}")
    return values


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
    kinematic_s_max: float = 2000.0
    workers: int = 1

    def __post_init__(self):
        if self.n_levels < 3:
            raise ConfigError("n_levels must be at least 3")
        if self.q < 2 or self.t_final <= 0:
            raise ConfigError("need q >= 2 and t_final > 0")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.seed is None:
            raise ConfigError("a seed is mandatory for reproducibility")
        obs = tuple(int(m) for m in self.observables)
        if not obs or any(not 1 <= m <= self.n_levels for m in obs):
            raise ConfigError(f"observable counts must lie in 1..{self.n_levels}")
        object.__setattr__(self, "observables", obs)
        # Typed values of the string specs, parsed once; kept outside the
        # dataclass fields so to_dict() and config_hash see only the specs.
        rank = None
        if self.state not in ("pure", "thermal"):
            rank = int(_spec_numbers("state", self.state, r"rank(\d+)")[0])
            if rank > self.n_levels:
                raise ConfigError(f"unknown state spec {self.state!r}")
        correction = CorrectionSpec(enabled=False)
        if self.correction != "off":
            (beta,) = _spec_numbers("correction", self.correction, "beta=" + _NUMBER)
            correction = CorrectionSpec(enabled=True, beta=beta)
        eta = None
        if self.free_fn != "zero":
            (eta,) = _spec_numbers("free-function", self.free_fn, "fluence:eta=" + _NUMBER)
        # (ds,) for Euler, (atol, rtol) for Cash-Karp.
        integrator = _spec_numbers(
            "integrator", self.integrator, f"euler:ds={_NUMBER}|rkck:atol={_NUMBER},rtol={_NUMBER}"
        )
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_correction", correction)
        object.__setattr__(self, "_eta", eta)
        object.__setattr__(self, "_integrator", integrator)
        if self.track not in ("geodesic", "linear"):
            raise ConfigError(f"unknown track kind {self.track!r}")
        if not 0 < self.threshold_fraction <= 1:
            raise ConfigError("threshold_fraction must be in (0, 1]")
        if self.workers < 1:
            raise ConfigError("workers must be positive")

    # -- constructed objects --

    def build_system(self) -> QuantumSystem:
        return build_model_system(self.n_levels, self.t_final, self.q)

    def build_state(self, system: QuantumSystem) -> StateSpec:
        if self.state == "pure":
            return build_pure_ground_state(system)
        if self.state == "thermal":
            return build_thermal_state(system, self.temperature)
        return build_rank_truncated_state(system, self._rank, self.temperature)

    def build_observables(self, m: int | None = None) -> ObservableSet:
        m_max = max(self.observables) if m is None else m
        return build_observable_set(self.n_levels, m_max, substream(self.seed, _STREAM_OBSERVABLES))

    def correction_spec(self) -> CorrectionSpec:
        return self._correction

    def free_function(self, samples: np.ndarray) -> np.ndarray | None:
        if self._eta is None:
            return None
        return free_function_min_fluence(samples, self._eta, np.ones_like(samples))

    def integrate(self, problem: FlowProblem, observer=None) -> IntegrationReport:
        if len(self._integrator) == 1:
            return euler_integrate(problem, self._integrator[0], observer=observer)
        atol, rtol = self._integrator
        return rkck_adaptive(
            replace(problem, atol=atol, rtol=rtol), observer=observer, max_steps=self.max_steps
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["observables"] = list(self.observables)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "observables" in d:
            d = dict(d, observables=tuple(d["observables"]))
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class TrajectoryLog:
    """Per-step record of one tracking or gradient-flow trajectory."""

    label: str
    m: int
    step: list[int] = field(default_factory=list)
    s: list[float] = field(default_factory=list)
    phi: list[tuple[float, ...]] = field(default_factory=list)
    tracking_error: list[float] = field(default_factory=list)
    tracking_error_inf: list[float] = field(default_factory=list)
    u_pathlength: list[float] = field(default_factory=list)
    field_pathlength: list[float] = field(default_factory=list)
    track_distance: list[float] = field(default_factory=list)
    gramian_condition: list[float] = field(default_factory=list)
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_evaluations: int = 0
    termination: str | None = None  # completed | observer | max_steps | stall | error
    error: str | None = None

    def add(
        self,
        s: float,
        phi: np.ndarray,
        tracking_error: float,
        tracking_error_inf: float,
        u_increment: float,
        field_increment: float,
        track_distance: float,
        gramian_condition: float,
    ) -> None:
        prev_u = self.u_pathlength[-1] if self.u_pathlength else 0.0
        prev_f = self.field_pathlength[-1] if self.field_pathlength else 0.0
        if u_increment < 0 or field_increment < 0:
            raise ValueError("pathlength increments must be nonnegative")
        self.step.append(len(self.step))
        self.s.append(float(s))
        self.phi.append(tuple(float(x) for x in np.atleast_1d(phi)))
        self.tracking_error.append(float(tracking_error))
        self.tracking_error_inf.append(float(tracking_error_inf))
        self.u_pathlength.append(prev_u + float(u_increment))
        self.field_pathlength.append(prev_f + float(field_increment))
        self.track_distance.append(float(track_distance))
        self.gramian_condition.append(float(gramian_condition))

    @property
    def columns(self) -> list[str]:
        return (
            ["step", "s"]
            + [f"phi_{k + 1}" for k in range(self.m)]
            + [
                "tracking_error",
                "tracking_error_inf",
                "u_pathlength",
                "field_pathlength",
                "track_distance",
                "gramian_condition",
            ]
        )

    def rows(self):
        for i in range(len(self.step)):
            yield (
                [self.step[i], self.s[i]]
                + list(self.phi[i])
                + [
                    self.tracking_error[i],
                    self.tracking_error_inf[i],
                    self.u_pathlength[i],
                    self.field_pathlength[i],
                    self.track_distance[i],
                    self.gramian_condition[i],
                ]
            )

    def summary(self) -> dict:
        out = {
            "label": self.label,
            "m": self.m,
            "records": len(self.step),
            "accepted_steps": self.accepted_steps,
            "rejected_steps": self.rejected_steps,
            "rhs_evaluations": self.rhs_evaluations,
            "termination": self.termination,
        }
        if self.step:
            out.update(
                final_s=self.s[-1],
                final_phi=list(self.phi[-1]),
                u_pathlength=self.u_pathlength[-1],
                field_pathlength=self.field_pathlength[-1],
            )
            err = np.asarray(self.tracking_error)
            if np.isfinite(err).any():
                out["mean_tracking_error"] = float(np.nanmean(err))
                out["max_tracking_error_inf"] = float(np.nanmax(self.tracking_error_inf))
        if self.error:
            out["error"] = self.error
        return out


def field_power_spectrum(system: QuantumSystem, samples: np.ndarray):
    """One-sided power spectrum of the field over angular frequency."""
    power = np.abs(np.fft.rfft(samples)) ** 2
    omega = 2.0 * np.pi * np.fft.rfftfreq(samples.size, d=system.dt)
    return omega, power


def count_high_frequency_modes(
    omega: np.ndarray, power: np.ndarray, omega_min: float = 1.0, db_floor: float = -40.0
) -> int:
    """Modes above ``omega_min`` whose power is within ``db_floor`` of the peak."""
    if power.max() <= 0:
        return 0
    threshold = power.max() * 10.0 ** (db_floor / 10.0)
    return int(((omega > omega_min) & (power >= threshold)).sum())


class _RunPropagator:
    """A run's system with a one-entry memo of its last propagation.

    Called on a field, it returns that field's propagation, computing it
    only when the field differs from the last one it was called on.  Within
    a run the same field is asked for in turn: eps_0 by the flow target, the
    first record and the first stage; each accepted field by the recorder
    and then by the next step's first stage.  The memo is keyed on an exact
    copy of the field samples, so a hit returns what ``propagate`` would.
    ``propagate`` is looked up in this module at call time, so a wrapper
    bound there sees every propagation.
    """

    def __init__(self, system: QuantumSystem):
        self.system = system
        self._samples: np.ndarray | None = None
        self._prop: PropagationResult | None = None

    def __call__(self, control: ControlField) -> PropagationResult:
        if self._samples is None or not np.array_equal(control.samples, self._samples):
            self._prop = propagate(self.system, control)
            self._samples = control.samples.copy()
        return self._prop


class _Recorder:
    """Observer logging accepted integrator steps into a TrajectoryLog.

    It takes each accepted field's propagation from the run's
    `_RunPropagator`, which keeps it for the next step's first stage.
    """

    def __init__(
        self,
        propagator: _RunPropagator,
        state: StateSpec,
        oset: ObservableSet,
        target: TrackTarget | None,
        log: TrajectoryLog,
        stop_phi1_at: float | None = None,
    ):
        self.propagator, self.state, self.oset = propagator, state, oset
        self.target, self.log = target, log
        self.stop_phi1_at = stop_phi1_at
        self._prev_u = None
        self._prev_field = None

    def __call__(self, s: float, control: ControlField) -> bool:
        prop = self.propagator(control)
        phi = expectations(prop, self.state, self.oset)
        err = err_inf = dist = float("nan")
        kind = None if self.target is None else self.target.kind
        if kind == "unitary":
            dist = float(np.linalg.norm(prop.final - self.target.q_of_s(s)))
            err = err_inf = dist
            cond = gramian_unitary(prop).condition
        else:
            if kind == "observable":
                dev = phi - self.target.w_of_s(s)
                err, err_inf = float(np.linalg.norm(dev)), float(np.abs(dev).max())
            a = single_observable_gradients(prop, self.state, self.oset)
            cond = gramian_motc(a, prop.weights).condition
        du = 0.0 if self._prev_u is None else float(np.linalg.norm(prop.final - self._prev_u))
        dfield = (
            0.0
            if self._prev_field is None
            else float(np.linalg.norm(control.samples - self._prev_field))
        )
        self._prev_u = prop.final.copy()
        self._prev_field = control.samples.copy()
        self.log.add(s, phi, err, err_inf, du, dfield, dist, cond)
        return bool(self.stop_phi1_at is not None and phi[0] >= self.stop_phi1_at)


def _setup(config: ExperimentConfig):
    """The model system, initial state, full observable set and initial
    field eps_0 that every tracking or flow run starts from.  The system
    comes wrapped in the run's own `_RunPropagator`, through which every
    propagation of the run goes, so a field asked for twice in a row is
    propagated once."""
    system = config.build_system()
    state = config.build_state(system)
    eps0 = sample_random_field(system, substream(config.seed, _STREAM_FIELD0))
    return _RunPropagator(system), state, config.build_observables(), eps0


def _compute_flow_target(
    config: ExperimentConfig, propagator: _RunPropagator, state: StateSpec,
    oset_full: ObservableSet, eps0: ControlField,
):
    """Propagation of eps_0 and the kinematic-flow maximizer W of <Theta_1>
    from U_0, nudged off the log branch cut if the geodesic generator lands
    on it; plus the flow's summary entries."""
    prop0 = propagator(eps0)
    u0 = prop0.final
    flow = kinematic_flow(
        u0, state, oset_full.subset(1), s_max=config.kinematic_s_max, ds=0.05,
        grad_tol=1e-5, record_every=1000, ds_cap=1.0,
    )
    info = {
        "kinematic_max_phi1": float(flow.phi[-1]),
        "kinematic_converged": flow.converged,
        "kinematic_gradient_norm": flow.gradient_norm,
    }
    w = flow.final
    rng = substream(config.seed, _STREAM_PERTURB)
    for _ in range(5):
        try:
            geodesic_target_unitary(u0, w)
            return prop0, w, info
        except BranchBoundaryError:
            herm = rng.standard_normal((state.dim, state.dim))
            herm = 1e-4 * (herm + herm.T) / 2.0
            wl, vl = np.linalg.eigh(herm)
            w = w @ ((vl * np.exp(-1j * wl)) @ vl.conj().T)
    raise BranchBoundaryError("could not move the geodesic generator off the branch cut")


def _tracking_rhs(config: ExperimentConfig, propagator: _RunPropagator, track_rhs, *args):
    """d eps/d s of a tracking run: ``track_rhs(prop, *args, s, ...)`` on the
    propagation of the field, with the configured free function and error
    correction."""
    correction = config.correction_spec()

    def rhs(s: float, control: ControlField) -> np.ndarray:
        prop = propagator(control)
        free = config.free_function(control.samples)
        return track_rhs(prop, *args, s, free=free, correction=correction)

    return rhs


def _integrate_logged(
    config: ExperimentConfig, recorder: _Recorder, rhs, eps0: ControlField, s_end: float = 1.0
) -> np.ndarray | None:
    """Log eps_0, integrate d eps/d s = rhs over [0, s_end] with the
    configured integrator and copy its counters and termination reason into
    the recorder's log, where a MotcError is recorded instead of raised.
    Returns the final field samples, or None after an error."""
    log = recorder.log
    recorder(0.0, eps0)
    problem = FlowProblem(
        rhs=rhs, s_span=(0.0, s_end), initial=eps0, ds_min=config.ds_min, ds_max=config.ds_max,
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
    per Gramian the count of numerically singular samples."""
    rows, failures = [], 0
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(
                pool.map(
                    _gramian_sample,
                    [(config.to_dict(), k) for k in range(config.samples)],
                    chunksize=max(1, config.samples // (8 * config.workers)),
                )
            )
    else:
        results = [_gramian_sample((config.to_dict(), k)) for k in range(config.samples)]
    for rec in results:
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


def _gramian_sample(args: tuple[dict, int]):
    """One field sample of the Gramian survey (top level for process pools)."""
    config_dict, k = args
    config = ExperimentConfig.from_dict(config_dict)
    system = config.build_system()
    oset = config.build_observables(m=max(config.observables))
    thermal = build_thermal_state(system, config.temperature)
    pure = build_pure_ground_state(system)
    try:
        control = sample_random_field(system, substream(config.seed, _STREAM_SAMPLES, k))
        prop = propagate(system, control)
        cond_g = gramian_unitary(prop).condition
        cond_th = gramian_motc(single_observable_gradients(prop, thermal, oset), prop.weights).condition
        cond_pu = gramian_motc(single_observable_gradients(prop, pure, oset), prop.weights).condition
        return [float(k), cond_g, cond_th, cond_pu]
    except MotcError:
        return None


def run_motc_experiment(config: ExperimentConfig) -> dict:
    """Track the geodesic-induced multiobservable path for each configured m.

    Pipeline: sample eps_0, propagate to U_0, run the kinematic flow of
    <Theta_1> to the maximizer W, build the observable track per m, then
    integrate the tracking equation, logging every accepted step.
    """
    propagator, state, oset_full, eps0 = _setup(config)
    prop0, w, flow_info = _compute_flow_target(config, propagator, state, oset_full, eps0)
    logs: dict[int, TrajectoryLog] = {}
    spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for m in config.observables:
        oset = oset_full.subset(m)
        if config.track == "geodesic":
            target = geodesic_target_observables(prop0.final, w, state, oset)
        else:
            phi0 = expectations(prop0, state, oset)
            target = linear_target_observables(phi0, expectations(w, state, oset))
        logs[m] = TrajectoryLog(label=f"motc_m{m}", m=m)
        recorder = _Recorder(propagator, state, oset, target, logs[m])
        rhs = _tracking_rhs(config, propagator, motc_rhs, state, oset, target)
        final = _integrate_logged(config, recorder, rhs, eps0)
        if final is not None:
            spectra[m] = field_power_spectrum(propagator.system, final)
    summary = {
        **flow_info,
        "phi1_at_u0": float(expectations(prop0, state, oset_full.subset(1))[0]),
        "high_mode_counts": {
            str(m): count_high_frequency_modes(*spectra[m]) for m in spectra
        },
        "per_m": {str(m): logs[m].summary() for m in logs},
    }
    return {"name": "motc-track", "logs": logs, "spectra": spectra, "summary": summary}


def run_unitary_experiment(config: ExperimentConfig) -> dict:
    """Track the geodesic Q_s in U(N) itself with the N^2-dimensional solve."""
    propagator, state, oset_full, eps0 = _setup(config)
    prop0, w, flow_info = _compute_flow_target(config, propagator, state, oset_full, eps0)
    target = geodesic_target_unitary(prop0.final, w)
    log = TrajectoryLog(label="unitary_track", m=max(config.observables))
    recorder = _Recorder(propagator, state, oset_full.subset(log.m), target, log)
    _integrate_logged(config, recorder, _tracking_rhs(config, propagator, unitary_rhs, target), eps0)
    summary = {
        **flow_info,
        "final_track_distance": log.track_distance[-1] if log.track_distance else float("nan"),
        "log": log.summary(),
    }
    return {"name": "unitary-track", "logs": {"unitary": log}, "summary": summary}


def _gradient_leg(
    config: ExperimentConfig, propagator: _RunPropagator, state: StateSpec,
    oset_full: ObservableSet, eps0: ControlField, threshold: float | None,
) -> TrajectoryLog:
    """Integrate the dynamical gradient flow of <Theta_1> from eps_0 with the
    configured integrator, stopping once Phi_1 reaches ``threshold`` (if
    given); returns the flow's log."""
    oset1 = oset_full.subset(1)
    log = TrajectoryLog(label="grad_flow", m=1)

    def rhs(s: float, control: ControlField) -> np.ndarray:
        return gradient_field(propagator(control), state, oset1)

    recorder = _Recorder(propagator, state, oset1, None, log, stop_phi1_at=threshold)
    _integrate_logged(config, recorder, rhs, eps0, s_end=config.grad_s_max)
    return log


def run_gradient_flow(config: ExperimentConfig) -> dict:
    """Integrate the dynamical gradient flow of <Theta_1> with the configured
    integrator over [0, grad_s_max]."""
    log = _gradient_leg(config, *_setup(config), threshold=None)
    return {"name": "grad-flow", "logs": {"gradient": log}, "summary": {"log": log.summary()}}


def run_efficiency_comparison(config: ExperimentConfig) -> dict:
    """Accepted ASRK5 steps to reach Phi_1 >= threshold: MOTC (largest m)
    versus the gradient flow, identical tolerances."""
    propagator, state, oset_full, eps0 = _setup(config)
    prop0, w, flow_info = _compute_flow_target(config, propagator, state, oset_full, eps0)
    threshold = config.threshold_fraction * flow_info["kinematic_max_phi1"]

    # MOTC leg
    m_big = max(config.observables)
    oset = oset_full.subset(m_big)
    target = geodesic_target_observables(prop0.final, w, state, oset)
    motc_log = TrajectoryLog(label=f"efficiency_motc_m{m_big}", m=m_big)
    recorder = _Recorder(propagator, state, oset, target, motc_log, stop_phi1_at=threshold)
    rhs = _tracking_rhs(config, propagator, motc_rhs, state, oset, target)
    _integrate_logged(config, recorder, rhs, eps0)

    # gradient-flow leg
    grad_log = _gradient_leg(config, propagator, state, oset_full, eps0, threshold)

    def steps_to_threshold(log: TrajectoryLog) -> int | None:
        for i, phi in enumerate(log.phi):
            if phi[0] >= threshold:
                return log.step[i]
        return None

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
            **flow_info,
            "threshold": threshold,
            "motc_steps_to_threshold": motc_steps,
            "gradient_steps_to_threshold": grad_steps,
            "motc": motc_log.summary(),
            "gradient": grad_log.summary(),
        },
    }
