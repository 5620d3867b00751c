"""Wrap the public layer functions of ``motc`` from outside the program.

The benchmark never edits ``motc``.  It finds each layer function by its
defining module and name, then replaces every ``motc.*`` module attribute
(and every value of a module-level dict, such as the CLI's runner table)
that *is* that function object.  Aliases such as ``motc_a_vector`` keep
calling the wrapped names they look up at call time, so the trace keeps
working when such aliases are deleted.  A layer function that no longer
exists under its name raises ``TraceError``: the benchmark then fails
instead of silently measuring less.

Two probes exist.  ``Probe`` records only what the untraced run needs:
when the runner starts, when ``emit_results`` ends, what the integrator
did, and a time mark at each of these and at every ``propagate`` call.  ``Tracer`` adds a span around every wrapped call, kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

import numpy as np

# span name -> (defining module, public name)
LAYER_FUNCTIONS = {
    "dynamics.propagate": ("motc.dynamics", "propagate"),
    "dynamics.expectations": ("motc.dynamics", "expectations"),
    "landscape.gradients": ("motc.landscape", "single_observable_gradients"),
    "landscape.kinematic_flow": ("motc.landscape", "kinematic_flow"),
    "tracking.gramian_motc": ("motc.tracking", "gramian_motc"),
    "tracking.gramian_unitary": ("motc.tracking", "gramian_unitary"),
    "tracking.solve": ("motc.tracking", "solve_gramian"),
    "tracking.rhs": ("motc.tracking", "motc_rhs"),
}
KERNEL_FUNCTIONS = {"kernel.eigh": "eigh", "kernel.svd": "svd"}
RUNNERS = (
    ("motc.bench.experiments", "run_motc_experiment"),
    ("motc.bench.experiments", "run_gramian_distribution"),
)
EMIT = ("motc.bench.io", "emit_results")
CONFIG_CLASS = ("motc.bench.experiments", "ExperimentConfig")
# Modules whose import brings in every motc module a CLI run touches.
ENTRY_MODULES = ("motc", "motc.bench.cli")


class TraceError(RuntimeError):
    """A layer function the benchmark wraps is gone or was never bound."""


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise TraceError(
            f"{module}.{name} is gone; the benchmark wraps it by name "
            f"(update perfbench/layertrace.py together with the program)"
        ) from exc


def _rebind(original, replacement) -> None:
    """Point every motc module attribute (and module-level dict value) that
    is ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "motc" or name.startswith("motc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        count += 1
    if count == 0:
        raise TraceError(f"{original.__module__}.{original.__qualname__} is bound nowhere")


class Probe:
    """Untraced instrumentation: timestamps of the run window, and each
    integration's report, accepted steps and rhs count.  It costs a clock
    read per runner, emit, integrate and propagate call and a counter per
    rhs and observer call.

    ``marks`` lists (label, time) at the start of the runner, of each
    integration and of each ``propagate`` call, and at the end of each
    integration, of the runner and of ``emit_results``.  Runs of one
    config make the same calls, so their marks split them into the same
    segments, which the benchmark compares segment by segment.
    """

    def __init__(self):
        self.runner_start: float | None = None
        self.runner_end: float | None = None
        self.emit_end: float | None = None
        self.emitted: list = []
        self.integrations: list[dict] = []
        self.marks: list[tuple[str, float]] = []
        self.stop_at_runner = False

    def install(self) -> None:
        for module in ENTRY_MODULES:
            importlib.import_module(module)
        for module, name in RUNNERS:
            runner = _lookup(module, name)
            _rebind(runner, self._wrap_runner(runner))
        emit = _lookup(*EMIT)
        _rebind(emit, self._wrap_emit(emit))
        cls = _lookup(*CONFIG_CLASS)
        cls.integrate = self._wrap_integrate(cls.integrate)
        propagate = _lookup(*LAYER_FUNCTIONS["dynamics.propagate"])
        _rebind(propagate, self._wrap_propagate(propagate))

    def _mark(self, label: str) -> float:
        now = time.monotonic()
        self.marks.append((label, now))
        return now

    def _wrap_runner(self, fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            self.runner_start = self._mark("runner")
            if self.stop_at_runner:
                raise SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                self.runner_end = self._mark("runner_end")

        return runner

    def _wrap_emit(self, fn):
        @functools.wraps(fn)
        def emit(*args, **kwargs):
            paths = fn(*args, **kwargs)
            self.emit_end = self._mark("emit_end")
            self.emitted = list(paths)
            return paths

        return emit

    def _wrap_integrate(self, fn):
        @functools.wraps(fn)
        def integrate(config, problem, observer=None):
            record = {"s_values": [], "final_field": None, "rhs_evals": 0, "report": None}
            self.integrations.append(record)
            problem, observer = self.wrap_flow(problem, observer, record)
            self._mark("integrate")
            try:
                report = fn(config, problem, observer=observer)
            finally:
                self._mark("integrate_end")
            record["report"] = {
                "accepted": report.accepted_steps,
                "rejected": report.rejected_steps,
                "rhs_evals": report.rhs_evaluations,
            }
            return report

        return integrate

    def _wrap_propagate(self, fn):
        @functools.wraps(fn)
        def propagate(*args, **kwargs):
            self._mark("propagate")
            return fn(*args, **kwargs)

        return propagate

    def wrap_flow(self, problem, observer, record: dict):
        """Count rhs calls and keep each accepted (s, field) the observer
        sees, whatever the integrator reports or raises."""
        rhs = problem.rhs

        def counted_rhs(s, control):
            record["rhs_evals"] += 1
            return rhs(s, control)

        def recording_observer(s, control):
            record["s_values"].append(float(s))
            record["final_field"] = control.samples.copy()
            return observer(s, control) if observer is not None else None

        return dataclasses.replace(problem, rhs=counted_rhs), recording_observer


class SetupDone(Exception):
    """Raised at the runner call when only set-up is being timed."""


class Tracer(Probe):
    """Probe plus a span around every layer call.

    A span is [name, start, end, parent index]; one process holds the spans
    of one run.  Arguments and results that explain a layer (the spectrum
    of each solved Gramian, flow convergence) are kept next to the spans.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.solves: list[tuple[float, float]] = []
        self.flows: list[bool] = []

    def install(self) -> None:
        super().install()
        notes = {"tracking.solve": self._note_solve, "landscape.kinematic_flow": self._note_flow}
        for span, (module, name) in LAYER_FUNCTIONS.items():
            fn = _lookup(module, name)
            _rebind(fn, self._span(span, fn, notes.get(span)))
        for span, name in KERNEL_FUNCTIONS.items():
            fn = getattr(np.linalg, name)
            setattr(np.linalg, name, self._span(span, fn))

    def _note_solve(self, args, kwargs, result) -> None:
        report = args[0] if args else kwargs["report"]
        self.solves.append((float(report.singular_values[-1]), float(report.condition)))

    def _note_flow(self, args, kwargs, result) -> None:
        self.flows.append(bool(result.converged))

    def _span(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _wrap_emit(self, fn):
        return super()._wrap_emit(self._span("io.emit", fn))

    def _wrap_integrate(self, fn):
        return super()._wrap_integrate(self._span("integrate", fn))

    def wrap_flow(self, problem, observer, record: dict):
        problem, observer = super().wrap_flow(problem, observer, record)
        problem = dataclasses.replace(problem, rhs=self._span("bench.rhs", problem.rhs))
        return problem, self._span("bench.recorder", observer)
