"""One operation of a workload, in a fresh process.

    python3 perfbench/worker.py --op-dir DIR --mode MODE

``DIR`` holds ``config.json``; the run's artifacts go to ``DIR/out`` and
this process's measurements to ``DIR/result.json``.  Modes:

* ``setup``  imports, parses the config and stops where the runner would
  be called (set-up time only);
* ``plain``  a full run through ``motc.bench.cli.main``, untraced;
* ``traced`` the same run with a span around every layer call.

Output checks run after the timed window.  The process exits 0 whenever it
wrote ``result.json``; a failed run is recorded there, not in the exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import re
import resource
import sys
import traceback
from pathlib import Path

import layertrace
from checks import check_survey, check_track

HERE = Path(__file__).resolve().parent
# Integrator runs that end on the attempt budget are complete, whether the
# program returns silently or reports the budget with an error.
BUDGET_ERROR = re.compile(r"budget|max.?steps", re.IGNORECASE)
# Solves above this Gramian condition take the pseudo-inverse path (the
# program's strict-solve cap at the seed commit).
PINV_CONDITION = 1e10


def _run(op_dir: Path, probe: layertrace.Probe) -> dict:
    import motc.bench.cli as cli
    from motc.bench.experiments import ExperimentConfig

    config_path = op_dir / "config.json"
    command = json.loads(config_path.read_text())["experiment"]
    out_dir = op_dir / "out"
    try:
        code = cli.main([command, "--config", str(config_path), "--out", str(out_dir)])
    except layertrace.SetupDone:
        return {"runner_start": probe.runner_start, "machine": machine_info()}
    except Exception:
        code, crash = None, traceback.format_exc()
    config = ExperimentConfig.from_dict(json.loads(config_path.read_text()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = config.samples if config.experiment == "gramian-dist" else 1
    result = {"runner_start": probe.runner_start, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": attempted, "problems": []}
    if code != 0 or probe.emit_end is None:
        result["error"] = crash if code is None else f"motc exited with code {code}"
        return result
    result["run_s"] = probe.emit_end - probe.runner_start
    result["runner_s"] = probe.runner_end - probe.runner_start
    result["marks"] = probe.marks
    result["io_bytes"] = sum(Path(p).stat().st_size for p in probe.emitted)
    if isinstance(probe, layertrace.Tracer):
        result["layers"] = layer_metrics(probe, result["run_s"])
        spans = [[n, round(a, 9), round(b, 9), p] for n, a, b, p in probe.spans]
        (op_dir / "spans.json").write_text(json.dumps(spans))
    try:
        if config.experiment == "gramian-dist":
            reference = json.loads((HERE / "reference.json").read_text())
            problems, figures = check_survey(out_dir, config, reference)
            result.update(figures, failed=figures["failures"], problems=problems)
        else:
            result.update(track_outcome(out_dir, config, probe))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        result["problems"].append(f"could not check outputs: {type(exc).__name__}: {exc}")
    return result


def track_outcome(out_dir: Path, config, probe: layertrace.Probe) -> dict:
    (m,) = config.observables
    summary = json.loads((out_dir / "motc-track_summary.json").read_text())["summary"]
    error = summary["per_m"][str(m)].get("error")
    if error and not BUDGET_ERROR.search(error):
        return {"error": error}
    (integration,) = probe.integrations
    problems, figures = check_track(out_dir, config, integration)
    report = integration["report"]
    attempts = report["accepted"] + report["rejected"] if report else config.max_steps
    s = [0.0] + integration["s_values"]
    return dict(
        figures,
        failed=0,
        problems=problems,
        attempts=attempts,
        accepted=len(integration["s_values"]),
        rejected=attempts - len(integration["s_values"]),
        rhs_evals=integration["rhs_evals"],
        ds_min=min((b - a for a, b in zip(s, s[1:])), default=0.0),
    )


def layer_metrics(tracer: layertrace.Tracer, run_s: float) -> dict:
    """Per-span-name calls, inclusive and self seconds; the time no span
    covers; and the layer figures that need the spans' nesting."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    top_s = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top_s += end - start
        else:
            child_s[parent] += end - start
    layers: dict[str, dict] = {}
    for (name, start, end, parent), children in zip(spans, child_s):
        entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children

    def inside_integrate(index: int) -> bool:
        while index >= 0:
            if spans[index][0] == "integrate":
                return True
            index = spans[index][3]
        return False

    solves = tracer.solves
    return {
        "spans": layers,
        "other_s": run_s - top_s,
        "propagate_in_integrate": sum(
            1 for i, span in enumerate(spans) if span[0] == "dynamics.propagate" and inside_integrate(i)
        ),
        "sigma_min": min((s for s, _ in solves), default=0.0),
        "cond_max": max((c for _, c in solves), default=0.0),
        "pinv_frac": sum(c > PINV_CONDITION for _, c in solves) / len(solves) if solves else 0.0,
        "flow_converged": tracer.flows[-1] if tracer.flows else None,
    }


def machine_info() -> dict:
    """Versions and BLAS threading of the process the operations run in."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark operation")
    parser.add_argument("--op-dir", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=["setup", "plain", "traced"])
    args = parser.parse_args()
    probe = layertrace.Tracer() if args.mode == "traced" else layertrace.Probe()
    probe.stop_at_runner = args.mode == "setup"
    try:
        probe.install()
    except layertrace.TraceError:
        result = {"harness_error": traceback.format_exc()}
    else:
        result = _run(args.op_dir, probe)
    (args.op_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
