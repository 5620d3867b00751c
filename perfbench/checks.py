"""Output checks, read from the artifacts a run emitted.

Each check returns a list of problems; an empty list means the outputs
are right.  Checks run after the timed window, in the run's own process.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Largest accepted infinity-norm tracking error.  Seed-commit runs stay
# below 1e-6 on every seed tried; a change that trades this much accuracy
# for speed is not a speed-up.
MAX_TRACK_ERR = 1e-4
# A fresh propagation of the final field must reproduce the last logged
# expectations to this absolute tolerance (they are the same computation,
# so only floating-point order can differ).
PHI_TOL = 1e-9
# Survey medians: the Gamma conditions are well resolved, the unitary
# Gramian's condition sits near 1e15, where its smallest singular value is
# at roundoff level and a change in summation order moves log10 by ~0.2.
LOG10_TOL = {"cond_g": 0.5, "cond_gamma_thermal": 1e-3, "cond_gamma_pure": 1e-3}
# Seeds outside the reference table are held to the table's range.
BAND_MARGIN = 1.0


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def _summary(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / f"{name}_summary.json").read_text())


def check_track(out_dir: Path, config, integration: dict) -> tuple[list[str], dict]:
    """Trajectory checks for a motc-track run with one observable count.

    Returns the problems found and the figures the benchmark reports:
    the s reached and the largest infinity-norm tracking error.
    """
    from motc.dynamics import ControlField, expectations, propagate

    (m,) = config.observables
    problems: list[str] = []
    per_m = _summary(out_dir, "motc-track")["summary"]["per_m"][str(m)]
    header, table = _read_csv(out_dir / f"motc-track_{m}.csv")
    s = table[:, header.index("s")]
    err_inf = table[:, header.index("tracking_error_inf")]
    phi_last = table[-1, [header.index(f"phi_{k + 1}") for k in range(m)]]
    figures = {"final_s": float(s[-1]), "max_track_err": float(np.max(err_inf))}

    if s[0] != 0.0 or np.any(np.diff(s) <= 0) or s[-1] > 1.0:
        problems.append("logged s is not increasing within [0, 1]")
    if list(s[1:]) != integration["s_values"]:
        problems.append("logged s differs from the accepted steps the integrator made")
    if per_m.get("final_s") != s[-1]:
        problems.append("final s differs between summary and CSV")
    if integration["report"] is not None:
        counters = ("accepted_steps", "rejected_steps", "rhs_evaluations")
        reported = tuple(per_m[k] for k in counters)
        report = integration["report"]
        measured = (report["accepted"], report["rejected"], report["rhs_evals"])
        seen = (len(integration["s_values"]), integration["rhs_evals"])
        if reported != measured or measured[0::2] != seen:
            problems.append(
                f"summary counters {reported}, integrator report {measured} and "
                f"observed steps and rhs calls {seen} disagree"
            )
    if not figures["max_track_err"] <= MAX_TRACK_ERR:
        problems.append(f"max tracking error {figures['max_track_err']:.3e} above {MAX_TRACK_ERR:.0e}")

    final = integration["final_field"]
    if final is None:
        return problems, figures
    if final.shape != (config.q,) or not np.all(np.isfinite(final)):
        problems.append("final field is not finite")
    else:
        system = config.build_system()
        state = config.build_state(system)
        oset = config.build_observables().subset(m)
        phi = expectations(propagate(system, ControlField(final)), state, oset)
        gap = float(np.max(np.abs(phi - phi_last)))
        if not gap <= PHI_TOL:
            problems.append(f"last logged Phi differs from a fresh propagation by {gap:.3e}")
        if not (out_dir / f"motc-track_spectrum_m{m}.csv").is_file():
            problems.append("finite final field but no spectrum emitted")
    return problems, figures


def check_survey(out_dir: Path, config, reference: dict) -> tuple[list[str], dict]:
    """Survey checks: table shape and the log10 condition medians against
    the reference values for this seed (or their range, for a seed the
    table lacks)."""
    problems: list[str] = []
    summary = _summary(out_dir, "gramian-dist")["summary"]
    _, table = _read_csv(out_dir / "gramian-dist_table.csv")
    if table.shape != (config.samples - summary["failures"], 4):
        problems.append(f"table shape {table.shape} for {config.samples} samples")
    if np.isnan(table).any():
        problems.append("NaN in the condition table")
    ref = reference["log10_median"].get(str(config.seed))
    for name, tol in LOG10_TOL.items():
        value = summary[name]["log10_median"]
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{name} log10 median is {value!r}")
        elif ref is not None:
            if abs(value - ref[name]) > tol:
                problems.append(
                    f"{name} log10 median {value:.6f} differs from reference {ref[name]:.6f}"
                )
        else:
            known = [entry[name] for entry in reference["log10_median"].values()]
            if not min(known) - BAND_MARGIN <= value <= max(known) + BAND_MARGIN:
                problems.append(f"{name} log10 median {value:.3f} outside the reference range")
    figures = {"failures": int(summary["failures"]), "reference": "seed" if ref else "range"}
    return problems, figures
