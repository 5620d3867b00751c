"""Layered benchmark of the motc tracking pipeline.

    python3 perfbench/run.py --workload track-paper --seed 2008 --seconds 42 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each operation is a fresh ``python3`` process that calls
``motc.bench.cli.main`` with the workload's config, one at a time (a closed
loop with one client), for about ``--seconds``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".perfbench_out")
# Fresh processes that only import and parse, to time set-up on its own.
SETUP_PROBES = 3
# Untraced operations a run makes at least, however long they take: the
# per-segment medians need three to set one slow operation aside.
MIN_PLAIN_OPS = 3
# Every process must end well inside the benchmark's 180 s limit.
TOTAL_LIMIT_S = 170.0
# BLAS threads per operation.  The matrices are small (batches of 11x11,
# at most 121x121): on a 2-core machine a second OpenBLAS thread made no
# operation faster, widened the run-to-run spread, and when another process
# held a core its spin-waiting slowed the survey five-fold.
BLAS_THREADS = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


class Launcher:
    """Launches the operations of one benchmark run and keeps their results."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.root = OUT_ROOT / workload
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(Path("src").resolve()), os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )

    def launch(self, mode: str) -> dict:
        """One fresh worker process; returns its result with setup_s added."""
        self.count += 1
        op_dir = self.root / f"op{self.count:03d}_{mode}"
        op_dir.mkdir()
        config = config_for(self.workload, self.seed)
        (op_dir / "config.json").write_text(json.dumps(config))
        cmd = [sys.executable, str(HERE / "worker.py"), "--op-dir", str(op_dir), "--mode", mode]
        budget = TOTAL_LIMIT_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=max(budget, 1.0)
            )
        except subprocess.TimeoutExpired:
            attempted = config.get("samples", 1) if config["experiment"] == "gramian-dist" else 1
            return {"mode": mode, "error": "operation timed out", "attempted": attempted,
                    "failed": attempted}
        result_path = op_dir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(result_path.read_text())
        if "harness_error" in result:
            raise HarnessError(result["harness_error"])
        result["mode"] = mode
        if result.get("runner_start") is not None:
            result["setup_s"] = result["runner_start"] - t0
        if result.get("problems"):  # wrong outputs count as failed work
            result["failed"] = result["attempted"]
        if mode != "setup":
            shutil.rmtree(op_dir / "out", ignore_errors=True)
        return result


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


# -- end-to-end ---------------------------------------------------------------

def labels(op: dict) -> list[str]:
    return [label for label, _ in op["marks"]]


def segment_window(ops: list[dict], first: str, last: str) -> float:
    """Seconds from the first mark ``first`` to the last mark ``last``.

    The machine's speed changes for seconds at a time, so an operation's
    total mixes fast and slow stretches.  The marks cut every operation of
    a run into the same segments; each segment counts with its median over
    the operations, and the window is the sum of those medians."""
    names = labels(ops[0])
    start, end = names.index(first), len(names) - 1 - names[::-1].index(last)
    times = [[t for _, t in op["marks"][start:end + 1]] for op in ops if labels(op) == names]
    return sum(
        statistics.median(t[i + 1] - t[i] for t in times) for i in range(end - start)
    )


def end_to_end(ops: list[dict], setups: list[dict], survey: bool) -> tuple[dict, dict]:
    """(metrics for the contract line, every named figure for the report as
    (value, unit, how it was taken))."""
    done = [op for op in ops if "run_s" in op]
    run_s = segment_window(done, "runner", "emit_end")
    if survey:
        step_ms = 1e3 * segment_window(done, "runner", "runner_end") / done[0]["attempted"]
    else:
        step_ms = 1e3 * segment_window(done, "integrate", "integrate_end") / done[0]["attempts"]
    n = f"median of {len(done)} operations"
    by_segment = f"sum of segment medians over {len(done)} operations"
    figures = {
        "setup_s": (median(op.get("setup_s") for op in setups + ops), "s",
                    f"median of {len(setups + ops)} processes"),
        "run_s": (run_s, "s", by_segment),
        "step_ms": (step_ms, "ms", by_segment),
        "peak_rss_mb": (median(op["peak_rss_mb"] for op in done), "MB", n),
    }
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    figures["failed_frac"] = (failed / attempted, "1", f"{failed} of {attempted} operations")
    if survey:
        figures["samples_per_s"] = (done[0]["attempted"] / run_s, "1/s", by_segment)
    else:
        tracked = [op for op in done if "final_s" in op]
        n = f"median of {len(tracked)} operations"
        figures["final_s"] = (median(op["final_s"] for op in tracked), "1", n)
        figures["track_rate"] = (
            figures["final_s"][0] / run_s if tracked else None, "1/s", by_segment
        )
        figures["max_track_err"] = (
            max((op["max_track_err"] for op in tracked), default=None), "1",
            f"max over {len(tracked)} operations",
        )
    contract = {
        name: {"value": figures[name][0], "unit": figures[name][1]}
        for name in ("setup_s", "run_s", "step_ms", "peak_rss_mb")
    }
    return contract, figures


# -- per layer ----------------------------------------------------------------

def per_layer(plain: list[dict], traced: list[dict], survey: bool) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced operations (medians over them for
    timings), and any self-time sums that do not add up to run_s."""
    problems = []
    for op in traced:
        layers = op["layers"]
        total = sum(entry["self_s"] for entry in layers["spans"].values()) + layers["other_s"]
        if abs(total - op["run_s"]) > 1e-6 * op["run_s"]:
            problems.append(f"self times sum to {total:.6f} s, traced run_s is {op['run_s']:.6f} s")

    def span(name: str, key: str):
        return median(op["layers"]["spans"].get(name, {}).get(key, 0.0) for op in traced)

    def calls(name: str) -> int:
        return int(span(name, "calls"))

    def per_call_ms(name: str):
        per = [
            1e3 * e["total_s"] / e["calls"]
            for op in traced if (e := op["layers"]["spans"].get(name))
        ]
        return median(per) or 0.0

    def share(name: str):
        return median(
            op["layers"]["spans"].get(name, {}).get("total_s", 0.0) / op["run_s"] for op in traced
        )

    run_s = median(op["run_s"] for op in traced)
    first = traced[0]
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
    m["dynamics.propagate.calls"] = (calls("dynamics.propagate"), "count")
    m["dynamics.propagate.ms"] = (per_call_ms("dynamics.propagate"), "ms")
    m["dynamics.propagate.share"] = (share("dynamics.propagate"), "fraction")
    m["dynamics.expectations.calls"] = (calls("dynamics.expectations"), "count")
    m["kernel.eigh.calls"] = (calls("kernel.eigh"), "count")
    m["kernel.eigh.share"] = (share("kernel.eigh"), "fraction")
    m["kernel.svd.calls"] = (calls("kernel.svd"), "count")
    m["kernel.svd.share"] = (share("kernel.svd"), "fraction")
    m["landscape.gradients.calls"] = (calls("landscape.gradients"), "count")
    m["landscape.gradients.ms"] = (per_call_ms("landscape.gradients"), "ms")
    m["landscape.kinematic_flow.s"] = (span("landscape.kinematic_flow", "total_s"), "s")
    m["landscape.kinematic_flow.converged"] = (int(bool(first["layers"]["flow_converged"])), "count")
    m["tracking.rhs.calls"] = (calls("tracking.rhs"), "count")
    m["tracking.rhs.self_ms"] = (
        median(
            1e3 * e["self_s"] / e["calls"]
            for op in traced if (e := op["layers"]["spans"].get("tracking.rhs"))
        ) or 0.0,
        "ms",
    )
    m["tracking.gramian_motc.ms"] = (per_call_ms("tracking.gramian_motc"), "ms")
    m["tracking.gramian_unitary.ms"] = (per_call_ms("tracking.gramian_unitary"), "ms")
    m["tracking.gramian_unitary.share"] = (share("tracking.gramian_unitary"), "fraction")
    m["tracking.solve.ms"] = (per_call_ms("tracking.solve"), "ms")
    m["tracking.sigma_min"] = (first["layers"]["sigma_min"], "1")
    m["tracking.cond_max"] = (first["layers"]["cond_max"], "1")
    m["tracking.pinv_frac"] = (first["layers"]["pinv_frac"], "fraction")
    m["bench.recorder.calls"] = (calls("bench.recorder"), "count")
    m["bench.recorder.ms"] = (per_call_ms("bench.recorder"), "ms")
    m["bench.sample.ms"] = (
        median(1e3 * op["runner_s"] / op["attempted"] for op in traced) if survey else 0.0, "ms"
    )
    m["bench.other_s"] = (median(op["layers"]["other_s"] for op in traced), "s")
    m["bench.run_s"] = (run_s, "s")
    m["io.emit.ms"] = (per_call_ms("io.emit"), "ms")
    m["io.bytes"] = (first["io_bytes"], "bytes")
    if survey:
        for name, unit in INTEGRATE_UNITS.items():
            m[name] = (0, unit)
        m["dynamics.props_per_step"] = (0, "count")
    else:
        accepted, rejected = first["accepted"], first["rejected"]
        m["integrate.accepted"] = (accepted, "count")
        m["integrate.rejected"] = (rejected, "count")
        m["integrate.reject_frac"] = (rejected / max(accepted + rejected, 1), "fraction")
        m["integrate.rhs_evals"] = (first["rhs_evals"], "count")
        m["integrate.rhs_per_step"] = (first["rhs_evals"] / max(accepted, 1), "count")
        m["integrate.ds_min"] = (first["ds_min"], "1")
        m["integrate.final_s"] = (first["final_s"], "1")
        m["tracking.max_track_err"] = (first["max_track_err"], "1")
        m["dynamics.props_per_step"] = (
            first["layers"]["propagate_in_integrate"] / max(accepted, 1), "count"
        )
    plain_run = median(op.get("run_s") for op in plain)
    m["trace.overhead_frac"] = (run_s / plain_run - 1.0 if plain_run else 0.0, "fraction")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}, problems


SPAN_NAMES = (
    "dynamics.propagate", "dynamics.expectations", "kernel.eigh", "kernel.svd",
    "landscape.gradients", "landscape.kinematic_flow", "tracking.rhs",
    "tracking.gramian_motc", "tracking.gramian_unitary", "tracking.solve",
    "integrate", "bench.rhs", "bench.recorder", "io.emit",
)
INTEGRATE_UNITS = {
    "integrate.accepted": "count", "integrate.rejected": "count",
    "integrate.reject_frac": "fraction", "integrate.rhs_evals": "count",
    "integrate.rhs_per_step": "count", "integrate.ds_min": "1",
    "integrate.final_s": "1", "tracking.max_track_err": "1",
}


# -- determinism --------------------------------------------------------------

COUNTERS = ("accepted", "rejected", "rhs_evals", "final_s", "failed")


def counter_mismatches(ops: list[dict]) -> list[str]:
    """Deterministic counters must repeat exactly across operations of one
    seed, traced or not; any difference is a benchmark defect."""
    seen = {json.dumps({k: op.get(k) for k in COUNTERS}) for op in ops if "run_s" in op}
    problems = [f"counters differ between operations: {sorted(seen)}"] if len(seen) > 1 else []
    calls = {
        json.dumps({n: e["calls"] for n, e in sorted(op["layers"]["spans"].items())})
        for op in ops if "layers" in op
    }
    if len(calls) > 1:
        problems.append("span call counts differ between traced operations")
    if len({json.dumps(labels(op)) for op in ops if "marks" in op}) > 1:
        problems.append("the sequence of marked calls differs between operations")
    return problems


# -- main ---------------------------------------------------------------------

def run(args: argparse.Namespace) -> int:
    if not (Path("src") / "motc" / "bench" / "cli.py").is_file():
        print("perfbench: run from the root of a motc source checkout (no src/motc)", file=sys.stderr)
        return 2
    survey = WORKLOADS[args.workload]["command"] == "gramian-dist"
    launcher = Launcher(args.workload, args.seed)
    warm = launcher.launch("setup")  # compiles bytecode, warms the page cache
    machine = dict(warm["machine"], nproc=len(os.sched_getaffinity(0)), cpu=cpu_model(),
                   seed=args.seed, **source_identity())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))

    start = time.monotonic()
    setups = [] if args.trace else [launcher.launch("setup") for _ in range(SETUP_PROBES)]
    modes = ["plain", "traced"] if args.trace else ["plain"]
    ops: list[dict] = []
    # Another operation starts only if one of the typical length so far
    # would end within --seconds, so a run lasts about --seconds.
    least = len(modes) if args.trace else MIN_PLAIN_OPS
    lengths: list[float] = []
    while len(ops) < least or time.monotonic() - start + median(lengths) <= args.seconds:
        launched = time.monotonic()
        op = launcher.launch(modes[len(ops) % len(modes)])
        lengths.append(time.monotonic() - launched)
        ops.append(op)
        print(f"op {len(ops)} {op['mode']}: " + json.dumps(
            {k: op.get(k) for k in ("run_s", "setup_s", "final_s", "accepted", "rejected", "error")}
        ))

    problems = [p for op in ops for p in op.get("problems", [])] + counter_mismatches(ops)
    for op in ops:
        if "error" in op:
            print(f"failed operation ({op['mode']}): {op['error'].strip()}")

    plain = [op for op in ops if op["mode"] == "plain"]
    traced = [op for op in ops if op["mode"] == "traced" and "layers" in op]
    if not any("run_s" in op for op in plain) or (args.trace and not traced):
        raise HarnessError("no operation completed; nothing to report")
    contract, figures = end_to_end(plain, setups, survey)
    for name, (value, unit, how) in figures.items():
        print(f"metric {name} = {value:.6g} {unit} ({how})" if value is not None
              else f"metric {name} = n/a")
    metrics = contract
    if args.trace:
        metrics, layer_problems = per_layer(plain, traced, survey)
        problems += layer_problems
        for name, entry in metrics.items():
            print(f"layer {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": metrics,
    }
    counters = {k: plain[0].get(k) for k in COUNTERS}
    (launcher.root / "result.json").write_text(
        json.dumps(dict(result, machine=machine, figures=figures, counters=counters), indent=1)
        + "\n"
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
