"""Run the benchmark on two checkouts in alternating pairs and compare
their end-to-end metrics.

    python tools/benchpairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S] [--seconds T]

Each run is the command of ``CHANGE_DIR/BENCHMARK.json`` with
``--workload W --seconds T --trace 0`` (and ``--seed S`` when given),
started in the checkout's root, one run at a time.  Pair i runs the parent
first when i is even and the change first when it is odd, so a slow stretch
of the machine does not fall on one side only.  The last line of a run's
standard output is its result: correct, attempted, failed and the metrics.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs the change won (by the metric's
``better``; a tie counts for neither side) and whether a gain could be
claimed: the change won at least nine tenths of the pairs and the medians
differ, in its favour, by more than the parent's interquartile range.  It
also lists every run that was not correct, had failed operations or gave
no result.  It exits 0 when every run gave a correct result, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict | None:
    """The result object on the last non-empty line of a run's output, or
    None when that line is not one."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def metric_value(result: dict | None, name: str) -> float | None:
    value = (result or {}).get("metrics", {}).get(name, {}).get("value")
    return None if value is None else float(value)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> list[str]:
    """One line per metric of ``metrics`` (each with ``name``, ``unit`` and
    ``better``) over the (parent, change) results of ``pairs``; pairs that
    lack the metric on either side are left out of it."""
    lines = []
    for metric in metrics:
        name, unit, lower = metric["name"], metric.get("unit", ""), metric["better"] == "lower"
        both = [
            (p, c) for p, c in ((metric_value(a, name), metric_value(b, name)) for a, b in pairs)
            if p is not None and c is not None
        ]
        if not both:
            lines.append(f"{name}: no pair has it")
            continue
        parent, change = ([pair[i] for pair in both] for i in (0, 1))
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gain = (pm - cm) if lower else (cm - pm)
        claim = wins >= 0.9 * len(both) and gain > p3 - p1
        lines.append(
            f"{name} [{unit}, {metric['better']} is better]: "
            f"parent {pm:.6g} (quartiles {p1:.6g} {p3:.6g}), "
            f"change {cm:.6g} (quartiles {c1:.6g} {c3:.6g}); "
            f"change won {wins} of {len(both)} pairs; "
            f"median gain {gain:+.6g} against parent IQR {p3 - p1:.6g}: "
            f"claim {'holds' if claim else 'does not hold'}"
        )
    return lines


def problems(pairs: list[tuple[dict | None, dict | None]]) -> list[str]:
    """Every run that gave no result, was not correct or had failed
    operations, as 'pair i side: what'."""
    found = []
    for i, pair in enumerate(pairs):
        for side, result in zip(SIDES, pair):
            if result is None:
                found.append(f"pair {i} {side}: no result")
            elif not result.get("correct") or result.get("failed"):
                correct, failed = result.get("correct"), result.get("failed")
                found.append(f"pair {i} {side}: correct={correct} failed={failed}")
    return found


def first_side(i: int) -> int:
    """Index in SIDES of the side that runs first in pair i."""
    return i % 2


def run_once(checkout: Path, command: list[str]) -> dict | None:
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if result is None:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"  {checkout}: exit {proc.returncode}, no result\n{tail}", file=sys.stderr)
    return result


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench.get("run_seconds", 42)
    command = [*bench["command"], "--workload", args.workload, "--seconds", f"{seconds:g}",
               "--trace", "0"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    checkouts = (args.parent.resolve(), args.change.resolve())
    print("command: " + " ".join(command))
    pairs = []
    for i in range(args.pairs):
        first = first_side(i)
        results = [None, None]
        for side in (first, 1 - first):
            results[side] = run_once(checkouts[side], command)
        pairs.append(tuple(results))
        names = [metric["name"] for metric in bench["end_to_end"]]
        figures = ", ".join(
            f"{name} {metric_value(results[0], name)} -> {metric_value(results[1], name)}"
            for name in names
        )
        print(f"pair {i} ({SIDES[first]} first): {figures}", flush=True)
    for line in summarize(pairs, bench["end_to_end"]):
        print(line)
    bad = problems(pairs)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
