"""Run the nine golden configs and write their CSV/JSON outputs, or
compare two trees of them.

    PYTHONPATH=src python tools/goldens.py OUT_DIR
    python tools/goldens.py --diff OLD_DIR NEW_DIR

Each config runs through the ``motc`` CLI entry point with one BLAS thread
and writes into ``OUT_DIR/<name>/``, next to the ``config.json`` it ran
from.  A refactor that must not change any number is checked by running
this script against two checkouts and comparing the trees:

    PYTHONPATH=<old>/src python tools/goldens.py /tmp/gold-old
    PYTHONPATH=<new>/src python tools/goldens.py /tmp/gold-new
    python tools/goldens.py --diff /tmp/gold-old /tmp/gold-new

``--diff`` prints "identical" for each config whose files match byte for
byte.  Of every other config it lists the files that differ: per CSV the
row counts and the largest absolute and relative difference per column
(over the rows both files have); from the summary JSON each leg's
accepted, rejected and rhs counts and its termination, then every other
leaf that differs: a number with its difference, any other value as
old -> new, and a leaf of one tree only as "only in old" or "only in
new".  It exits 0 when every config is identical and 1 when any differs,
so a script can gate a change that must not move a number on it.
``diff -r`` cannot gate a change that touches arithmetic: golden config 1
(``motc-default``) accepts or rejects steps differently past s = 0.9 on
changes of 1e-14, so its rows shift while its run still completes.

The configs are small (N=3 or 4) and take about ten seconds in all.  Every
config key but the experiment is pinned here, so no output rests on a
default that a change could move.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from pathlib import Path

# The base every config starts from: a three-level pure state, tracked
# briefly on a coarse grid.
BASE = {
    "n_levels": 3,
    "state": "pure",
    "t_final": 30.0,
    "q": 64,
    "observables": [2],
    "samples": 1000,
    "seed": 2008,
    "correction": "beta=10",
    "free_fn": "zero",
    "integrator": "rkck:atol=1e-6,rtol=1e-6",
    "track": "geodesic",
    "grad_s_max": 2000.0,
    "max_steps": 20000,
    "workers": 1,
}

# name -> (CLI command, the keys that differ from BASE)
GOLDENS = {
    "motc-default": ("motc-track", {}),
    "motc-linear-fluence": (
        "motc-track",
        {"n_levels": 4, "state": "rank2", "track": "linear", "observables": [1, 2],
         "free_fn": "fluence:eta=5", "max_steps": 40},
    ),
    "motc-euler": ("motc-track", {"integrator": "euler:ds=0.05", "correction": "off"}),
    "motc-budget": ("motc-track", {"max_steps": 10}),
    "unitary-default": ("unitary-track", {}),
    "unitary-fluence": ("unitary-track", {"free_fn": "fluence:eta=5", "max_steps": 30}),
    "efficiency": ("efficiency", {}),
    "grad-flow": ("grad-flow", {"grad_s_max": 20.0}),
    "gramian-dist": ("gramian-dist", {"observables": [1, 2, 3], "samples": 6}),
}


def run(out_dir: Path) -> int:
    from motc.bench.cli import main

    for name, (command, changes) in GOLDENS.items():
        case = out_dir / name
        case.mkdir(parents=True, exist_ok=True)
        config = case / "config.json"
        config.write_text(json.dumps({**BASE, **changes}, indent=2, sort_keys=True) + "\n")
        code = main([command, "--config", str(config), "--out", str(case)])
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return code
    return 0


COUNTERS = ("accepted_steps", "rejected_steps", "rhs_evaluations")


def _num_diff(x: float, y: float) -> tuple[float, float]:
    """Absolute and relative difference of two numbers: NaN equals NaN,
    and NaN or inf against anything else differs by inf."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    d = abs(x - y)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(x), abs(y))


def _cell_diff(a: str, b: str) -> tuple[float, float]:
    """`_num_diff` of two CSV cells; inf for unequal text."""
    if a == b:
        return 0.0, 0.0
    try:
        return _num_diff(float(a), float(b))
    except ValueError:
        return math.inf, math.inf


def _diff_csv(old: Path, new: Path) -> list[str]:
    with old.open(newline="") as f:
        head_a, *rows_a = list(csv.reader(f))
    with new.open(newline="") as f:
        head_b, *rows_b = list(csv.reader(f))
    lines = [f"  {old.name}: rows {len(rows_a)} -> {len(rows_b)}"]
    if head_a != head_b:
        lines.append(f"    columns {head_a} -> {head_b}")
    for col in (c for c in head_a if c in head_b):
        i, j = head_a.index(col), head_b.index(col)
        diffs = [_cell_diff(ra[i], rb[j]) for ra, rb in zip(rows_a, rows_b)]
        worst = max((d for d, _ in diffs), default=0.0)
        rel = max((r for _, r in diffs), default=0.0)
        lines.append(f"    {col}: max |diff| {worst:.3g}, relative {rel:.3g}")
    return lines


def _leaves(node, path: str = ""):
    """(path, value) of every leaf of a JSON tree: a number, string, bool,
    null or empty container."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for k, value in enumerate(node):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, node


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _union(a: dict, b: dict) -> list:
    """The keys of ``a``, then those only in ``b``, each in its tree's order."""
    return [*a, *(key for key in b if key not in a)]


def _legs(node, path: str = ""):
    """(path, leg) of every run leg, a dict with ``accepted_steps``."""
    if isinstance(node, dict):
        if "accepted_steps" in node:
            yield path, node
        for key, value in node.items():
            yield from _legs(value, f"{path}.{key}" if path else key)


def _diff_summary(old: Path, new: Path) -> list[str]:
    """Each leg's counters and termination, then every other leaf that
    differs or is in one tree only."""
    a, b = json.loads(old.read_text()), json.loads(new.read_text())
    lines = [f"  {old.name}:"]
    legs_a, legs_b = dict(_legs(a)), dict(_legs(b))
    leg_keys = (*COUNTERS, "termination")
    for path in _union(legs_a, legs_b):
        x, y = legs_a.get(path, {}), legs_b.get(path, {})
        counts = ", ".join(f"{key.split('_')[0]} {x.get(key)} -> {y.get(key)}" for key in COUNTERS)
        lines.append(
            f"    leg {path}: {counts}; termination {x.get('termination')} -> {y.get('termination')}"
        )
    leaves_a, leaves_b = dict(_leaves(a)), dict(_leaves(b))
    for path in _union(leaves_a, leaves_b):
        parent, _, key = path.rpartition(".")
        if key in leg_keys and (parent in legs_a or parent in legs_b):
            continue
        if path not in leaves_a or path not in leaves_b:
            lines.append(f"    {path}: only in {'old' if path in leaves_a else 'new'}")
            continue
        x, y = leaves_a[path], leaves_b[path]
        if _is_number(x) and _is_number(y):
            d, rel = _num_diff(float(x), float(y))
            if d:
                lines.append(f"    {path}: |diff| {d:.3g}, relative {rel:.3g}")
        elif json.dumps(x) != json.dumps(y):
            lines.append(f"    {path}: {json.dumps(x)} -> {json.dumps(y)}")
    return lines


def diff(old_dir: Path, new_dir: Path) -> list[str]:
    """The report of ``--diff`` on two output trees, one line per entry."""
    lines = []
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.iterdir() if p.is_dir()})
    for name in names:
        old, new = old_dir / name, new_dir / name
        report = []
        for f in sorted({p.name for d in (old, new) if d.is_dir() for p in d.iterdir()}):
            a, b = old / f, new / f
            if not (a.is_file() and b.is_file()):
                report.append(f"  {f}: only in {'old' if a.is_file() else 'new'}")
            elif a.read_bytes() == b.read_bytes():
                continue
            elif f.endswith(".csv"):
                report.extend(_diff_csv(a, b))
            elif f.endswith("_summary.json"):
                report.extend(_diff_summary(a, b))
            else:
                report.append(f"  {f}: differs")
        lines.extend([f"{name}: differs", *report] if report else [f"{name}: identical"])
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        lines = diff(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(lines))
        sys.exit(0 if all(line.endswith(": identical") for line in lines) else 1)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    # Before numpy loads: threaded BLAS sums in another order from run to run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(run(Path(sys.argv[1])))
