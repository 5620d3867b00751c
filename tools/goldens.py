"""Run the nine golden configs and write their CSV/JSON outputs.

    PYTHONPATH=src python tools/goldens.py OUT_DIR

Each config runs through the ``motc`` CLI entry point with one BLAS thread
and writes into ``OUT_DIR/<name>/``, next to the ``config.json`` it ran
from.  A refactor that must not change any number is checked by running
this script against two checkouts and comparing the trees:

    PYTHONPATH=<old>/src python tools/goldens.py /tmp/gold-old
    PYTHONPATH=<new>/src python tools/goldens.py /tmp/gold-new
    diff -r /tmp/gold-old /tmp/gold-new

The configs are small (N=3 or 4) and take about ten seconds in all.  Every
config key but the experiment is pinned here, so no output rests on a
default that a change could move.
"""

from __future__ import annotations

import os

# Before numpy loads: threaded BLAS sums in another order from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

from motc.bench.cli import main

# The base every config starts from: a three-level pure state, tracked
# briefly on a coarse grid.
BASE = {
    "n_levels": 3,
    "state": "pure",
    "t_final": 30.0,
    "q": 64,
    "observables": [2],
    "temperature": 1.0,
    "samples": 1000,
    "seed": 2008,
    "correction": "beta=10",
    "free_fn": "zero",
    "integrator": "rkck:atol=1e-6,rtol=1e-6",
    "ds_min": 1e-6,
    "ds_max": 0.1,
    "track": "geodesic",
    "threshold_fraction": 0.95,
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
    for name, (command, changes) in GOLDENS.items():
        case = out_dir / name
        case.mkdir(parents=True, exist_ok=True)
        config = case / "config.json"
        config.write_text(json.dumps({**BASE, **changes}, indent=2, sort_keys=True) + "\n")
        code = main([command, "--config", str(config), "--out", str(case), "--format", "both"])
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
