"""Regenerate ``reference.json``: the survey's log10 condition medians.

The values are taken once, at a commit whose survey output is trusted, for
a range of seeds; the benchmark compares every survey run against them.

    PYTHONPATH=src python3 perfbench/make_reference.py --seeds 0-99,2008
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

from motc.bench.experiments import ExperimentConfig, run_gramian_distribution

from workloads import config_for

HERE = Path(__file__).resolve().parent
QUANTITIES = ("cond_g", "cond_gamma_thermal", "cond_gamma_pure")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99,2008")
    args = parser.parse_args()
    table = {}
    for seed in parse_seeds(args.seeds):
        config = ExperimentConfig.from_dict(config_for("gramian-survey", seed))
        summary = run_gramian_distribution(config)["summary"]
        table[str(seed)] = {name: summary[name]["log10_median"] for name in QUANTITIES}
        print(seed, table[str(seed)], flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=HERE
    ).stdout.strip()
    payload = {"workload": "gramian-survey", "commit": commit, "log10_median": table}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
