"""The benchmark's workloads: one CLI experiment and config each.

All three use the paper's banded N=11 model, the rank-7 thermal-truncated
state, error correction beta=10 and Cash-Karp with atol=rtol=1e-6.  The
benchmark seed becomes ``ExperimentConfig.seed``; nothing else varies.
"""

from __future__ import annotations

COMMON = {
    "n_levels": 11,
    "state": "rank7",
    "correction": "beta=10",
    "integrator": "rkck:atol=1e-6,rtol=1e-6",
}

WORKLOADS = {
    # The paper's headline run at full size under a budget of integrator
    # attempts: propagate dominates, so propagator work shows here.
    "track-paper": {
        "command": "motc-track",
        "config": {**COMMON, "t_final": 100.0, "q": 1024, "observables": [2], "max_steps": 12},
    },
    # A small grid run long enough to reach the near-singular stretch where
    # the step size collapses and steps get rejected: step control, the
    # Gramian solve policy and the reached s show here.
    "track-stall": {
        "command": "motc-track",
        "config": {**COMMON, "t_final": 20.0, "q": 128, "observables": [2], "max_steps": 120},
    },
    # The condition-number survey at the paper config: no integrator, no
    # flow target, no recorder; the only user of the unitary Gramian.
    "gramian-survey": {
        "command": "gramian-dist",
        "config": {
            **COMMON, "t_final": 100.0, "q": 1024, "observables": [2, 4, 10],
            "samples": 40, "workers": 1,
        },
    },
}

DEFAULT_SEED = 2008


def config_for(workload: str, seed: int) -> dict:
    """The ExperimentConfig dict one operation of ``workload`` runs."""
    spec = WORKLOADS[workload]
    return {**spec["config"], "experiment": spec["command"], "seed": seed}
