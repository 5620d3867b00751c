"""Condition numbers of the tracking Gramians over random fields.

The N^2 x N^2 unitary-tracking Gramian G is routinely ill-conditioned, while
the m x m multiobservable Gramian stays far better behaved; rank deficiency
of the initial state pushes it upward.  This is the small-sample version of
the `motc gramian-dist` experiment.
"""

import numpy as np

from motc import gramian_motc, gramian_unitary, propagate, single_observable_gradients
from motc.bench import (
    build_model_system,
    build_observable_set,
    build_rank_truncated_state,
    sample_random_field,
)

system = build_model_system(11, t_final=100.0, q=1024)
oset = build_observable_set(11, 10, np.random.default_rng(0))
# Thermal and pure ground states: the thermal spectrum truncated to rank N and 1.
thermal = build_rank_truncated_state(system, system.dim, 1.0)
pure = build_rank_truncated_state(system, 1, 1.0)

rows = []
for k in range(20):
    field = sample_random_field(system, np.random.default_rng(1000 + k))
    prop = propagate(system, field)
    cond_g = gramian_unitary(prop).condition
    cond_th = gramian_motc(single_observable_gradients(prop, thermal, oset), prop.weights).condition
    cond_pu = gramian_motc(single_observable_gradients(prop, pure, oset), prop.weights).condition
    rows.append((cond_g, cond_th, cond_pu))

table = np.array(rows)
print(f"{'quantity':28s} {'log10 median':>12s} {'log10 mean':>10s}")
for name, col in zip(
    ("G (unitary tracking)", "Gamma (m=10, thermal)", "Gamma (m=10, pure)"), table.T
):
    logs = np.log10(col)
    print(f"{name:28s} {np.median(logs):12.2f} {logs.mean():10.2f}")
print("\npure-state Gamma sits above the full-rank thermal one, and G is")
print("orders of magnitude worse than either; every solve drops the")
print("directions below 1e-12 of the largest singular value.")
