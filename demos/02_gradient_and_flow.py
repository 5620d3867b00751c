"""The dynamical gradient and a short gradient-flow ascent.

Computes the functional derivative of a multiobservable objective, verifies
it against central finite differences (the same oracle the test suite uses),
and then pushes the field a little way up the landscape with the adaptive
Cash-Karp integrator.
"""

import numpy as np

from motc import (
    ControlField,
    FlowProblem,
    expectations,
    gradient_field,
    propagate,
    rkck_adaptive,
)
from motc.bench import build_model_system, build_observable_set, build_rank_truncated_state, sample_random_field

system = build_model_system(11, t_final=20.0, q=256)
state = build_rank_truncated_state(system, 7)
oset = build_observable_set(11, 3, np.random.default_rng(7)).subset(3)
field = sample_random_field(system, np.random.default_rng(5))
prop = propagate(system, field)

g = gradient_field(prop, state, oset)
print(f"gradient: ||g||_2 = {np.linalg.norm(g):.4f}, max |g| = {np.abs(g).max():.4f}")

# Finite-difference spot check: bump one sample, divide by its quadrature
# weight, compare.
j = 100
h = 1e-5
w = system.quadrature_weights
up, dn = field.samples.copy(), field.samples.copy()
up[j] += h
dn[j] -= h
phi_up = expectations(propagate(system, ControlField(up)), state, oset)
phi_dn = expectations(propagate(system, ControlField(dn)), state, oset)
fd = float((phi_up - phi_dn).sum()) / (2 * h * w[j])
print(f"sample {j}: analytic {g[j]:+.8f}  finite-difference {fd:+.8f}")

# Gradient flow: d eps / d s = g. Phi_M = sum_k Phi_k rises monotonically.
phi0 = expectations(prop, state, oset).sum()


def rhs(s, control):
    return gradient_field(propagate(system, control), state, oset)


problem = FlowProblem(rhs=rhs, s_span=(0.0, 5.0), initial=field, atol=1e-4, rtol=1e-4)
report = rkck_adaptive(problem)
phi1 = expectations(propagate(system, report.final_field), state, oset).sum()
print(f"Phi_M: {phi0:.6f} -> {phi1:.6f} in {report.accepted_steps} accepted steps "
      f"({report.rhs_evaluations} gradient evaluations)")
