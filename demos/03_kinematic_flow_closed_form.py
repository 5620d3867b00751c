"""Gradient flow on U(N) versus its closed-form pure-state solution.

For a pure initial state the double-bracket ascent flow integrates in closed
form: populations follow a softmax reweighting x_k(s) proportional to
exp(2 s lambda_k) x_k(0).  The numerically integrated flow on the unitary
group reproduces it to high accuracy, and the ascent is monotone.  The
flow's maximizers are known in closed form too: ``kinematic_maximizer``
returns the one nearest the start, which attains the trace-inequality bound.
"""

import numpy as np

from motc import (
    StateSpec, analytic_purestate_flow, distance_derivative, expectations, kinematic_flow,
    kinematic_maximizer,
)
from motc.landscape import ObservableSet

rng = np.random.default_rng(3)
n = 11
lam = rng.uniform(0, 1, n)
x0 = rng.uniform(0.05, 1.0, n)
x0 /= x0.sum()

psi0 = np.sqrt(x0)
state = StateSpec(np.outer(psi0, psi0))
oset = ObservableSet(np.diag(lam))

flow = kinematic_flow(np.eye(n, dtype=complex), state, oset, s_max=5.0, ds=0.01, grad_tol=0.0)
print(f"integrated {len(flow.s)} accepted states, Phi: {flow.phi[0]:.4f} -> {flow.phi[-1]:.4f}")
print("monotone ascent:", bool(np.all(np.diff(flow.phi) >= 0)))

worst = 0.0
for s, v in zip(flow.s, flow.v):
    populations = np.abs(v @ psi0) ** 2
    worst = max(worst, np.abs(populations - analytic_purestate_flow(x0, lam, s)).max())
print(f"max deviation from the closed form over s in [0,5]: {worst:.2e}")

w = kinematic_maximizer(np.eye(n, dtype=complex), state, oset.operators[0])
phi_w = expectations(w, state, oset)[0]
bound = state.populations @ np.sort(lam)
print(f"Phi at the closed-form maximizer {phi_w:.12f}, flow endpoint {flow.phi[-1]:.12f}, "
      f"trace bound {bound:.12f}")

# The distance to the optimal vertex does not have to shrink monotonically:
jstar = int(np.argmax(lam))
signs = {np.sign(distance_derivative(x0, lam, j, 1.0)) for j in range(n)}
print(f"distance-derivative signs across target vertices at s=1: {sorted(signs)}")
print(f"toward the optimum e_{jstar}: d/ds ||x - e*||^2 = "
      f"{distance_derivative(x0, lam, jstar, 1.0):+.4f}")
