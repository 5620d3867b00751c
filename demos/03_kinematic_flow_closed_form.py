"""The kinematic maximum of an observable on U(N), in closed form.

By von Neumann's trace inequality, Phi(W) = Tr(W rho W^dag Theta) is at most
sum_k p_k lambda_k, the populations of rho and the eigenvalues of Theta both
taken in ascending order.  ``kinematic_maximizer`` returns the unitary that
attains this bound nearest a given start U0, the closed form of the critical
point the double-bracket gradient flow on U(N) ascends to.  Three checks: the
maximizer attains the bound, the gradient of Phi on U(N) vanishes there, and
random unitaries stay below the bound.
"""

import numpy as np

from motc import expectations, kinematic_maximizer, propagate, unitary_gradient
from motc.bench import (
    build_model_system,
    build_observable_set,
    build_rank_truncated_state,
    sample_random_field,
)

rng = np.random.default_rng(3)
system = build_model_system(11, t_final=100.0, q=1024)
state = build_rank_truncated_state(system, 7, 1.0)
oset = build_observable_set(11, 1, rng)
theta = oset.operators[0]

u0 = propagate(system, sample_random_field(system, rng)).final
bound = state.populations @ np.linalg.eigvalsh(theta)
print(f"Phi at U(T) of a random field {expectations(u0, state, oset)[0]:.12f}")

w = kinematic_maximizer(u0, state, theta)
phi_w = expectations(w, state, oset)[0]
print(f"Phi at the closed-form maximizer {phi_w:.12f}, trace bound {bound:.12f}")
print("maximizer attains the bound:", bool(abs(phi_w - bound) <= 1e-12 * max(abs(bound), 1.0)))

grad = np.linalg.norm(unitary_gradient(w, state, oset))
print(f"||[Theta, W rho W^dag] W||_F at the maximizer {grad:.2e}")
print("gradient vanishes at the maximizer:", bool(grad < 1e-10))


def random_unitary(n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


phis = np.array([expectations(random_unitary(system.dim), state, oset)[0] for _ in range(200)])
print(f"Phi over 200 random unitaries: max {phis.max():.6f}, "
      f"below the bound: {bool(phis.max() < bound)}")
