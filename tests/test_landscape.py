import numpy as np
import pytest

from motc.bench import (
    build_model_system, build_observable_set, build_rank_truncated_state, sample_random_field,
)
from motc.dynamics import ControlField, StateSpec, expectations, propagate, pure_state
from motc.landscape import (
    ObservableSet,
    analytic_purestate_flow,
    gradient_field,
    kinematic_flow,
    kinematic_maximizer,
    natural_basis_dimension,
    natural_basis_functions,
    natural_basis_rank,
    single_observable_gradients,
    unitary_gradient,
)
from motc.linalg import herm_to_vec
from motc.tracking import gramian_unitary

from conftest import expi, random_hermitian, random_unitary


def fd_gradient_at(system, state, oset, field, indices, step=1e-5):
    """Central finite differences of Phi_M under per-sample bumps, divided by
    the trapezoidal weights (the stated oracle convention)."""
    w = system.quadrature_weights
    out = {}
    for j in indices:
        up, dn = field.samples.copy(), field.samples.copy()
        up[j] += step
        dn[j] -= step
        phi_up = expectations(propagate(system, ControlField(up)), state, oset)
        phi_dn = expectations(propagate(system, ControlField(dn)), state, oset)
        out[j] = float((phi_up - phi_dn).sum()) / (2 * step * w[j])
    return out


class TestObjectives:
    """Phi_M = sum_k Phi_k over an independent set of observables."""

    def test_dependent_observables_rejected(self):
        ops = np.array([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(ValueError, match="dependent"):
            ObservableSet(ops)

    def test_weights_fold_into_operators(
        self, small_system, small_field, rank7_state, observable_set
    ):
        # sum_k alpha_k Phi_k is the objective of the operators alpha_k Theta_k.
        prop = propagate(small_system, small_field)
        alpha = np.array([0.7, 1.3, 2.0, 0.1])
        plain = observable_set.subset(4)
        scaled = ObservableSet(alpha[:, None, None] * plain.operators)
        singles = single_observable_gradients(prop, rank7_state, plain)
        g = gradient_field(prop, rank7_state, scaled)
        assert np.abs(g - alpha @ singles).max() <= 1e-12 * max(1.0, np.abs(g).max())
        phi = expectations(prop, rank7_state, plain)
        phi_scaled = expectations(prop, rank7_state, scaled).sum()
        assert phi_scaled == pytest.approx(alpha @ phi, abs=1e-13)


class TestGradientField:
    def test_maximally_mixed_state_zero(self, small_system, small_field, observable_set):
        prop = propagate(small_system, small_field)
        st = StateSpec(np.eye(11) / 11)
        g = gradient_field(prop, st, observable_set)
        assert np.abs(g).max() < 1e-12

    def test_identity_observable_zero(self, small_system, small_field, thermal_state):
        prop = propagate(small_system, small_field)
        g = gradient_field(prop, thermal_state, ObservableSet(np.eye(11)))
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize("state_name", ["pure", "thermal", "rank7"])
    def test_finite_difference_oracle(
        self, state_name, small_system, small_field, thermal_state, rank7_state, observable_set
    ):
        state = {"pure": pure_state(11, 0), "thermal": thermal_state, "rank7": rank7_state}[
            state_name
        ]
        oset = observable_set.subset(3)
        prop = propagate(small_system, small_field)
        g = gradient_field(prop, state, oset)
        rng = np.random.default_rng(17)
        # Both ends too: dt/w_j is 2 at j = 0, and sample q-1 is inert.
        idx = [0, *rng.choice(small_system.q - 1, size=12, replace=False), small_system.q - 1]
        fd = fd_gradient_at(small_system, state, oset, small_field, idx)
        scale = np.abs(g).max()
        for j, val in fd.items():
            assert abs(g[j] - val) <= 1e-4 * max(abs(val), 1e-3 * scale)

    def test_linearity_in_weights(self, small_system, small_field, rank7_state, observable_set):
        # Phi_M = sum_k Phi_k: its gradient is the sum of the single ones.
        prop = propagate(small_system, small_field)
        oset = observable_set.subset(4)
        g = gradient_field(prop, rank7_state, oset)
        singles = single_observable_gradients(prop, rank7_state, oset)
        assert np.abs(g - singles.sum(axis=0)).max() <= 1e-12

    def test_structural_zero_at_last_sample(self, small_system, small_field, rank7_state, observable_set):
        prop = propagate(small_system, small_field)
        g = gradient_field(prop, rank7_state, observable_set)
        assert g[-1] == 0.0


class TestUnitaryGradient:
    def test_commuting_critical_point(self, thermal_state, observable_set):
        # Diagonal V, diagonal Theta, diagonal rho: gradient vanishes.
        v = np.diag(np.exp(1j * np.linspace(0, 1, 11)))
        g = unitary_gradient(v, thermal_state, observable_set.subset(1))
        assert np.abs(g).max() < 1e-14

    def test_maximally_mixed_zero(self, observable_set, rng):
        st = StateSpec(np.eye(11) / 11)
        g = unitary_gradient(random_unitary(11, rng), st, observable_set)
        assert np.abs(g).max() < 1e-14

    def test_tangency(self, rank7_state, observable_set, rng):
        v = random_unitary(11, rng)
        g = unitary_gradient(v, rank7_state, observable_set)
        skew = v.conj().T @ g
        assert np.abs(skew + skew.conj().T).max() < 1e-10

    def test_directional_derivative(self, rank7_state, observable_set, rng):
        # Phi_M(V exp(eps V^dag G)) - Phi_M(V) ~ eps ||G||_F^2.
        v = random_unitary(11, rng)
        oset = observable_set.subset(2)
        g = unitary_gradient(v, rank7_state, oset)
        theta_m = oset.operators.sum(axis=0)

        def phi_of(u):
            return np.trace(u @ rank7_state.rho0 @ u.conj().T @ theta_m).real

        # B = V^dag G is skew-Hermitian: exp(eps B) = exp(-i eps H), H = iB.
        eps = 1e-6
        b = v.conj().T @ g
        moved = v @ expi(1j * b, eps)
        dphi = phi_of(moved) - phi_of(v)
        assert dphi == pytest.approx(eps * np.linalg.norm(g) ** 2, rel=1e-4)


class TestKinematicFlow:
    def test_constant_at_critical_point(self, thermal_state, observable_set):
        v0 = np.eye(11, dtype=complex)
        res = kinematic_flow(v0, thermal_state, observable_set.subset(1), s_max=1.0)
        assert res.converged
        assert len(res.s) == 1

    def test_pure_state_terminal_is_max_eigenvalue(self, rng):
        lam = np.sort(rng.uniform(0, 1, 6))
        lam[-1] = lam[-2] + 0.3  # keep the top gap healthy
        theta = np.diag(lam)
        oset = ObservableSet(theta)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        st = StateSpec(np.outer(psi, psi.conj()))
        res = kinematic_flow(np.eye(6, dtype=complex), st, oset, s_max=200.0, ds=0.05, ds_cap=0.5)
        assert res.phi[-1] == pytest.approx(lam[-1], abs=1e-5)

    def test_phi_nondecreasing(self, rank7_state, observable_set, rng):
        v0 = random_unitary(11, rng)
        res = kinematic_flow(v0, rank7_state, observable_set.subset(1), s_max=5.0, ds=0.05)
        assert np.all(np.diff(res.phi) >= 0)

    def test_matches_closed_form(self, rng):
        n = 11
        lam = rng.uniform(0, 1, n)
        x0 = rng.uniform(0.05, 1, n)
        x0 /= x0.sum()
        psi0 = np.sqrt(x0)
        st = StateSpec(np.outer(psi0, psi0))
        oset = ObservableSet(np.diag(lam))
        res = kinematic_flow(np.eye(n, dtype=complex), st, oset, s_max=5.0, ds=0.01, grad_tol=0.0)
        worst = 0.0
        for s, v in zip(res.s, res.v):
            xs = np.abs(v @ psi0) ** 2
            worst = max(worst, np.abs(xs - analytic_purestate_flow(x0, lam, s)).max())
        assert worst <= 1e-6


class TestKinematicMaximizer:
    """W = V_Theta D V_rho^dag in closed form, D block-unitary over the
    degenerate eigenspaces of rho: exact maximum, nearest to U0."""

    @pytest.fixture(params=["pure", "thermal", "rank7"])
    def state(self, request, small_system, thermal_state, rank7_state):
        # pure: a 10-fold zero cluster; rank7: a 4-fold one; thermal: none.
        return {
            "pure": build_rank_truncated_state(small_system, 1),
            "thermal": thermal_state,
            "rank7": rank7_state,
        }[request.param]

    @staticmethod
    def _maximizers(state, theta, rng, count, near=None):
        """count maximizers V_Theta D' V_rho^dag with random block-unitary D',
        or, given a maximizer ``near``, with D' its D times a block rotation
        by at most 0.01 rad."""
        p, v_rho = np.linalg.eigh(state.rho0)
        _, v_theta = np.linalg.eigh(theta)
        edges = [0, *(np.flatnonzero(np.diff(p) > 1e-8) + 1), p.size]
        for _ in range(count):
            d = np.zeros((p.size, p.size), dtype=complex)
            for lo, hi in zip(edges, edges[1:]):
                block = random_hermitian(hi - lo, rng)
                rotation = expi(block, 0.01 / np.abs(np.linalg.eigvalsh(block)).max())
                d[lo:hi, lo:hi] = random_unitary(hi - lo, rng) if near is None else rotation
            if near is not None:
                d = v_theta.conj().T @ near @ v_rho @ d
            yield v_theta @ d @ v_rho.conj().T

    @pytest.mark.parametrize(
        "rank,edges", [(1, (0, 10, 11)), (7, (0, 4, 5, 6, 7, 8, 9, 10, 11))]
    )
    def test_model_state_clusters(self, small_system, rank, edges):
        # The blocks the maximizer takes polar factors over: rho's kernel,
        # then one block per (nondegenerate) nonzero population.
        assert build_rank_truncated_state(small_system, rank).cluster_edges == edges

    def test_attains_trace_bound(self, state, observable_set, rng):
        theta = observable_set.operators[0]
        w = kinematic_maximizer(random_unitary(11, rng), state, theta)
        bound = np.sort(np.linalg.eigvalsh(state.rho0)) @ np.sort(np.linalg.eigvalsh(theta))
        assert expectations(w, state, observable_set.subset(1))[0] == pytest.approx(bound, abs=1e-12)
        assert np.linalg.norm(w.conj().T @ w - np.eye(11)) <= 1e-12

    def test_maximizer_returned(self, state, observable_set, rng):
        theta = observable_set.operators[0]
        (u0,) = self._maximizers(state, theta, rng, 1)
        assert np.abs(kinematic_maximizer(u0, state, theta) - u0).max() <= 1e-12

    def test_nearest_to_u0(self, state, observable_set, rng):
        theta = observable_set.operators[0]
        u0 = random_unitary(11, rng)
        w = kinematic_maximizer(u0, state, theta)
        best = np.linalg.norm(u0 - w)
        far = [np.linalg.norm(u0 - v) for v in self._maximizers(state, theta, rng, 20)]
        near = [np.linalg.norm(u0 - v) for v in self._maximizers(state, theta, rng, 20, near=w)]
        assert best <= min(far) and best <= min(near)

    def test_rejects_nonunitary(self, thermal_state, observable_set):
        with pytest.raises(ValueError, match="unitary"):
            kinematic_maximizer(2 * np.eye(11), thermal_state, observable_set.operators[0])


class TestAnalyticFlow:
    def test_basis_vector_fixed_point(self):
        x0 = np.zeros(5)
        x0[2] = 1.0
        lam = np.linspace(0, 1, 5)
        for s in (0.0, 1.0, 10.0):
            assert np.allclose(analytic_purestate_flow(x0, lam, s), x0)

    def test_two_level_closed_form(self):
        lam = np.array([0.0, 1.0])
        x0 = np.array([0.5, 0.5])
        for s in (0.1, 1.0, 3.0):
            x = analytic_purestate_flow(x0, lam, s)
            expected = np.array([1.0, np.exp(2 * s)]) / (1.0 + np.exp(2 * s))
            assert np.allclose(x, expected, atol=1e-12)

    def test_asymptotic_limit(self, rng):
        lam = np.array([0.2, 0.9, 0.1, 0.5])
        x0 = np.array([0.25, 0.25, 0.25, 0.25])
        x = analytic_purestate_flow(x0, lam, 60.0)
        assert x[1] == pytest.approx(1.0, abs=1e-9)

    def test_simplex_invariants(self, rng):
        lam = rng.uniform(0, 1, 8)
        x0 = rng.uniform(0, 1, 8)
        x0 /= x0.sum()
        for s in np.linspace(0, 50, 11):
            x = analytic_purestate_flow(x0, lam, s)
            assert abs(x.sum() - 1.0) <= 1e-12
            assert np.all(x >= 0) and np.all(x <= 1.0 + 1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="negative"):
            analytic_purestate_flow(np.array([-0.1, 1.1]), np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="sums"):
            analytic_purestate_flow(np.array([0.4, 0.4]), np.array([0.0, 1.0]), 1.0)


class TestNaturalBasis:
    def test_dimension_formula_examples(self):
        pure = pure_state(11, 0)
        assert natural_basis_dimension(pure) == 20
        full = StateSpec(np.diag(np.arange(1, 12) / 66.0))
        assert natural_basis_dimension(full) == 110
        lam = np.concatenate([np.arange(1, 8) / 28.0, np.zeros(4)])
        rank7 = StateSpec(np.diag(lam))
        assert natural_basis_dimension(rank7) == 98

    def test_degenerate_spectrum_counts(self):
        rho = np.diag([0.25, 0.25, 0.5, 0.0])
        st = StateSpec(rho)
        # n=3, degeneracies (2, 1): D = 3(2*4-3) - (4+1) = 10
        assert natural_basis_dimension(st) == 10

    def test_spans_exact_gradients(self, small_system, small_field, rank7_state, observable_set):
        # The basis functions come from the same step-averaged dipole as the
        # exact discrete gradients, so each gradient lies in their span.
        prop = propagate(small_system, small_field)
        fam = natural_basis_functions(prop, rank7_state)
        grads = single_observable_gradients(prop, rank7_state, observable_set)
        coef = np.linalg.lstsq(fam.T, grads.T, rcond=None)[0]
        resid = np.linalg.norm(fam.T @ coef - grads.T, axis=0) / np.linalg.norm(grads, axis=1)
        assert resid.max() <= 1e-10

    @pytest.mark.parametrize("rank,expected", [(1, 20), (7, 98), (11, 110)])
    def test_gram_rank_oracle(self, rank, expected):
        # Longer controllable horizon: the basis functions decorrelate and the
        # Gram spectrum has a usable gap at the 1e-8 relative threshold.
        sys_ = build_model_system(11, t_final=400.0, q=2048)
        field = sample_random_field(sys_, np.random.default_rng(3))
        prop = propagate(sys_, field)
        if rank == 1:
            state = pure_state(11, 0)
        else:
            state = build_rank_truncated_state(sys_, rank)
        fam = natural_basis_functions(prop, state)
        assert fam.shape[0] == natural_basis_dimension(state)
        assert natural_basis_rank(prop, state) == expected


class TestFMatrix:
    """The projected-gradient-flow kernel F on U(N) is the unitary-tracking
    Gramian G."""

    def test_symmetry_and_psd(self, small_system, small_field):
        prop = propagate(small_system, small_field)
        f = gramian_unitary(prop).matrix
        assert np.abs(f - f.T).max() <= 1e-10
        assert np.linalg.eigvalsh(f).min() >= -1e-8 * np.abs(f).max()

    def test_chain_rule_composition(self, small_system, small_field, rank7_state, observable_set):
        # F (gradient frame coordinates) equals the direct quadrature of the
        # basis samples against the dynamical gradient.
        prop = propagate(small_system, small_field)
        oset = observable_set.subset(3)
        u = prop.final
        theta_m = oset.operators.sum(axis=0)
        theta_t = u.conj().T @ theta_m @ u
        p = -1j * (theta_t @ rank7_state.rho0 - rank7_state.rho0 @ theta_t)
        vp = herm_to_vec(p)
        b = herm_to_vec(prop.dipoles)
        a_m = gradient_field(prop, rank7_state, oset)
        direct = b.T @ (prop.weights * a_m)
        chained = gramian_unitary(prop).matrix @ vp
        assert np.abs(chained - direct).max() <= 1e-10 * max(1.0, np.abs(direct).max())
