import numpy as np
import pytest

from motc.bench import build_model_system, build_observable_set, sample_random_field
from motc.dynamics import ControlField, expectations, propagate
from motc.errors import BranchBoundaryError, ConsistencyError, SingularTrackError
from motc.landscape import gradient_field, single_observable_gradients
from motc.linalg import herm_to_vec, vec_to_herm
from motc.tracking import (
    GramianReport,
    free_function_min_fluence,
    geodesic_target_observables,
    geodesic_target_unitary,
    gramian_motc,
    gramian_unitary,
    linear_target_observables,
    motc_rhs,
    solve_gramian,
)

from conftest import expi, random_unitary


@pytest.fixture(scope="module")
def track_setup():
    """Small 11-level problem with a well-separated target unitary."""
    system = build_model_system(11, t_final=20.0, q=256)
    field = sample_random_field(system, np.random.default_rng(5))
    prop = propagate(system, field)
    rng = np.random.default_rng(21)
    w = random_unitary(11, rng)
    return system, field, prop, w


class TestGeodesicUnitary:
    def test_null_geodesic(self, track_setup):
        _, _, prop, _ = track_setup
        u0 = prop.final
        t = geodesic_target_unitary(u0, u0)
        assert np.abs(t.generator).max() < 1e-10
        assert np.linalg.norm(t.q_of_s(0.7) - u0) < 1e-8

    def test_endpoints(self, track_setup):
        _, _, prop, w = track_setup
        t = geodesic_target_unitary(prop.final, w)
        assert np.linalg.norm(t.q_of_s(0.0) - prop.final) <= 1e-8
        assert np.linalg.norm(t.q_of_s(1.0) - w) <= 1e-8

    def test_constant_speed_pathlength(self, track_setup):
        # int ||dQ/ds||_F ds over [0,1] equals ||A||_F for the geodesic.
        _, _, prop, w = track_setup
        t = geodesic_target_unitary(prop.final, w)
        s_grid = np.linspace(0, 1, 513)
        speeds = np.array([np.linalg.norm(t.dq_ds(s)) for s in s_grid])
        length = np.trapezoid(speeds, s_grid)
        assert length == pytest.approx(np.linalg.norm(t.generator), rel=1e-6)

    def test_derivative_consistent(self, track_setup):
        _, _, prop, w = track_setup
        t = geodesic_target_unitary(prop.final, w)
        h = 1e-6
        fd = (t.q_of_s(0.4 + h) - t.q_of_s(0.4 - h)) / (2 * h)
        assert np.abs(fd - t.dq_ds(0.4)).max() < 1e-6

    def test_branch_boundary_propagates(self):
        u0 = np.eye(4, dtype=complex)
        w = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
        with pytest.raises(BranchBoundaryError):
            geodesic_target_unitary(u0, w)


class TestGeodesicObservables:
    def test_endpoint_values(self, track_setup, rank7_state, observable_set):
        _, _, prop, w = track_setup
        oset = observable_set.subset(4)
        geodesic = geodesic_target_unitary(prop.final, w)
        t = geodesic_target_observables(geodesic, rank7_state, oset)
        assert np.abs(t.w_of_s(0.0) - expectations(prop, rank7_state, oset)).max() <= 1e-10
        rho_w = w @ rank7_state.rho0 @ w.conj().T
        phi_w = np.einsum("ab,kba->k", rho_w, oset.operators).real
        assert np.abs(t.w_of_s(1.0) - phi_w).max() <= 1e-10
        # Interior points: w_s is Phi at the unitary track's Q_s.
        for s in (0.25, 0.5, 0.75):
            phi_q = expectations(geodesic.q_of_s(s), rank7_state, oset)
            assert np.abs(t.w_of_s(s) - phi_q).max() <= 1e-12

    def test_derivative_finite_difference(self, track_setup, rank7_state, observable_set):
        _, _, prop, w = track_setup
        oset = observable_set.subset(4)
        t = geodesic_target_observables(geodesic_target_unitary(prop.final, w), rank7_state, oset)
        h = 1e-6
        for s in (0.0, 0.33, 0.9):
            fd = (t.w_of_s(s + h) - t.w_of_s(s - h)) / (2 * h)
            assert np.abs(fd - t.dw_ds(s)).max() <= 1e-6

    def test_linear_track(self, rank7_state, observable_set):
        t = linear_target_observables(
            np.array([0.0, 1.0]), np.array([1.0, 0.0]), rank7_state, observable_set.subset(2)
        )
        assert np.allclose(t.w_of_s(0.25), [0.25, 0.75])
        assert np.allclose(t.dw_ds(0.5), [1.0, -1.0])


class TestAVector:
    def test_maximally_mixed_zero(self, track_setup, observable_set):
        from motc.dynamics import StateSpec

        _, _, prop, _ = track_setup
        st = StateSpec(np.eye(11) / 11)
        a = single_observable_gradients(prop, st, observable_set)
        assert np.abs(a).max() < 1e-12

    def test_identity_observable_row_zero(self, track_setup, rank7_state, observable_set):
        from motc.landscape import ObservableSet

        _, _, prop, _ = track_setup
        ops = np.concatenate([np.eye(11)[None], observable_set.operators[:2]])
        a = single_observable_gradients(prop, rank7_state, ObservableSet(ops))
        assert np.abs(a[0]).max() < 1e-12
        assert np.abs(a[1]).max() > 0

    def test_rows_equal_single_gradients(self, track_setup, rank7_state, observable_set):
        from motc.landscape import ObservableSet

        _, _, prop, _ = track_setup
        a = single_observable_gradients(prop, rank7_state, observable_set)
        for k in (0, 4, 9):
            single = ObservableSet(observable_set.operators[k][None])
            g = gradient_field(prop, rank7_state, single)
            assert np.abs(a[k] - g).max() <= 1e-12


class TestGramians:
    def test_zero_a(self):
        rep = gramian_motc(np.zeros((3, 16)), np.full(16, 0.1))
        assert np.abs(rep.matrix).max() == 0.0
        assert rep.condition == np.inf

    def test_m1_scalar_fluence_identity(self, track_setup, rank7_state, observable_set):
        _, _, prop, _ = track_setup
        a = single_observable_gradients(prop, rank7_state, observable_set.subset(1))
        rep = gramian_motc(a, prop.weights)
        gamma = float(((a[0] ** 2) * prop.weights).sum())
        assert rep.matrix[0, 0] == pytest.approx(gamma, rel=1e-12)
        assert gamma >= 0
        g = gradient_field(prop, rank7_state, observable_set.subset(1))
        assert rep.matrix[0, 0] == pytest.approx(float((g**2 * prop.weights).sum()), rel=1e-10)

    def test_scale_covariance(self, track_setup, rank7_state, observable_set):
        _, _, prop, _ = track_setup
        a = single_observable_gradients(prop, rank7_state, observable_set.subset(3))
        r1 = gramian_motc(a, prop.weights)
        r2 = gramian_motc(2.5 * a, prop.weights)
        assert np.allclose(r2.matrix, 2.5**2 * r1.matrix)
        assert r2.condition == pytest.approx(r1.condition, rel=1e-10)

    def test_gramian_unitary_psd_symmetric(self, track_setup):
        _, _, prop, _ = track_setup
        rep = gramian_unitary(prop)
        assert rep.matrix.shape == (121, 121)
        assert np.abs(rep.matrix - rep.matrix.T).max() <= 1e-10
        assert np.linalg.eigvalsh(rep.matrix).min() >= -1e-8 * rep.singular_values[0]

    def test_gramian_exactly_symmetric(self, track_setup):
        # G = b b^T with b = a sqrt(w) is one symmetric rank-k update:
        # exactly symmetric, and the quadrature sum of outer products.
        _, _, prop, _ = track_setup
        a = herm_to_vec(prop.dipoles).T
        g = gramian_unitary(prop).matrix
        assert np.array_equal(g, g.T)
        expected = sum(w * np.outer(col, col) for w, col in zip(prop.weights, a.T))
        assert np.abs(g - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_rank_bound_when_grid_small(self):
        sys_ = build_model_system(11, t_final=5.0, q=64)  # q < N^2
        prop = propagate(sys_, sample_random_field(sys_, np.random.default_rng(1)))
        rep = gramian_unitary(prop)
        rank = int((rep.singular_values > 1e-12 * rep.singular_values[0]).sum())
        assert rank <= 64
        # exact zeros become roundoff in the SVD: numerically singular
        assert rep.condition > 1e15

    def test_thermal_gamma_condition_range(self, model_system, observable_set):
        # Single shipped-seed sample of the survey statistic.
        from motc.bench import build_rank_truncated_state

        field = sample_random_field(model_system, np.random.default_rng(2008))
        prop = propagate(model_system, field)
        st = build_rank_truncated_state(model_system, 11, 1.0)
        rep = gramian_motc(single_observable_gradients(prop, st, observable_set), prop.weights)
        assert 1e3 <= rep.condition <= 1e8


class TestFreeFunction:
    def test_zero_field(self):
        assert np.all(free_function_min_fluence(np.zeros(8), 1.0) == 0.0)

    def test_unit_parameters(self, rng):
        eps = rng.standard_normal(16)
        assert np.allclose(free_function_min_fluence(eps, 1.0), -eps)

    def test_eta_scaling(self, rng):
        eps = rng.standard_normal(16)
        f1 = free_function_min_fluence(eps, 1.0)
        f2 = free_function_min_fluence(eps, 2.0)
        assert np.allclose(f2, f1 / 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            free_function_min_fluence(np.ones(4), 0.0)


class TestSolvePolicy:
    def test_zero_gramian_raises(self):
        # Gamma = 0 has an empty range: no rate can be followed.
        rep = gramian_motc(np.zeros((2, 8)), np.full(8, 0.1))
        with pytest.raises(SingularTrackError, match="unreachable"):
            solve_gramian(rep, np.ones(2))

    def test_well_conditioned_matches_lu(self, rng):
        # Nothing is truncated: the SVD solve is the exact one.
        a = rng.standard_normal((6, 40))
        rep = gramian_motc(a, np.full(40, 0.1))
        assert rep.condition < 1e4
        b = rng.standard_normal(6)
        expected = np.linalg.solve(rep.matrix, b)
        x = solve_gramian(rep, b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_regularized_above_strict_cap(self):
        # Condition ~1e12: solved via truncation without error.
        m = np.diag([1.0, 1e-12])
        rep = GramianReport(
            matrix=m,
            singular_values=np.array([1.0, 1e-12]),
            condition=1e12,
            _u=np.eye(2),
            _vt=np.eye(2),
        )
        x = solve_gramian(rep, np.array([1.0, 0.0]))
        assert np.allclose(x, [1.0, 0.0])

    def test_residual_check_covers_every_solve(self):
        # A right-hand side that lies in the truncated direction has no
        # usable solution.
        rep = GramianReport(
            matrix=np.diag([1.0, 1e-13]),
            singular_values=np.array([1.0, 1e-13]),
            condition=1e13,
            _u=np.eye(2),
            _vt=np.eye(2),
        )
        with pytest.raises(SingularTrackError, match="unreachable"):
            solve_gramian(rep, np.array([0.0, 1.0]))


class TestMotcRhs:
    def test_stationary_track_zero(self, track_setup, rank7_state, observable_set):
        _, _, prop, _ = track_setup
        oset = observable_set.subset(3)
        phi = expectations(prop, rank7_state, oset)
        target = linear_target_observables(phi, phi, rank7_state, oset)  # dw/ds = 0, on-track
        out = motc_rhs(target, prop, 0.0, beta=10.0)
        assert np.abs(out).max() < 1e-10

    def test_m1_scalar_reduction(self, track_setup, rank7_state, observable_set):
        # The generic solve must reproduce the scalar formula
        # f + (a/gamma) (dP/ds + c - int a f dt) exactly.
        system, field, prop, _ = track_setup
        oset = observable_set.subset(1)
        target = linear_target_observables(np.array([0.1]), np.array([0.9]), rank7_state, oset)
        rng = np.random.default_rng(8)
        f = 0.1 * rng.standard_normal(system.q)
        beta = 10.0
        out = motc_rhs(target, prop, 0.3, free=f, beta=beta)
        a = single_observable_gradients(prop, rank7_state, oset)[0]
        gamma = float((a * a * prop.weights).sum())
        phi = expectations(prop, rank7_state, oset)
        c = beta * (target.w_of_s(0.3) - phi)[0]
        dp = target.dw_ds(0.3)[0]
        scalar = f + (a / gamma) * (dp + c - float((a * f * prop.weights).sum()))
        assert np.abs(out - scalar).max() <= 1e-12 * max(1.0, np.abs(scalar).max())

    @pytest.mark.parametrize(
        "scale,name", [(np.inf, "free function"), (1e300, "Gramian right-hand side")]
    )
    def test_non_finite_input_raises(self, track_setup, rank7_state, observable_set, scale, name):
        # An infinite free function, or a finite one whose right-hand side
        # overflows in its squared norm, fails before the solve.
        system, _, prop, _ = track_setup
        oset = observable_set.subset(2)
        phi = expectations(prop, rank7_state, oset)
        target = linear_target_observables(phi, phi + 0.1, rank7_state, oset)
        with pytest.raises(ConsistencyError, match=f"non-finite {name} at s = 0.3"):
            motc_rhs(target, prop, 0.3, free=np.full(system.q, scale))

    def test_least_norm_in_row_space(self, track_setup, rank7_state, observable_set):
        _, _, prop, _ = track_setup
        oset = observable_set.subset(4)
        target = linear_target_observables(np.zeros(4), np.ones(4) / 10, rank7_state, oset)
        out = motc_rhs(target, prop, 0.5)
        a = single_observable_gradients(prop, rank7_state, oset)
        # Residual of projecting out the row space must vanish.
        coeff, *_ = np.linalg.lstsq(a.T, out, rcond=None)
        assert np.linalg.norm(out - coeff @ a) <= 1e-8 * np.linalg.norm(out)

    def test_first_order_consistency(self, track_setup, rank7_state, observable_set):
        system, field, prop, w = track_setup
        oset = observable_set.subset(2)
        geodesic = geodesic_target_unitary(prop.final, w)
        target = geodesic_target_observables(geodesic, rank7_state, oset)
        out = motc_rhs(target, prop, 0.0)
        ds = 1e-3
        prop2 = propagate(system, ControlField(field.samples + ds * out))
        dphi = expectations(prop2, rank7_state, oset) - expectations(prop, rank7_state, oset)
        pred = ds * target.dw_ds(0.0)
        assert np.abs(dphi - pred).max() <= 5e-2 * np.abs(pred).max()


class TestUnitaryRhs:
    def test_stationary_on_track_zero(self, track_setup):
        _, _, prop, _ = track_setup
        u0 = prop.final
        target = geodesic_target_unitary(u0, u0)  # A = 0: dQ/ds = 0, on track
        out = motc_rhs(target, prop, 0.0, beta=10.0)
        assert np.abs(out).max() < 1e-8

    @pytest.mark.parametrize("c", [0.5, 1e-10])
    def test_unreachable_direction_raises(self, track_setup, c):
        # The residual floor must leave the reachability check on: a track
        # whose tangent at s=0 is G's weakest direction cannot be followed,
        # whether its size is O(1) or far below any real track but above
        # roundoff.
        _, _, prop, _ = track_setup
        u0 = prop.final
        n = u0.shape[0]
        u_svd, _, _ = np.linalg.svd(gramian_unitary(prop).matrix)
        h = vec_to_herm(c * u_svd[:, -1], n)
        w = u0 @ expi(h, theta=-1.0)  # U0 exp(iH)
        target = geodesic_target_unitary(u0, w)
        with pytest.raises(SingularTrackError, match="unreachable"):
            motc_rhs(target, prop, 0.0)

    def test_correction_vanishes_on_track(self, track_setup):
        from motc.linalg import log_unitary_principal

        _, _, prop, w = track_setup
        target = geodesic_target_unitary(prop.final, w)
        # At s=0 the track passes exactly through U_s(T): the correction
        # generator is the log of the identity (up to roundoff).
        c = log_unitary_principal(prop.final.conj().T @ target.q_of_s(0.0))
        assert np.abs(c).max() < 1e-10

    def test_first_order_consistency(self):
        # Well-conditioned regime (N=3): strict solves, clean O(ds^2) scaling.
        system = build_model_system(3, t_final=30.0, q=256)
        field = sample_random_field(system, np.random.default_rng(4))
        prop = propagate(system, field)
        w = random_unitary(3, np.random.default_rng(40))
        target = geodesic_target_unitary(prop.final, w)
        out = motc_rhs(target, prop, 0.0)
        errs = []
        for ds in (2e-3, 1e-3, 5e-4):
            prop2 = propagate(system, ControlField(field.samples + ds * out))
            errs.append(
                np.linalg.norm(prop2.final - (prop.final + ds * target.dq_ds(0.0)))
            )
        # halving ds should cut the defect ~4x
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_unitary_as_motc_special_case(self):
        # Assemble the same linear problem through the public MOTC pieces:
        # a-rows = dipole basis samples, dw/ds = frame coordinates of dQ/ds.
        system = build_model_system(3, t_final=30.0, q=256)
        field = sample_random_field(system, np.random.default_rng(4))
        prop = propagate(system, field)
        w = random_unitary(3, np.random.default_rng(40))
        target = geodesic_target_unitary(prop.final, w)
        direct = motc_rhs(target, prop, 0.2)

        b = herm_to_vec(prop.dipoles)  # (q, N^2) basis samples
        a = b.T  # each row: one propagator-coordinate "observable" gradient
        rep = gramian_motc(a, prop.weights)
        delta = -1j * (prop.final.conj().T @ target.dq_ds(0.2))
        dw = herm_to_vec(0.5 * (delta + delta.conj().T))
        x = solve_gramian(rep, dw)
        via_motc = x @ a
        assert np.abs(direct - via_motc).max() <= 1e-8 * max(1.0, np.abs(direct).max())
