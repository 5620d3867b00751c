import numpy as np
import pytest

from motc.dynamics import ControlField
from motc.errors import ConsistencyError, StallError
from motc.integrate import FlowProblem, euler_integrate, rkck_adaptive


def make_problem(rhs, q=32, s_span=(0.0, 1.0), **kw):
    return FlowProblem(rhs=rhs, s_span=s_span, initial=ControlField(np.zeros(q)), **kw)


class TestEuler:
    def test_zero_rhs(self):
        rep = euler_integrate(make_problem(lambda s, f: np.zeros(32)), ds=0.1)
        assert np.all(rep.fields[-1] == 0.0)
        assert rep.accepted_steps == 10

    def test_constant_rhs_exact(self):
        c = np.linspace(-1, 1, 32)
        rep = euler_integrate(make_problem(lambda s, f: c, s_span=(0.0, 2.0)), ds=0.25)
        assert np.allclose(rep.fields[-1], 2.0 * c, atol=1e-14)

    def test_first_order_convergence(self):
        # eps' = -eps + s has a smooth closed form; halving ds halves error.
        q = 8

        def rhs(s, field):
            return -field.samples + s

        def exact(s):
            return s - 1.0 + np.exp(-s)

        errs = []
        for ds in (0.02, 0.01, 0.005):
            rep = euler_integrate(make_problem(rhs, q=q), ds=ds)
            errs.append(abs(rep.fields[-1][0] - exact(1.0)))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)

    def test_observer_stops(self):
        calls = []

        def observer(s, field):
            calls.append(s)
            return s >= 0.5

        rep = euler_integrate(
            make_problem(lambda s, f: np.ones(32)), ds=0.1, observer=observer
        )
        assert rep.termination == "observer"
        assert rep.s_values[-1] == pytest.approx(0.5)

    def test_error_carries_counts(self):
        calls = []

        def rhs(s, field):
            calls.append(s)
            if len(calls) == 3:
                raise ConsistencyError("third call fails")
            return np.ones(32)

        with pytest.raises(ConsistencyError) as err:
            euler_integrate(make_problem(rhs), ds=0.1)
        assert err.value.counts == (2, 0, 2)


class TestRkckAdaptive:
    def test_constant_rhs_no_rejections(self):
        c = np.full(16, 0.3)
        rep = rkck_adaptive(make_problem(lambda s, f: c, q=16))
        assert rep.termination == "completed"
        assert rep.rejected_steps == 0
        assert np.allclose(rep.fields[-1], 0.3, atol=1e-12)

    def test_exponential_decay_oracle(self):
        # eps(s) = eps0 e^{-s}: global error within 10x the tolerance.
        q = 16
        eps0 = np.linspace(0.5, 2.0, q)
        tol = 1e-8

        def rhs(s, field):
            return -field.samples

        problem = FlowProblem(
            rhs=rhs, s_span=(0.0, 3.0), initial=ControlField(eps0),
            atol=tol, rtol=tol, ds_min=1e-10, ds_max=0.5,
        )
        rep = rkck_adaptive(problem)
        err = np.abs(rep.fields[-1] - eps0 * np.exp(-3.0)).max()
        assert err <= 10 * tol

    def test_step_count_scaling_with_tolerance(self):
        # Order-5 controller: 10x tighter tolerance costs ~10^(1/5) more steps.
        q = 8

        def rhs(s, field):
            return np.sin(3 * s) + field.samples * 0.1

        counts = []
        for tol in (1e-6, 1e-7, 1e-8):
            problem = FlowProblem(
                rhs=rhs, s_span=(0.0, 4.0), initial=ControlField(np.zeros(q)),
                atol=tol, rtol=tol, ds_min=1e-12, ds_max=1.0,
            )
            counts.append(rkck_adaptive(problem).accepted_steps)
        g1 = counts[1] / counts[0]
        g2 = counts[2] / counts[1]
        assert 1.1 < g1 < 2.4 and 1.1 < g2 < 2.4  # 10^(1/5) ~ 1.58

    def test_trajectory_within_span_and_error_control(self):
        seen = []

        def rhs(s, field):
            seen.append(s)
            return np.cos(5 * s) * np.ones(4)

        rep = rkck_adaptive(make_problem(rhs, q=4, s_span=(0.0, 1.5)))
        assert all(0.0 <= s <= 1.5 + 1e-12 for s in seen)
        assert rep.s_values[0] == 0.0 and rep.s_values[-1] == pytest.approx(1.5)
        assert np.all(np.diff(rep.s_values) > 0)

    def test_determinism(self):
        def rhs(s, field):
            return np.sin(s) - 0.3 * field.samples

        reps = [rkck_adaptive(make_problem(rhs, q=8)) for _ in range(2)]
        assert np.array_equal(reps[0].s_values, reps[1].s_values)
        assert np.array_equal(reps[0].fields, reps[1].fields)

    def test_stall_error(self):
        # A discontinuous rhs the controller cannot resolve at ds_min.
        def rhs(s, field):
            return np.sign(np.sin(1000 * s)) * 1e6 * np.ones(4)

        problem = FlowProblem(
            rhs=rhs, s_span=(0.0, 1.0), initial=ControlField(np.zeros(4)),
            atol=1e-12, rtol=1e-12, ds_min=1e-3, ds_max=0.1,
        )
        with pytest.raises(StallError) as err:
            rkck_adaptive(problem)
        assert np.isfinite(err.value.error_estimate)
        accepted, rejected, n_eval = err.value.counts
        assert rejected > 0 and n_eval == 6 * (accepted + rejected)

    def test_max_steps_termination(self):
        # The step budget ends the run short of s1 and says so; no error.
        rep = rkck_adaptive(make_problem(lambda s, f: np.cos(5 * s) * np.ones(4), q=4), max_steps=3)
        assert rep.termination == "max_steps"
        assert rep.accepted_steps + rep.rejected_steps == 3
        assert rep.s_values[-1] < 1.0

    def test_euler_rkck_agreement(self):
        def rhs(s, field):
            return -0.7 * field.samples + np.cos(s)

        q = 8
        init = ControlField(np.full(q, 0.2))
        e = euler_integrate(
            FlowProblem(rhs=rhs, s_span=(0.0, 2.0), initial=init), ds=1e-4
        )
        r = rkck_adaptive(FlowProblem(rhs=rhs, s_span=(0.0, 2.0), initial=init))
        # Euler global error ~ 1e-4 here; rkck must sit well inside it.
        assert np.abs(e.fields[-1] - r.fields[-1]).max() <= 1e-3

