import numpy as np
import pytest

from motc.dynamics import ControlField
from motc.errors import ConsistencyError, StallError
from motc.integrate import FlowProblem, euler_integrate, rkck_adaptive


def make_problem(rhs, q=32, s_span=(0.0, 1.0), **kw):
    return FlowProblem(rhs=rhs, s_span=s_span, initial=ControlField(np.zeros(q)), **kw)


class Trajectory:
    """Observer recording every accepted (s, field); never stops a run."""

    def __init__(self):
        self.s, self.fields = [], []

    def __call__(self, s, control):
        self.s.append(s)
        self.fields.append(control.samples.copy())


class TestEuler:
    def test_zero_rhs(self):
        rep = euler_integrate(make_problem(lambda s, f: np.zeros(32)), ds=0.1)
        assert np.all(rep.final_field.samples == 0.0)
        assert rep.accepted_steps == 10

    def test_constant_rhs_exact(self):
        c = np.linspace(-1, 1, 32)
        rep = euler_integrate(make_problem(lambda s, f: c, s_span=(0.0, 2.0)), ds=0.25)
        assert np.allclose(rep.final_field.samples, 2.0 * c, atol=1e-14)

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
            errs.append(abs(rep.final_field.samples[0] - exact(1.0)))
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
        assert calls[-1] == pytest.approx(0.5)
        assert np.allclose(rep.final_field.samples, 0.5)

    def test_max_steps_termination(self):
        # The step budget ends the run short of s1 and says so; no error.
        seen = Trajectory()
        problem = make_problem(lambda s, f: np.ones(32), max_steps=3)
        rep = euler_integrate(problem, ds=0.1, observer=seen)
        assert rep.termination == "max_steps"
        assert rep.counts == (3, 0, 3)
        assert seen.s == pytest.approx([0.1, 0.2, 0.3])
        assert np.array_equal(rep.final_field.samples, seen.fields[-1])

    def test_max_steps_reached_at_the_end_completes(self):
        rep = euler_integrate(make_problem(lambda s, f: np.ones(32), max_steps=4), ds=0.25)
        assert rep.termination == "completed" and rep.accepted_steps == 4

    def test_step_count_from_span(self):
        # 10 000 steps of 1e-4 end exactly at s = 1: the accumulated s falls
        # short of 1 by roundoff, which must not cost a step of its own.
        seen = []
        rep = euler_integrate(
            make_problem(lambda s, f: np.zeros(4), q=4), ds=1e-4,
            observer=lambda s, control: seen.append(s),
        )
        assert rep.counts == (10_000, 0, 10_000)
        assert len(seen) == 10_000 and seen[-1] == 1.0

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

    @pytest.mark.parametrize("ds", [0.0, -0.1, 1e-310], ids=["zero", "negative", "span-overflow"])
    def test_bad_step_rejected(self, ds):
        # 1 / 1e-310 overflows to inf: no step count exists for the span.
        with pytest.raises(ValueError, match="ds must be positive"):
            euler_integrate(make_problem(lambda s, f: np.zeros(32)), ds=ds)


@pytest.mark.parametrize(
    "integrate,counts,s",
    [
        # The third evaluation gives the third step's field.
        (lambda problem: euler_integrate(problem, ds=0.1), (2, 0, 3), "0.3"),
        # The third evaluation is stage 2 of the first attempt, whose
        # stage 3 field at s = 3/5 * 0.01 is the first non-finite one.
        (rkck_adaptive, (0, 0, 3), "0.006"),
    ],
    ids=["euler", "rkck"],
)
def test_non_finite_field_raises_with_counts(integrate, counts, s):
    calls = []

    def rhs(s, field):
        calls.append(s)
        return np.full(32, np.inf if len(calls) >= 3 else 1.0)

    with pytest.raises(ConsistencyError, match=f"non-finite field at s = {s}$") as err:
        integrate(make_problem(rhs))
    assert err.value.counts == counts


def test_rkck_non_finite_error_estimate_raises_with_counts():
    # The sixth evaluation is the first attempt's last stage, which builds
    # no field: only the error estimate sees its NaN.  It is no rejection,
    # which would shrink the step and retry from the same state.
    calls = []

    def rhs(s, field):
        calls.append(s)
        return np.full(8, np.nan if len(calls) == 6 else 1.0)

    with pytest.raises(ConsistencyError, match="NaN error estimate at s = 0$") as err:
        rkck_adaptive(make_problem(rhs, q=8))
    assert err.value.counts == (0, 0, 6)


def test_rkck_infinite_error_estimate_rejects():
    # A huge but finite last stage overflows the squared scaled error to
    # inf: the attempt is rejected and retried with the largest shrink, as
    # any attempt with err > 1, and the run goes on.
    calls = []

    def rhs(s, field):
        calls.append(s)
        return np.full(8, 1e200 if len(calls) == 6 else 1.0)

    with np.errstate(over="ignore"):
        report = rkck_adaptive(make_problem(rhs, q=8))
    assert report.termination == "completed"
    assert report.rejected_steps == 1
    # The retry starts from s = 0 with a tenth of the first step.
    assert calls[6] == pytest.approx(0.2 * 0.001)
    assert np.all(np.isfinite(report.final_field.samples))


class TestRkckAdaptive:
    def test_constant_rhs_no_rejections(self):
        c = np.full(16, 0.3)
        rep = rkck_adaptive(make_problem(lambda s, f: c, q=16))
        assert rep.termination == "completed"
        assert rep.rejected_steps == 0
        assert np.allclose(rep.final_field.samples, 0.3, atol=1e-12)

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
        err = np.abs(rep.final_field.samples - eps0 * np.exp(-3.0)).max()
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

        accepted = Trajectory()
        rep = rkck_adaptive(make_problem(rhs, q=4, s_span=(0.0, 1.5)), observer=accepted)
        assert all(0.0 <= s <= 1.5 + 1e-12 for s in seen)
        assert seen[0] == 0.0 and accepted.s[-1] == pytest.approx(1.5)
        assert len(accepted.s) == rep.accepted_steps
        assert np.all(np.diff([0.0, *accepted.s]) > 0)
        assert np.array_equal(rep.final_field.samples, accepted.fields[-1])

    def test_determinism(self):
        def rhs(s, field):
            return np.sin(s) - 0.3 * field.samples

        runs = [Trajectory() for _ in range(2)]
        reps = [rkck_adaptive(make_problem(rhs, q=8), observer=run) for run in runs]
        assert np.array_equal(runs[0].s, runs[1].s)
        assert np.array_equal(runs[0].fields, runs[1].fields)
        assert np.array_equal(reps[0].final_field.samples, reps[1].final_field.samples)

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
        # Five stages per attempt, plus k[0] once per state an attempt starts
        # from: the initial one and every accepted one (the last attempt was
        # rejected, so each accepted state was followed by another attempt).
        assert rejected > 0 and n_eval == 5 * (accepted + rejected) + accepted + 1

    def test_rejection_keeps_first_stage(self):
        # Every stage of every attempt is at its own (s, eps) except k[0]
        # after a rejection, which the next attempt reuses instead of
        # evaluating it again.
        calls = []

        def rhs(s, field):
            calls.append((s, field.samples.tobytes()))
            return np.cos(30 * s) * np.ones(4) + 0.1 * field.samples

        rep = rkck_adaptive(make_problem(rhs, q=4))
        accepted, rejected, n_eval = rep.counts
        assert rep.termination == "completed" and rejected > 0
        assert len(set(calls)) == len(calls) == n_eval
        # The final accepted state starts no attempt.
        assert n_eval == 5 * (accepted + rejected) + accepted

    def test_max_steps_termination(self):
        # The step budget ends the run short of s1 and says so; no error.
        accepted = Trajectory()
        problem = make_problem(lambda s, f: np.cos(5 * s) * np.ones(4), q=4, max_steps=3)
        rep = rkck_adaptive(problem, observer=accepted)
        assert rep.termination == "max_steps"
        assert rep.accepted_steps + rep.rejected_steps == 3
        assert accepted.s[-1] < 1.0

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
        assert np.abs(e.final_field.samples - r.final_field.samples).max() <= 1e-3

