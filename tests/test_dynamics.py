import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from motc.bench import build_model_system, build_rank_truncated_state, sample_random_field
from motc.dynamics import (
    ControlField,
    QuantumSystem,
    StateSpec,
    expectations,
    propagate,
    pure_state,
    zero_field,
)
from motc import dynamics
from motc.bench import experiments
from motc.dynamics import DEGENERACY_TOL
from motc.landscape import ObservableSet, natural_basis_dimension

from conftest import free_evolution_final, propagate_direct, random_hermitian


class TestTypes:
    def test_system_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            QuantumSystem(h0=np.eye(3), mu=np.eye(4))

    def test_system_grid(self):
        sys_ = build_model_system(11, t_final=10.0, q=101)
        assert np.isclose(sys_.dt, 0.1)
        assert sys_.times[0] == 0.0 and sys_.times[-1] == 10.0
        w = sys_.quadrature_weights
        assert np.isclose(w.sum(), 10.0)
        assert w[0] == w[-1] == sys_.dt / 2

    def test_field_validation(self):
        with pytest.raises(ValueError, match="finite"):
            ControlField(np.array([0.0, np.inf]))

    def test_state_metadata(self):
        rho = np.diag([0.5, 0.3, 0.2, 0.0])
        st = StateSpec(rho)
        assert (st.rank, st.degeneracies) == (3, (1, 1, 1))

    def test_state_degenerate_metadata(self):
        rho = np.diag([0.25, 0.25, 0.5, 0.0])
        st = StateSpec(rho)
        assert st.rank == 3
        assert sorted(st.degeneracies) == [1, 2]

    def test_state_derived_metadata(self):
        # Rank, degeneracies and clusters all come from the one spectrum:
        # p = (0, .25, .25, .5) splits into the kernel, a pair and a single.
        st = StateSpec(np.diag([0.5, 0.25, 0.25, 0.0]))
        assert np.allclose(st.populations, [0.0, 0.25, 0.25, 0.5], atol=1e-15)
        assert st.cluster_edges == (0, 1, 3, 4)
        assert (st.rank, st.degeneracies) == (3, (2, 1))
        assert natural_basis_dimension(st) == 10
        # The eigenbasis diagonalizes rho in ascending order.
        v = st.eigenbasis
        assert np.abs(v.conj().T @ st.rho0 @ v - np.diag(st.populations)).max() < 1e-15

    def test_state_near_degenerate_clusters(self):
        # Eigenvalues closer than DEGENERACY_TOL form one cluster; a kernel
        # eigenvalue within it of zero is not counted in the rank.
        tiny = 0.1 * DEGENERACY_TOL
        st = StateSpec(np.diag([0.5 - tiny, 0.5 - 2 * tiny, 3 * tiny, 0.0]))
        assert st.cluster_edges == (0, 2, 4)
        assert (st.rank, st.degeneracies) == (2, (2,))

    def test_state_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            StateSpec(np.diag([0.5, 0.4]))

    def test_state_psd_enforced(self):
        with pytest.raises(ValueError, match="semidefinite"):
            StateSpec(np.diag([1.5, -0.5]))


class TestPropagate:
    def test_free_evolution_diagonal(self):
        sys_ = build_model_system(11, t_final=10.0, q=64)
        prop = propagate(sys_, zero_field(sys_))
        expected = np.diag(np.exp(-1j * 10.0 * np.diag(sys_.h0).real))
        assert np.linalg.norm(prop.final - expected) < 1e-10
        assert np.linalg.norm(prop.final - free_evolution_final(sys_)) < 1e-10

    def test_unitarity_all_steps(self, small_system, small_field):
        # Only U(T) is returned; it is the product of every step's propagator.
        prop = propagate(small_system, small_field)
        n = small_system.dim
        assert np.linalg.norm(prop.final.conj().T @ prop.final - np.eye(n)) <= 1e-9

    def test_evolved_dipole_hermitian(self, small_system, small_field):
        prop = propagate(small_system, small_field)
        dev = np.abs(prop.dipoles - prop.dipoles.conj().transpose(0, 2, 1)).max()
        assert dev <= 1e-10

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_direct_formula(self, kind, small_system, small_field):
        # The real case takes the real-symmetric eigh, the complex one the
        # complex-Hermitian eigh; both must agree with U^dag V (mu' o Phi) V^dag U.
        if kind == "real":
            system, field = small_system, small_field
        else:
            rng = np.random.default_rng(11)
            system = QuantumSystem(random_hermitian(5, rng), random_hermitian(5, rng), 5.0, 64)
            field = ControlField(rng.standard_normal(64))
            assert system.h0.imag.any() and system.mu.imag.any()
        prop = propagate(system, field)
        cumulative, step_dipoles = propagate_direct(system, field)
        assert np.abs(prop.final - cumulative[-1]).max() <= 1e-12
        # dt/w_j is exactly 1 or 2, so undoing it keeps every digit.
        scale = system.dt / system.quadrature_weights
        assert np.abs(prop.dipoles / scale[:, None, None] - step_dipoles).max() <= 1e-12

    @pytest.mark.parametrize("x", [1.01e-7, 1e-6, 1e-4, 1e-2])
    def test_step_average_phi_small_gaps(self, x):
        # Two levels x/dt apart (dt = 1) and no field: the (1, 0) entry of the
        # first step-averaged dipole is phi(ix) = (e^{ix} - 1)/(ix).  Taken
        # as written, e^{ix} - 1 loses |log10 x| digits at small gaps.
        system = QuantumSystem(np.diag([0.0, x]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 2)
        # dipoles[0] is in sample units: dt/w_0 = 2 times the step average.
        phi = propagate(system, zero_field(system)).dipoles[0, 1, 0] / 2.0
        series = sum((1j * x) ** k / math.factorial(k + 1) for k in range(8))
        assert abs(phi - series) <= 1e-14 * abs(series)

    @pytest.mark.parametrize("x", [0.0, 1.0, 3.0])
    def test_step_average_phi_closed_form(self, x):
        # The same (1, 0) entry against phi(ix) = sin(x)/x + i (1 - cos x)/x,
        # with phi(0) = 1 at an exactly degenerate pair.
        system = QuantumSystem(np.diag([0.0, x]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 2)
        # dipoles[0] is in sample units: dt/w_0 = 2 times the step average.
        phi = propagate(system, zero_field(system)).dipoles[0, 1, 0] / 2.0
        expected = 1.0 if x == 0.0 else math.sin(x) / x + 1j * (1.0 - math.cos(x)) / x
        assert abs(phi - expected) <= 1e-14 * abs(expected)

    def test_peak_allocation(self, model_system):
        # One propagation at N=11, q=1024 allocates at most 4 complex
        # (q, N, N) arrays at its peak (7.6 MiB): the one it returns, the
        # step exponentials, the real eigenbases and the temporaries of
        # one block of steps per chunk.
        field = sample_random_field(model_system, np.random.default_rng(3))
        propagate(model_system, field)
        tracemalloc.start()
        try:
            propagate(model_system, field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one = model_system.q * model_system.dim**2 * np.dtype(complex).itemsize
        assert peak <= 4.0 * one

    def test_length_mismatch(self, small_system):
        with pytest.raises(ValueError, match="samples"):
            propagate(small_system, ControlField(np.zeros(small_system.q + 1)))

    def test_composition_of_half_intervals(self):
        # Propagating [0, T] equals [0, T/2] then [T/2, T] on the same grid.
        sys_full = build_model_system(5, t_final=8.0, q=17)
        field = sample_random_field(sys_full, np.random.default_rng(0))
        full = propagate(sys_full, field).final
        sys_half = build_model_system(5, t_final=4.0, q=9)
        u1 = propagate(sys_half, ControlField(field.samples[:9])).final
        u2 = propagate(sys_half, ControlField(field.samples[8:])).final
        assert np.linalg.norm(u2 @ u1 - full) < 1e-12

    def test_first_order_grid_convergence(self):
        # Error against a much finer reference halves when q-1 doubles.
        t_final = 20.0
        ref_sys = build_model_system(11, t_final=t_final, q=16 * 1024 + 1)
        rng_field = lambda sys_: sample_random_field(sys_, np.random.default_rng(9))
        u_ref = propagate(ref_sys, rng_field(ref_sys)).final
        errs = []
        for q in (257, 513, 1025):
            sys_ = build_model_system(11, t_final=t_final, q=q)
            errs.append(np.linalg.norm(propagate(sys_, rng_field(sys_)).final - u_ref))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 1.7 < r < 2.4, f"first-order convergence violated: ratios {ratios}"

    def test_last_sample_never_enters(self, small_system, small_field):
        bumped = small_field.samples.copy()
        bumped[-1] += 123.0
        p1 = propagate(small_system, small_field)
        p2 = propagate(small_system, ControlField(bumped))
        assert np.allclose(p1.final, p2.final)


def _chunked_system(kind: str) -> tuple[QuantumSystem, ControlField]:
    # q = 101: 100 steps split 50/50 in two chunks and 33/33/34 in three.
    if kind == "real":
        system = build_model_system(5, t_final=20.0, q=101)
        return system, sample_random_field(system, np.random.default_rng(4))
    rng = np.random.default_rng(12)
    system = QuantumSystem(random_hermitian(4, rng), random_hermitian(4, rng), 10.0, 101)
    return system, ControlField(rng.standard_normal(101))


def _child_env() -> dict:
    # A child interpreter that imports this checkout's motc, on one BLAS thread.
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")


# A child interpreter that starts the helper pool's threads with one
# propagation, then forks survey workers that propagate in chunks of their
# own.  Two chunks and two workers are forced, so it forks on a one-core
# machine too.
_FORK_CHILD = """
import threading
import numpy as np
from motc import dynamics
from motc.bench import build_model_system, sample_random_field
from motc.bench import experiments
dynamics._chunk_count = lambda steps: 2
experiments.usable_cores = lambda: 2
system = build_model_system(11, t_final=100.0, q=1024)
dynamics.propagate(system, sample_random_field(system, np.random.default_rng(0)))
assert any(t.name.startswith("motc-propagate") for t in threading.enumerate())
cfg = dict(experiment="gramian-dist", samples=4, q=128, t_final=30.0, observables=(4,))
serial = experiments.run_gramian_distribution(experiments.ExperimentConfig(**cfg))
forked = experiments.run_gramian_distribution(experiments.ExperimentConfig(**cfg, workers=2))
assert np.array_equal(serial["table"][1], forked["table"][1])
print("ok")
"""


# A child interpreter that runs a survey large enough to spread on two
# cores: over two sample blocks on two threads, then on one core, one
# sample after another with one chunk per propagation.  The tables must
# match.
_SPREAD_CHILD = """
import threading
from motc import dynamics
from motc.bench import experiments
dynamics.usable_cores = experiments.usable_cores = lambda: 2
threads, sample = [], experiments._gramian_sample
def recorded(*args):
    threads.append(threading.current_thread().name)
    return sample(*args)
experiments._gramian_sample = recorded
cfg = experiments.ExperimentConfig(
    experiment="gramian-dist", n_levels=5, state="pure", t_final=30.0, q=300,
    observables=(2,), samples=5,
)
spread = experiments.run_gramian_distribution(cfg)["table"][1]
assert len(set(threads)) == 2, threads
assert any(name.startswith("motc-propagate") for name in threads), threads
threads.clear()
dynamics.usable_cores = lambda: 1
serial = experiments.run_gramian_distribution(cfg)["table"][1]
assert set(threads) == {threading.current_thread().name}, threads
assert spread.tobytes() == serial.tobytes()
print("ok")
"""


# A child interpreter that spreads survey samples over two blocks while
# each sample's propagation asks for two chunks of its own.  A nested
# call that went to the helper pool would wait on the helper it occupies.
_NESTED_CHILD = """
from motc import dynamics
from motc.bench import experiments
dynamics._chunk_count = lambda steps: 2
dynamics.usable_cores = experiments.usable_cores = lambda: 2
cfg = dict(experiment="gramian-dist", samples=4, q=64, t_final=30.0, observables=(4,))
out = experiments.run_gramian_distribution(experiments.ExperimentConfig(**cfg))
assert out["summary"]["failures"] == 0
print("ok")
"""


def _run_child(code: str, timeout: float, hang: str) -> None:
    # Runs ``code`` in a child interpreter and fails with ``hang`` if it has
    # not finished within ``timeout`` seconds, killing it with any children.
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_child_env(), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(hang)
    assert proc.returncode == 0, err
    assert out.split() == ["ok"]


class TestChunkedPropagate:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_results_independent_of_chunk_count(self, monkeypatch, kind):
        # Every step sees the same operands however the steps are split:
        # the real-symmetric and the complex-Hermitian eigh paths alike.
        # Seven chunks queue on fewer helpers, switching threads often.
        system, field = _chunked_system(kind)
        assert (system.h0.imag.any() and system.mu.imag.any()) == (kind == "complex")
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunks in (1, 2, 3, 7):
                monkeypatch.setattr(dynamics, "_chunk_count", lambda steps, k=chunks: k)
                prop = propagate(system, field)
                results.append((prop.final.tobytes(), prop.dipoles.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert results[1:] == [results[0]] * 3

    def test_one_core_starts_no_thread(self, monkeypatch, model_system):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(dynamics, "usable_cores", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        field = sample_random_field(model_system, np.random.default_rng(2))
        propagate(model_system, field)

    def test_import_starts_no_thread(self):
        # The helper pool is made at import; its threads start only with a
        # propagation that splits its steps.
        code = (
            "import threading\n"
            "def refuse(thread):\n"
            "    raise AssertionError(f'thread {thread.name} started')\n"
            "threading.Thread.start = refuse\n"
            "import motc, motc.bench\n"
            "print(threading.active_count())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    def test_usable_cores_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert dynamics.usable_cores() == 3
        monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 6)
        assert dynamics.usable_cores() == 6

    def test_chunk_error_raised_after_every_chunk(self, monkeypatch):
        # The second chunk's eigh fails while the third is still running on
        # a helper: propagate raises only once the third has finished, and
        # the pool serves the next propagation.
        system, field = _chunked_system("real")
        monkeypatch.setattr(dynamics, "_chunk_count", lambda steps: 3)
        expected = propagate(system, field)
        h = system.h0.real[None, :, :] - field.samples[:-1, None, None] * system.mu.real[None, :, :]
        eigh, finished, failing = np.linalg.eigh, [], [True]

        def faulty(a):
            if failing[0] and np.array_equal(a[0], h[33]):
                raise np.linalg.LinAlgError("second chunk")
            if np.array_equal(a[0], h[66]):
                time.sleep(0.2)
                finished.append(3)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(np.linalg.LinAlgError, match="second chunk"):
            propagate(system, field)
        assert finished == [3]
        failing[0] = False
        again = propagate(system, field)
        assert again.final.tobytes() == expected.final.tobytes()
        assert again.dipoles.tobytes() == expected.dipoles.tobytes()

    def test_forked_workers_get_a_pool_of_their_own(self):
        # A forked child inherits the pool object but not its threads; one
        # that kept it would wait on them forever, so a timeout fails it.
        _run_child(_FORK_CHILD, 60, "survey workers forked after a chunked propagation hung")


class TestSpreadSurvey:
    """At ``workers`` 1 a survey whose propagations are large enough runs
    one block of samples per usable core on the helper threads
    (``dynamics.spread``).  The surveys that spread run in a child
    interpreter: a nested call that reached the one-thread helper pool
    would hang, and a timeout fails it."""

    def test_spread_table_matches_serial(self):
        _run_child(_SPREAD_CHILD, 60, "a spread survey hung")

    def test_chunks_inside_a_chunk_run_inline(self):
        _run_child(_NESTED_CHILD, 60, "a propagation inside a survey block hung")

    def test_short_survey_starts_no_thread(self, monkeypatch):
        # Below MIN_SPREAD_WORK the samples stay in this thread, whatever
        # the cores.  A fresh pool would start a thread at its first submit.
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(dynamics, "usable_cores", lambda: 2)
        monkeypatch.setattr(experiments, "usable_cores", lambda: 2)
        monkeypatch.setattr(dynamics, "_pool", ThreadPoolExecutor(1))
        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = experiments.ExperimentConfig(
            experiment="gramian-dist", n_levels=3, state="pure", t_final=30.0, q=64,
            observables=(2,), samples=5,
        )
        assert experiments.run_gramian_distribution(cfg)["summary"]["failures"] == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_spread_follows_propagation_size(self, monkeypatch, n):
        # The paper's N = 11 at q = 128 is spread although one of its
        # propagations takes a single chunk; N = 3 at q = 64 is not.  Either
        # way the results come back in item order.
        monkeypatch.setattr(dynamics, "usable_cores", lambda: 2)
        here = threading.current_thread().name
        for levels, q, spreads in ((3, 64, False), (11, 128, True)):
            threads = []

            def item(k):
                threads.append(threading.current_thread().name)
                return k

            system = build_model_system(levels, t_final=20.0, q=q)
            assert dynamics.spread(item, n, system) == list(range(n))
            assert len(set(threads) - {here}) == (1 if spreads and n > 1 else 0)


def test_import_loads_no_scipy():
    # The package and its CLI need numpy alone; scipy would add its import
    # time and memory to every run.
    code = "import sys\nimport motc, motc.bench, motc.bench.cli\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


class TestExpectations:
    def test_projector_on_own_state(self):
        sys_ = build_model_system(4, t_final=1.0, q=8)
        prop = propagate(sys_, zero_field(sys_))
        st = pure_state(4, 0)
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = 1.0
        # Free evolution only adds a phase to the eigenstate.
        val = expectations(prop, st, ObservableSet(proj))
        assert np.isclose(val[0], 1.0)

    def test_identity_observable(self, small_system, small_field, thermal_state):
        prop = propagate(small_system, small_field)
        val = expectations(prop, thermal_state, ObservableSet(np.eye(11)))
        assert np.isclose(val[0], 1.0, atol=1e-10)

    def test_commuting_free_evolution(self, small_system, thermal_state, observable_set):
        # eps = 0 and diagonal Theta_1: expectation is sum_k lambda_k Theta_kk.
        prop = propagate(small_system, zero_field(small_system))
        val = expectations(prop, thermal_state, observable_set.subset(1))
        lam = np.diag(thermal_state.rho0).real
        th = np.diag(observable_set.operators[0]).real
        assert np.isclose(val[0], lam @ th, atol=1e-12)

    def test_trace_preserved(self, small_system, small_field, thermal_state):
        prop = propagate(small_system, small_field)
        rho_t = prop.final @ thermal_state.rho0 @ prop.final.conj().T
        assert abs(np.trace(rho_t).real - 1.0) <= 1e-10

    def test_spectrum_preserved(self, small_system, small_field, rank7_state):
        prop = propagate(small_system, small_field)
        rho_t = prop.final @ rank7_state.rho0 @ prop.final.conj().T
        before = np.sort(np.linalg.eigvalsh(rank7_state.rho0))
        after = np.sort(np.linalg.eigvalsh(rho_t))
        assert np.abs(before - after).max() <= 1e-8


class TestBuilders:
    def test_model_system_matrix_entries(self):
        sys_ = build_model_system(11)
        h0 = sys_.h0
        mu = sys_.mu
        assert np.isclose(h0[0, 0].real, 0.1)
        assert np.isclose(h0[10, 10].real, 1.1)
        assert np.isclose(mu[0, 1].real, 0.15)
        assert np.isclose(mu[0, 2].real, 0.08)
        assert mu[0, 3] == 0.0
        assert np.allclose(np.diag(mu), 1.0)
        assert np.allclose(mu, mu.conj().T)

    def test_model_system_minimum_dimension(self):
        with pytest.raises(ValueError, match="dimension 3"):
            build_model_system(2)

    def test_random_field_mode_count_and_t0(self):
        sys_ = build_model_system(11, t_final=10.0, q=64)
        rng = np.random.default_rng(3)
        field = sample_random_field(sys_, rng)
        # Reproduce eps(0) = sum A_ij sin(phi_ij) from the same stream.
        rng2 = np.random.default_rng(3)
        energies = np.diag(sys_.h0).real
        iu, ju = np.triu_indices(11, 1)
        assert iu.size == 55  # C(11, 2) modes
        amps = 1.0 - rng2.uniform(0, 1, 55)
        phases = 2 * np.pi * (1.0 - rng2.uniform(0, 1, 55))
        assert np.isclose(field.samples[0], (amps * np.sin(phases)).sum())

    def test_random_field_deterministic(self, small_system):
        f1 = sample_random_field(small_system, np.random.default_rng(11))
        f2 = sample_random_field(small_system, np.random.default_rng(11))
        assert np.array_equal(f1.samples, f2.samples)

    def test_thermal_state(self, small_system):
        st = build_rank_truncated_state(small_system, 11, 1.0)
        lam = np.diag(st.rho0).real
        assert np.isclose(np.trace(st.rho0).real, 1.0, atol=1e-12)
        assert np.isclose(lam[0] / lam[1], np.exp(0.1))
        assert st.rank == 11 and st.degeneracies == (1,) * 11

    def test_thermal_infinite_temperature_limit(self, small_system):
        st = build_rank_truncated_state(small_system, 11, 1e9)
        assert np.abs(st.rho0 - np.eye(11) / 11).max() < 1e-9

    def test_thermal_rejects_nonpositive_temperature(self, small_system):
        with pytest.raises(ValueError, match="positive"):
            build_rank_truncated_state(small_system, 11, 0.0)
