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
    zero_field,
)
from motc import dynamics
from motc.bench import experiments
from motc.dynamics import DEGENERACY_TOL
from motc.landscape import ObservableSet, natural_basis_dimension

from conftest import free_evolution_final, propagate_direct, pure_state, random_hermitian


class TestTypes:
    def test_system_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            QuantumSystem(h0=np.eye(3), mu=np.eye(4))

    def test_system_accepts_non_contiguous_hermitian(self):
        # The transpose of a complex Hermitian matrix is Hermitian, and its
        # last axis is strided.
        h = random_hermitian(4, np.random.default_rng(5))
        system = QuantumSystem(h0=h.T, mu=h)
        assert np.array_equal(system.h0, h.T)

    def test_system_grid(self):
        sys_ = build_model_system(11, t_final=10.0, q=101)
        assert np.isclose(sys_.dt, 0.1)
        assert sys_.times[0] == 0.0 and sys_.times[-1] == 10.0
        w = sys_.quadrature_weights
        assert np.isclose(w.sum(), 10.0)
        assert w[0] == w[-1] == sys_.dt / 2

    @pytest.mark.parametrize("t_final", [np.inf, np.nan, 0.0])
    def test_system_rejects_bad_horizon(self, t_final):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            QuantumSystem(h0=np.eye(3), mu=np.eye(3), t_final=t_final, q=8)

    @pytest.mark.parametrize("q", [8.5, 8.0, "8"])
    def test_system_rejects_non_integer_grid(self, q):
        with pytest.raises(ValueError, match="q must be an integer"):
            QuantumSystem(h0=np.eye(3), mu=np.eye(3), q=q)

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
        # first step-averaged dipole is mu_10 phi(ix) = mu_10 (e^{ix} - 1)/(ix).
        # Taken as written, e^{ix} - 1 loses |log10 x| digits at small gaps.
        for system, mu10, gap in _two_level_systems(x):
            phi = _first_step_average(system) / mu10
            series = sum((1j * gap) ** k / math.factorial(k + 1) for k in range(8))
            assert abs(phi - series) <= 1e-14 * abs(series)

    @pytest.mark.parametrize("x", [0.0, 1.0, 3.0])
    def test_step_average_phi_closed_form(self, x):
        # The same (1, 0) entry against phi(ix) = sin(x)/x + i (1 - cos x)/x,
        # with phi(0) = 1 at an exactly degenerate pair.
        for system, mu10, gap in _two_level_systems(x):
            phi = _first_step_average(system) / mu10
            expected = 1.0 if gap == 0.0 else math.sin(gap) / gap + 1j * (1.0 - math.cos(gap)) / gap
            assert abs(phi - expected) <= 1e-14 * abs(expected)

    def test_step_average_degenerate_pair(self):
        # Levels 1 and 2 are exactly degenerate and mu couples them, so the
        # kernel's zero-gap branch is taken off the diagonal at every step.
        h0 = np.diag([0.0, 0.5, 0.5])
        levels = np.linalg.eigvalsh(h0)
        assert levels[1] == levels[2]
        mu = np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.7], [0.3, 0.7, 0.0]])
        system = QuantumSystem(h0, mu, 2.0, 8)
        prop = propagate(system, zero_field(system))
        cumulative, step_dipoles = propagate_direct(system, zero_field(system))
        assert np.abs(prop.final - cumulative[-1]).max() <= 1e-12
        scale = system.dt / system.quadrature_weights
        assert np.abs(prop.dipoles / scale[:, None, None] - step_dipoles).max() <= 1e-12

    def test_peak_allocation(self, model_system):
        # One propagation at N=11, q=1024 allocates at most 4 complex
        # (q, N, N) arrays at its peak (7.6 MiB): the one it returns, the
        # step exponentials, the real eigenbases and the temporaries of
        # one piece per thread.
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


def _two_level_systems(x: float) -> list[tuple[QuantumSystem, complex, float]]:
    # (system, mu_10, gap) for two levels x apart over one step of dt = 1:
    # at 0 and x and at 1 and 1 + x with a real mu, and at 1 and 1 + x with
    # a complex-Hermitian one.  The gap is the one the levels represent.
    cases = []
    for base, mu10 in ((0.0, 1.0), (1.0, 1.0), (1.0, np.exp(0.7j))):
        mu = np.array([[0.0, np.conj(mu10)], [mu10, 0.0]])
        system = QuantumSystem(np.diag([base, base + x]), mu, 1.0, 2)
        cases.append((system, mu10, (base + x) - base))
    assert cases[-1][0].mu.imag.any()
    return cases


def _first_step_average(system: QuantumSystem) -> complex:
    # The (1, 0) entry of the first step average: dipoles[0] is in sample
    # units, dt/w_0 = 2 times the step average.
    return propagate(system, zero_field(system)).dipoles[0, 1, 0] / 2.0


def _chunked_system(kind: str) -> tuple[QuantumSystem, ControlField]:
    # N = 11, q = 128, track-stall's size: 127 steps cut 63/64 in two pieces
    # and 42/42/43 in three.  A piece's work is long enough for the threads
    # to overlap, so a pipeline that let them share rows would show.
    if kind == "real":
        system = build_model_system(11, t_final=20.0, q=128)
        return system, sample_random_field(system, np.random.default_rng(4))
    rng = np.random.default_rng(12)
    system = QuantumSystem(random_hermitian(11, rng), random_hermitian(11, rng), 10.0, 128)
    return system, ControlField(rng.standard_normal(128))


def _child_env() -> dict:
    # A child interpreter that imports this checkout's motc and the tests'
    # helpers, on one BLAS thread.
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), str(root / "tests"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")


# A child interpreter that propagates one system in 1, 2, 3 and 7 pieces on
# one, two and four threads (more than the cores of a two-core machine, each
# count with a pool of its own), switching threads often: every result must
# have the same bytes, and the helpers must have built some piece's
# exponentials.
_IDENTITY_CHILD = """
import sys
import threading
import numpy as np
from motc import dynamics
from test_dynamics import _chunked_system
system, field = _chunked_system({kind!r})
eigh, helped = np.linalg.eigh, set()
def recorded(a):
    helped.add(threading.current_thread().name.startswith("motc-propagate"))
    return eigh(a)
np.linalg.eigh = recorded
sys.setswitchinterval(1e-6)
results = set()
for threads in (1, 2, 4):
    dynamics._threads = lambda system, t=threads: t
    for pieces in (1, 2, 3, 7):
        dynamics._piece_count = lambda system, k=pieces: k
        for _ in range(10 if threads > 1 else 1):
            prop = dynamics.propagate(system, field)
            results.add((prop.final.tobytes(), prop.dipoles.tobytes()))
assert len(results) == 1, len(results)
assert helped == {{False, True}}, helped
print("ok")
"""


# A child interpreter whose one two-thread pool thread is held by another
# task, so no helper starts: a two-thread propagation's calling thread must
# do every piece's work alone, to the same bytes, and a two-thread spread's
# calling thread every item, in order.
_BLOCKED_CHILD = """
import threading
import numpy as np
from motc import dynamics
from motc.bench import build_model_system, sample_random_field
system = build_model_system(11, t_final=20.0, q=128)
field = sample_random_field(system, np.random.default_rng(0))
dynamics._threads = lambda system: 1
serial = dynamics.propagate(system, field)
dynamics._threads = lambda system: 2
release = threading.Event()
blocker = dynamics._pool(1).submit(release.wait)
blocked = dynamics.propagate(system, field)
assert not blocker.done()
threads = []
def item(k):
    threads.append(threading.current_thread())
    return k
assert dynamics.spread(item, 5, system) == list(range(5))
assert threads == [threading.current_thread()] * 5, threads
assert not blocker.done()
release.set()
for prop in (blocked, dynamics.propagate(system, field)):
    assert prop.final.tobytes() == serial.final.tobytes()
    assert prop.dipoles.tobytes() == serial.dipoles.tobytes()
print("ok")
"""


# A child interpreter in which a helper's exponentials piece fails while the
# calling thread waits for it to advance the product: the error must reach
# the caller, and the next propagation must give the same bytes as before.
_FAILING_CHILD = """
import threading
import time
import numpy as np
from motc import dynamics
from motc.bench import build_model_system, sample_random_field
system = build_model_system(11, t_final=20.0, q=128)
field = sample_random_field(system, np.random.default_rng(0))
dynamics._threads = lambda system: 2
dynamics._piece_count = lambda system: 2
expected = dynamics.propagate(system, field)
eigh, entered = np.linalg.eigh, threading.Event()
def faulty(a):
    if threading.current_thread().name.startswith("motc-propagate"):
        entered.set()
        time.sleep(0.2)
        raise np.linalg.LinAlgError("helper piece")
    assert entered.wait(30)
    return eigh(a)
np.linalg.eigh = faulty
try:
    dynamics.propagate(system, field)
except np.linalg.LinAlgError as exc:
    assert str(exc) == "helper piece", exc
else:
    raise AssertionError("the helper's error was lost")
np.linalg.eigh = eigh
again = dynamics.propagate(system, field)
assert again.final.tobytes() == expected.final.tobytes()
assert again.dipoles.tobytes() == expected.dipoles.tobytes()
print("ok")
"""


# A child interpreter that starts the helper pool's threads with one
# two-thread propagation, then forks: the forked process must propagate on
# two threads again, to the same bytes.  It inherits the pool object but not
# its threads, so without the after-fork rebuild no helper would start.
_FORK_CHILD = """
import os
import threading
import numpy as np
from motc import dynamics
from motc.bench import build_model_system, sample_random_field
dynamics._threads = lambda system: 2
system = build_model_system(11, t_final=20.0, q=128)
field = sample_random_field(system, np.random.default_rng(0))
parent = dynamics.propagate(system, field)
assert any(t.name.startswith("motc-propagate") for t in threading.enumerate())
pid = os.fork()
if pid == 0:
    # This thread waits in its first piece until a helper has started one.
    eigh, helped = np.linalg.eigh, threading.Event()
    def recorded(a):
        if threading.current_thread().name.startswith("motc-propagate"):
            helped.set()
        elif not helped.wait(20):
            os._exit(2)
        return eigh(a)
    np.linalg.eigh = recorded
    child = dynamics.propagate(system, field)
    same = all(getattr(child, k).tobytes() == getattr(parent, k).tobytes()
               for k in ("final", "dipoles"))
    os._exit(0 if same else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
print("ok")
"""


# A child interpreter that runs a survey large enough to spread on two
# cores: taken in order by a helper and by this thread, then on
# one core, one sample after another in this thread.  The tables must
# match.  Until the helper has taken a sample, this thread waits in its
# first one, so both threads take part.
_SPREAD_CHILD = """
import threading
from motc import dynamics
from motc.bench import experiments
dynamics.usable_cores = lambda: 2
threads, sample, helped = [], experiments._gramian_sample, threading.Event()
def recorded(*args):
    threads.append(threading.current_thread().name)
    if threads[-1].startswith("motc-propagate"):
        helped.set()
    assert helped.wait(30)
    return sample(*args)
experiments._gramian_sample = recorded
cfg = experiments.ExperimentConfig(
    experiment="gramian-dist", state="pure", t_final=30.0, q=128, observables=(2,),
    samples=5,
)
spread = experiments.run_gramian_distribution(cfg)["table"][1]
assert len(set(threads)) == 2, threads
threads.clear()
dynamics.usable_cores = lambda: 1
serial = experiments.run_gramian_distribution(cfg)["table"][1]
assert set(threads) == {threading.current_thread().name}, threads
assert spread.tobytes() == serial.tobytes()
print("ok")
"""


# A child interpreter that spreads survey samples over two threads while
# each sample's propagation asks for three pieces on two threads of its
# own.  Only the survey's items may reach a helper pool: a propagation
# inside an item runs in the item's thread.
_NESTED_CHILD = """
from concurrent.futures import ThreadPoolExecutor
from motc import dynamics
from motc.bench import experiments
dynamics._piece_count = lambda system: 3
dynamics.usable_cores = lambda: 2
tasks = []
submit = ThreadPoolExecutor.submit
ThreadPoolExecutor.submit = lambda pool, fn, *args: tasks.append(fn.__qualname__) or submit(pool, fn, *args)
cfg = dict(experiment="gramian-dist", samples=4, q=128, t_final=30.0, observables=(4,))
out = experiments.run_gramian_distribution(experiments.ExperimentConfig(**cfg))
assert out["summary"]["failures"] == 0
assert tasks == ["spread.<locals>.item"] * 4, tasks
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
    """A propagation is a pipeline over pieces of its steps, on this thread
    and the helper pool.  The cases that need threads run in a child
    interpreter, so a hang fails by timeout."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_results_independent_of_chunk_count(self, kind):
        # Every step sees the same operands however the steps are cut and
        # whichever thread runs them: the real-symmetric and the
        # complex-Hermitian eigh paths alike.
        system, _ = _chunked_system(kind)
        assert (system.h0.imag.any() and system.mu.imag.any()) == (kind == "complex")
        _run_child(_IDENTITY_CHILD.format(kind=kind), 60, "a propagation in pieces hung")

    def test_unstarted_helper_does_not_hold_up_caller(self):
        _run_child(_BLOCKED_CHILD, 60, "a propagation waited on a helper that never started")

    def test_helper_error_reaches_waiting_caller(self):
        _run_child(_FAILING_CHILD, 60, "a helper's error left the caller waiting")

    def test_one_core_starts_no_thread(self, monkeypatch, model_system):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(dynamics, "usable_cores", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        field = sample_random_field(model_system, np.random.default_rng(2))
        propagate(model_system, field)

    def test_import_starts_no_thread(self):
        # The helper pools are made at first use; their threads start only
        # with a propagation that splits its steps.
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
        # A piece's eigh fails in this thread while the helper is still in
        # its own, which then returns or fails too: propagate raises this
        # thread's error only once the helper has finished, and the pool
        # serves the next propagation.
        system, field = _chunked_system("real")
        monkeypatch.setattr(dynamics, "_piece_count", lambda system: 3)
        monkeypatch.setattr(dynamics, "_threads", lambda system: 2)
        expected = propagate(system, field)
        eigh = np.linalg.eigh
        for helper_fails in (False, True):
            entered, finished, failing = threading.Event(), [], [True]

            def faulty(a):
                if not failing[0]:
                    return eigh(a)
                if threading.current_thread().name.startswith("motc-propagate"):
                    entered.set()
                    time.sleep(0.2)
                    finished.append(1)
                    if helper_fails:
                        raise np.linalg.LinAlgError("helper's piece")
                    return eigh(a)
                assert entered.wait(30)
                raise np.linalg.LinAlgError("caller's piece")

            monkeypatch.setattr(np.linalg, "eigh", faulty)
            with pytest.raises(np.linalg.LinAlgError, match="caller's piece"):
                propagate(system, field)
            assert finished == [1], helper_fails
            failing[0] = False
            again = propagate(system, field)
            assert again.final.tobytes() == expected.final.tobytes()
            assert again.dipoles.tobytes() == expected.dipoles.tobytes()

    def test_forked_process_gets_a_pool_of_its_own(self):
        _run_child(_FORK_CHILD, 60, "a propagation in pieces in a forked process hung")


class TestSpreadSurvey:
    """A survey whose propagations are large enough has its samples run in
    order by this thread and the helper threads (``dynamics.spread``).  The
    surveys that spread run in a child interpreter, so a hang fails by
    timeout."""

    def test_spread_table_matches_serial(self):
        _run_child(_SPREAD_CHILD, 60, "a spread survey hung")

    def test_chunks_inside_a_chunk_run_inline(self):
        _run_child(_NESTED_CHILD, 60, "a propagation inside a survey sample hung")

    def test_short_survey_starts_no_thread(self, monkeypatch):
        # Below MIN_THREAD_WORK the samples stay in this thread, whatever
        # the cores.  A fresh pool would start a thread at its first submit.
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(dynamics, "usable_cores", lambda: 2)
        monkeypatch.setattr(dynamics, "_pool", lambda helpers: ThreadPoolExecutor(helpers))
        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = experiments.ExperimentConfig(
            experiment="gramian-dist", n_levels=3, state="pure", t_final=30.0, q=64,
            observables=(2,), samples=5,
        )
        assert experiments.run_gramian_distribution(cfg)["summary"]["failures"] == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_spread_follows_propagation_size(self, monkeypatch, n):
        # One work floor on two cores: the paper's N = 11 at q = 1024 takes
        # eight pieces and is spread; at q = 128 it takes two pieces and is
        # spread, every item going to the pool; N = 3 at q = 64 takes one
        # piece and is not, and none does.  Either way the results come back
        # in item order.
        monkeypatch.setattr(dynamics, "usable_cores", lambda: 2)
        helpers, submit = [], ThreadPoolExecutor.submit
        monkeypatch.setattr(ThreadPoolExecutor, "submit", lambda *args: helpers.append(1) or submit(*args))
        sizes = ((3, 64, 1, False), (11, 128, 2, True), (11, 1024, 8, True))
        for levels, q, pieces, spreads in sizes:
            helpers.clear()
            system = build_model_system(levels, t_final=20.0, q=q)
            assert dynamics._piece_count(system) == pieces
            assert dynamics.spread(lambda k: k, n, system) == list(range(n))
            assert len(helpers) == (n if spreads and n > 1 else 0)

    def test_helper_error_reaches_spread_caller(self, monkeypatch):
        # A helper's item fails while this thread is in its own, which ends
        # once the helper has gone on to a slow next item: spread raises
        # the error without this thread taking another item, and the pool
        # serves the next spread.
        monkeypatch.setattr(dynamics, "_threads", lambda system: 2)
        system = build_model_system(3, t_final=20.0, q=64)
        inside, moved_on, helper_items, caller_items = threading.Event(), threading.Event(), [], []

        def item(k):
            if threading.current_thread().name.startswith("motc-propagate"):
                helper_items.append(k)
                if len(helper_items) > 1:
                    moved_on.set()
                    time.sleep(0.2)
                assert inside.wait(30)
                raise ValueError("helper's item")
            caller_items.append(k)
            inside.set()
            assert moved_on.wait(30)
            return k

        with pytest.raises(ValueError, match="helper's item"):
            dynamics.spread(item, 6, system)
        assert len(caller_items) == 1, caller_items
        assert dynamics.spread(lambda k: k, 4, system) == list(range(4))


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
