"""Driven N-level system: time grid, propagators, evolved dipoles, expectations.

The control enters through H(t) = H0 - mu * eps(t) (hbar = 1).  The field is
sampled on q uniform nodes over [0, T] and held constant on each step
[t_j, t_{j+1}] (left-endpoint rule), so the local propagator is
exp(-i H(t_j) dt) with dt = T/(q-1).  Local propagators are built by
diagonalization, exponentiation of the eigenvalues, and sandwiching back.

Besides U(T), the propagation returns the within-step average mu_avg(t_j)
of the evolved dipole mu(t) = U^dag(t,0) mu U(t,0) over each step, in
closed form from the step eigenbasis.  It makes derivatives of the discrete
dynamics exact, and it is returned in sample units, the one unit convention
of the package: with w_j the trapezoid weight of sample j,

    dipoles[j] = (dt/w_j) mu_avg(t_j),    dU(T)/d eps_j = i w_j U(T) dipoles[j].

So gradient samples and Gramian rows (``motc.landscape``, ``motc.tracking``)
are linear images of ``dipoles``, and sum_j w_j g_j d eps_j is an exact
chain rule.  dt/w_j is 1 in the interior and 2 at the ends: exact scaling.

One pass computes both.  The step Hamiltonians
H_j = V_j diag(lambda_j) V_j^dag are diagonalized in one batched ``eigh``:
the real-symmetric one when H0 and mu have no imaginary part (as in the
banded model of ``motc.bench``), the complex-Hermitian one otherwise.  In
the step eigenbasis mu'_j = V_j^dag mu V_j, and the step average is
W_j^dag (mu'_j o Phi_j) W_j with W_j = V_j^dag U(t_j, 0), g_ab =
(lambda_a - lambda_b) dt and (Phi_j)_ab = (e^{ig} - 1)/(ig) = e^{ig/2} sinc(g/2).
So it is X_j^dag K_j X_j with the kernel K_j = mu'_j o sinc(g/2), sinc(0) = 1,
and X_j = e^{-i lambda_j dt/2} o W_j, the half-step phases (whose squares
are the step phases) scaling W_j's rows.  No digit is lost at small gaps:
sinc takes the real sine of the gap itself, never a difference of nearly
equal numbers, and the unit phases only multiply.  For a real system V_j
and K_j are real: S_j = V_j (e^{-i lambda_j dt} o V_j^T), W_j and K_j X_j
run as real GEMMs on the complex right factor's float64 view, and
X_j^dag (K_j X_j) is the average's one complex GEMM.

Every stage but the cumulative product is independent from one step to the
next, and numpy's batched ``eigh`` and ``matmul`` release the GIL.  The step
axis is cut into contiguous pieces of at most BLOCK_STEPS steps, so the
stages' temporaries are piece-sized and a propagation holds little beyond
S_j, the node propagators (whose buffer becomes the dipoles) and the
eigenbases.  Threads are the package's one parallel mechanism, under one
floor: once a propagation's work (q - 1) N^3 reaches MIN_THREAD_WORK, it
has at least one piece per usable core (the process's CPU affinity, see
``usable_cores``) and runs on that many threads.  On one thread there is
nothing to overlap, and each stage runs over every piece in turn.

On more, a propagation is a pipeline over its pieces, on the calling thread
and a pool of one helper per further thread that takes tasks in submission
order; the calling thread steals (cancels and runs) each task no helper has
started and never waits on one.  It builds piece 0's exponentials (H_j, its
``eigh``, S_j) and submits the others', steals them in step order until
piece k+1 has its own, advances the product U(t_{j+1}, 0) = S_j U(t_j, 0)
through piece k (into the first node row of piece k+1, its exponentials'
scratch) and submits piece k's step averages (W_j and the dipoles, into its
own rows).  Then it takes the last piece's averages and steals the others.
A helper's error stops the stealing and, once the started tasks end, is
raised unless the caller has its own.  Each step sees the same operands
whatever the pieces and threads, so neither can change a bit of the result.

``spread`` runs independent items that each propagate once, such as the
samples of a Gramian survey (``motc.bench``), on the same threads under the
same floor, by the same steal-and-join.  A propagation inside an item runs
in the item's thread.
"""

from __future__ import annotations

import functools
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .linalg import require_hermitian

# Eigenvalues of rho closer than this form one degenerate cluster; those
# within it of zero count as zero.
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class QuantumSystem:
    """Internal Hamiltonian, dipole, final time and time-grid size."""

    h0: np.ndarray
    mu: np.ndarray
    t_final: float = 100.0
    q: int = 1024

    def __post_init__(self):
        h0 = require_hermitian(np.asarray(self.h0, dtype=complex), name="h0")
        mu = require_hermitian(np.asarray(self.mu, dtype=complex), name="mu")
        if h0.shape != mu.shape:
            raise ValueError(f"h0 and mu dimensions differ: {h0.shape} vs {mu.shape}")
        if not (0 < self.t_final < np.inf):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")
        if not isinstance(self.q, numbers.Integral):
            raise ValueError(f"q must be an integer, got {self.q!r}")
        if self.q < 2:
            raise ValueError("q must be at least 2")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def dt(self) -> float:
        return self.t_final / (self.q - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.q)

    @property
    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights on the q-grid, used for every [0, T] integral."""
        w = np.full(self.q, self.dt)
        w[0] = w[-1] = self.dt / 2.0
        return w

    def energies(self) -> np.ndarray:
        """Eigenvalues of H0, ascending."""
        return np.linalg.eigvalsh(self.h0)


@dataclass(frozen=True)
class ControlField:
    """Real field samples eps(t_j) on the system's uniform time grid."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1:
            raise ValueError("field samples must be a flat sequence")
        if not np.all(np.isfinite(s)):
            raise ValueError("field has non-finite samples")
        object.__setattr__(self, "samples", s)


def zero_field(system: QuantumSystem) -> ControlField:
    return ControlField(np.zeros(system.q))


@dataclass(frozen=True)
class StateSpec:
    """Initial density matrix rho(0) and the eigenstructure derived from it.

    One ``eigh`` at construction gives the ascending ``populations`` p and
    the ``eigenbasis`` whose columns are rho's eigenvectors.  Sorted
    eigenvalues are split into degenerate clusters wherever consecutive
    ones differ by more than DEGENERACY_TOL; ``cluster_edges`` are the
    index bounds of the clusters in p.  When p_0 is within DEGENERACY_TOL
    of zero, the first cluster is rho's kernel: ``rank`` counts the
    eigenvalues outside it, and ``degeneracies`` are the sizes
    (n_1, ..., n_r) of the other clusters, ascending in eigenvalue.
    """

    rho0: np.ndarray
    populations: np.ndarray = field(init=False, repr=False)
    eigenbasis: np.ndarray = field(init=False, repr=False)
    cluster_edges: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        rho = require_hermitian(np.asarray(self.rho0, dtype=complex), name="rho0")
        p, v = np.linalg.eigh(rho)
        if p[0] < -1e-12:
            raise ValueError(f"rho0 not positive semidefinite (min eigenvalue {p[0]:.3e})")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"rho0 trace {tr!r} differs from 1 beyond 1e-12")
        edges = (0, *(int(k) + 1 for k in np.flatnonzero(np.diff(p) > DEGENERACY_TOL)), p.size)
        object.__setattr__(self, "rho0", rho)
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "eigenbasis", v)
        object.__setattr__(self, "cluster_edges", edges)

    @property
    def dim(self) -> int:
        return self.rho0.shape[0]

    @property
    def degeneracies(self) -> tuple[int, ...]:
        sizes = tuple(int(k) for k in np.diff(self.cluster_edges))
        return sizes[1:] if self.populations[0] <= DEGENERACY_TOL else sizes

    @property
    def rank(self) -> int:
        return sum(self.degeneracies)


@dataclass(frozen=True)
class PropagationResult:
    """U(T) as ``final``; ``dipoles[j]``, the average of mu(t) over the step
    [t_j, t_{j+1}] in sample units (see the module docstring) with the
    trapezoid ``weights``.  ``dipoles[q-1]`` is zero: no step starts there,
    and the last field sample never enters the left-endpoint dynamics."""

    final: np.ndarray
    dipoles: np.ndarray
    weights: np.ndarray = field(repr=False)


def _matmul_real_left(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into ``out`` for complex ``b`` and ``out`` with contiguous last axes.

    A real ``a`` (a step eigenbasis, or a real system's step-average kernel
    K_j) multiplies b's float64 view, whose interleaved real and imaginary
    columns make one real GEMM of twice the width in place of a complex
    GEMM that first promotes ``a`` to complex.
    """
    if np.iscomplexobj(a):
        return np.matmul(a, b, out=out)
    np.matmul(a, b.view(np.float64), out=out.view(np.float64))
    return out


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Least work, in (q - 1) N^3, the multiply-adds of a propagation's step
# eigh to within a constant, that pays for a thread: a propagation with this
# much runs on one thread per usable core, and so do items that each
# propagate once.  Two cores, one BLAS thread, 190 interleaved pairs per
# size of the static two-chunk split the pipeline replaced: two chunks won
# 41 at N = 3, q = 512 and 162 at N = 11, q = 256; spreading won 55 at
# N = 3, q = 512 and 175 at N = 11, q = 128, but also 147 at N = 7, q = 128
# and 141 at N = 11, q = 64, which this floor leaves serial.  The pipeline
# on two threads at N = 11, q = 128, which the split had left on one, cut
# the benchmark's track-stall step from 28.1 to 22.8 ms (medians of ten
# alternating 42 s runs, faster in nine).
MIN_THREAD_WORK = 2**17

# Most steps in a piece, which bounds the stages' temporaries.
BLOCK_STEPS = 128


@functools.cache
def _pool(helpers: int) -> ThreadPoolExecutor:
    # Threads start at the first submit; a forked child inherits none.
    return ThreadPoolExecutor(helpers, thread_name_prefix="motc-propagate")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _work(system: QuantumSystem) -> int:
    return (system.q - 1) * system.dim**3


def _threads(system: QuantumSystem) -> int:
    """Threads for work that propagates ``system``: one per usable core once
    a propagation has MIN_THREAD_WORK of work, else one."""
    return usable_cores() if _work(system) >= MIN_THREAD_WORK else 1


def _piece_count(system: QuantumSystem) -> int:
    steps = system.q - 1
    return min(steps, max(-(-steps // BLOCK_STEPS), _threads(system)))


def _blocks(n: int, parts: int) -> list[tuple[int, int]]:
    """[0, n) cut into ``parts`` contiguous (lo, hi) blocks of near-equal size."""
    edges = [b * n // parts for b in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


# Whether this thread runs an item of ``spread``: a propagation inside one
# stays in this thread, so it asks for no more cores than there are.
_spread_item = threading.local()


def _helpers(threads: int) -> int:
    """Helpers for work on up to ``threads`` threads: none inside a spread item."""
    return 0 if getattr(_spread_item, "inside", False) else max(0, threads - 1)


def _submit(helpers: int, failed: list, fn, k: int):
    """fn(k) on the pool of ``helpers`` threads; ``failed`` takes it if it raises."""
    future = _pool(helpers).submit(fn, k)
    future.add_done_callback(lambda f: f.cancelled() or f.exception() is None or failed.append(f))
    return future


def _steal(future, fn, k: int, failed: list) -> None:
    """Runs fn(k) in this thread unless a helper has started ``future``, its
    pool task; first raises the error of a task in ``failed``."""
    if failed:
        failed[0].result()
    if future.cancel():
        fn(k)


@contextmanager
def _join(futures):
    """After the block, cancels the tasks of ``futures`` no helper has
    started (done only once dequeued, so not waited on) and waits for the
    rest, so no helper writes into a buffer after the caller has left.  Then
    raises the block's own error, else the first of the helpers'."""
    try:
        yield
    finally:
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()
    for future in started:
        future.result()


def spread(fn, n: int, system: QuantumSystem) -> list:
    """[fn(k) for k in range(n)], where each fn(k) propagates ``system``
    about once.  When one propagation has at least MIN_THREAD_WORK of work,
    every item goes to a pool of up to one helper per further usable core,
    and this thread steals, in order, each one no helper has started; else
    all run in this thread.  fn must not depend on which thread runs it."""
    helpers = _helpers(min(_threads(system), n))
    if not helpers:
        return [fn(k) for k in range(n)]
    out = [None] * n

    def item(k: int) -> None:
        _spread_item.inside = True
        try:
            out[k] = fn(k)
        finally:
            _spread_item.inside = False

    failed: list = []
    futures = [_submit(helpers, failed, item, k) for k in range(n)]
    with _join(futures):
        for k, future in enumerate(futures):
            _steal(future, item, k, failed)
    return out


def propagate(system: QuantumSystem, control: ControlField) -> PropagationResult:
    """Piecewise-constant propagation of the driven system over [0, T]."""
    eps = control.samples
    if eps.size != system.q:
        raise ValueError(f"field has {eps.size} samples, system grid has {system.q}")
    n, q, dt = system.dim, system.q, system.dt
    h0, mu = system.h0, system.mu
    if not (h0.imag.any() or mu.imag.any()):
        # A real-symmetric H_j has a real eigenbasis, which the real eigh
        # finds with less work than the complex one.
        h0, mu = h0.real, mu.real

    pieces = _blocks(q - 1, _piece_count(system))
    count = len(pieces)
    # The step exponentials; the node propagators, whose buffer takes the
    # dipoles once W_j is built.  A piece's rows of each serve as its
    # scratch while they hold nothing else.
    steps = np.empty((q - 1, n, n), dtype=complex)
    u_nodes = np.empty((q, n, n), dtype=complex)
    # Each piece's eigenvalues, eigenbases and half-step phases, from its
    # exponentials to its averages.
    eig: list = [None] * count
    # Where each (a, b) reads a step's row [1, sinc over the pairs a < b].
    upper = np.triu_indices(n, 1)
    mirror = np.zeros((n, n), dtype=np.intp)
    mirror[upper] = mirror.T[upper] = np.arange(1, upper[0].size + 1)
    nodes: list = []

    def exponentials(k: int) -> None:
        lo, hi = pieces[k]
        w, v = np.linalg.eigh(h0[None, :, :] - eps[lo:hi, None, None] * mu[None, :, :])
        # S_j = V_j (e^{-i w_j dt} o V_j^dag), the phases scaling the rows of
        # a C-ordered operand that a real V_j multiplies as one real GEMM.
        # The operand takes the node propagators' rows, unused until the
        # product.  The half-step phases are kept for the averages.
        half = np.exp(-0.5j * dt * w)
        vh = v.conj().transpose(0, 2, 1)
        phased = np.multiply((half * half)[:, :, None], vh, out=u_nodes[lo:hi])
        _matmul_real_left(v, phased, out=steps[lo:hi])
        eig[k] = w, v, half

    def product(k: int) -> None:
        # U(t_j, 0) at the piece's nodes and the next piece's first, in step
        # order.  The node views are listed once, so each step is one 2-D
        # GEMM call: at the first piece, as listing them any earlier or
        # dropping them before the averages doubled a one-thread survey's
        # minor page faults.
        lo, hi = pieces[k]
        if k == 0:
            u_nodes[0] = np.eye(n)
            nodes.extend(u_nodes)
        for step, node, following in zip(steps[lo:hi], nodes[lo:hi], nodes[lo + 1 : hi + 1]):
            step.dot(node, out=following)

    def averages(k: int) -> None:
        # X_j = e^{-i w_j dt/2} o W_j takes the piece's step exponentials,
        # spent once the node propagators are built.
        lo, hi = pieces[k]
        w, v, half = eig[k]
        vh = v.conj().transpose(0, 2, 1)
        x = _matmul_real_left(vh, u_nodes[lo:hi], out=steps[lo:hi])
        x *= half[:, :, None]
        # K_j = mu'_j o sinc(g/2), sinc(g/2) taken once per pair a < b, behind
        # the 1 of the diagonal and of exact degeneracies, and mirrored.
        half_gaps = (0.5 * dt) * (w[:, upper[0]] - w[:, upper[1]])
        sinc = np.ones((hi - lo, 1 + half_gaps.shape[1]))
        np.divide(np.sin(half_gaps), half_gaps, out=sinc[:, 1:], where=half_gaps != 0)
        kernel = vh @ mu @ v
        kernel *= sinc[:, mirror]
        mixed = _matmul_real_left(kernel, x, out=np.empty_like(x))
        # X_j^dag is the transposed view of X_j conjugated in place: BLAS
        # takes a transposed operand as it is, where a conjugated copy costs
        # a pass.
        np.conjugate(x, out=x)
        np.matmul(x.transpose(0, 2, 1), mixed, out=u_nodes[lo:hi])

    helpers = _helpers(min(_threads(system), count))
    if not helpers:
        # One thread has nothing to overlap: each stage over every piece.
        for stage in (exponentials, product, averages):
            for k in range(count):
                stage(k)
    else:
        # This thread builds piece 0's exponentials and the last piece's
        # averages, which a helper just done with the previous ones could
        # take while this thread waited idle; the pool gets the others.
        failed: list = []
        exps = {k: _submit(helpers, failed, exponentials, k) for k in range(1, count)}
        futures = [*exps.values()]
        with _join(futures):
            exponentials(0)
            stolen = 1
            for k in range(count - 1):
                while stolen < count and not exps[k + 1].done():
                    _steal(exps[stolen], exponentials, stolen, failed)
                    stolen += 1
                if not exps[k + 1].cancelled():
                    exps[k + 1].result()
                product(k)
                futures.append(_submit(helpers, failed, averages, k))
            product(count - 1)
            averages(count - 1)
            for k in range(count - 1):
                _steal(futures[count - 1 + k], averages, k, failed)
    # U(T), the last node, belongs to no piece's scratch.
    final = u_nodes[-1].copy()
    dipoles = u_nodes
    dipoles[-1] = 0.0
    # Sample units: dt/weights[j] is 1 but at the ends, and row q-1 is zero.
    weights = system.quadrature_weights
    dipoles[0] *= dt / weights[0]
    return PropagationResult(final=final, dipoles=dipoles, weights=weights)


def expectations(prop: PropagationResult | np.ndarray, state: StateSpec, oset) -> np.ndarray:
    """Phi_k = Tr(U(T) rho(0) U^dag(T) Theta_k) for each observable of the
    ObservableSet ``oset``; ``prop`` is a propagation or U(T) itself (such
    as the maximizer W)."""
    theta = oset.operators
    u = prop.final if isinstance(prop, PropagationResult) else np.asarray(prop)
    if state.dim != u.shape[-1] or theta.shape[-1] != u.shape[-1]:
        raise ValueError("dimension mismatch between propagation, state, and observables")
    rho_t = u @ state.rho0 @ u.conj().T
    vals = np.einsum("ab,kba->k", rho_t, theta)
    resid = np.abs(vals.imag).max()
    scale = max(np.abs(vals.real).max(), 1.0)
    if resid > 1e-10 * scale:
        raise ConsistencyError(f"expectation imaginary residue {resid:.3e} above tolerance")
    return vals.real

