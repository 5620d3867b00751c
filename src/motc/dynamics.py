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
banded model of ``motc.bench``), the complex-Hermitian one otherwise.  With
W_j = V_j^dag U(t_j, 0), the step average is W_j^dag (mu'_j o Phi_j) W_j,
where mu'_j = V_j^dag mu V_j is the dipole in the step eigenbasis and
(Phi_j)_ab = phi(i g_ab) with g_ab = (lambda_a - lambda_b) dt,
phi(ig) = (e^{ig} - 1)/(ig) = sin(g)/g + i 2 sin^2(g/2)/g and phi(0) = 1.
The sine form is taken from real sines, so no gap loses digits to the
cancellation in e^{ig} - 1.  For a real system V_j, mu'_j and Phi_j's
gaps are real, and the products with a real left factor, the step
exponentials S_j = V_j (e^{-i lambda_j dt} o V_j^T) and W_j = V_j^T U(t_j, 0),
run as real GEMMs on the complex right factor's float64 view.

Every stage but the cumulative product is independent from one step to the
next, and numpy's batched ``eigh`` and ``matmul`` release the GIL.  So the
step axis is split into contiguous chunks, one per usable core (the
process's CPU affinity, see ``usable_cores``) and at least MIN_CHUNK_STEPS
steps each.  The chunks build H_j, its ``eigh`` and S_j in parallel; the
product U(t_{j+1}, 0) = S_j U(t_j, 0) then runs in the calling thread in
step order; then the chunks build W_j and the step averages in parallel,
each into its own rows.  A chunk takes its steps in sub-blocks of at most
MIN_CHUNK_STEPS, so the stages' temporaries are block-sized and a
propagation holds little beyond S_j, the node propagators (whose buffer
becomes the dipoles) and the eigenbases.  The calling thread runs the first
chunk and a module-level thread pool, made at import and rebuilt after a
fork, the rest.  Each step sees the same operands whatever the split, so
neither the chunk count nor the blocks can change a single bit of the
result.

``spread`` runs independent items that each propagate once, such as the
samples of a Gramian survey (``motc.bench``), in blocks on the same
threads when a propagation is large enough to pay for it.  A call made
from inside a chunk or a block runs all of its own chunks in its thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
        if not (self.t_final > 0):
            raise ValueError("t_final must be positive")
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


def pure_state(n: int, index: int = 0) -> StateSpec:
    """Projector |index><index| as a StateSpec."""
    rho = np.zeros((n, n), dtype=complex)
    rho[index, index] = 1.0
    return StateSpec(rho)


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

    A real ``a`` multiplies b's float64 view, whose interleaved real and
    imaginary columns make one real GEMM of twice the width in place of a
    complex GEMM that first promotes ``a`` to complex.
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


# Fewest steps a chunk of the step axis takes: below it, handing a chunk to
# another thread costs more than its stages save.
MIN_CHUNK_STEPS = 128


def _make_pool() -> None:
    # Helper threads for the chunks after the first, started at the first
    # submit.  A forked child inherits the pool but not its threads.
    global _pool
    _pool = ThreadPoolExecutor(max(1, usable_cores() - 1), thread_name_prefix="motc-propagate")


_make_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_pool)


def _chunk_count(steps: int) -> int:
    return max(1, min(usable_cores(), steps // MIN_CHUNK_STEPS))


def _blocks(n: int, parts: int) -> list[tuple[int, int]]:
    """[0, n) cut into ``parts`` contiguous (lo, hi) blocks of near-equal size."""
    edges = [b * n // parts for b in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


# Whether this thread is running a chunk: a call made from inside one runs
# its own chunks inline.
_chunk_thread = threading.local()


def _in_chunk(stage, args: tuple):
    _chunk_thread.inside = True
    try:
        return stage(*args)
    finally:
        _chunk_thread.inside = False


def _run_chunks(stage, chunks: list[tuple]) -> list:
    """[stage(*args) for args in chunks]: the first in this thread, the rest
    on the helper pool.  An error is raised only once every chunk has
    finished, so no helper writes into a buffer after the caller has left.
    A call made from inside a chunk runs all of its chunks in its own
    thread: nested work neither waits on the helpers it occupies nor asks
    for more cores than there are.  A lone chunk occupies no helper, so it
    runs here unmarked."""
    if len(chunks) == 1 or getattr(_chunk_thread, "inside", False):
        return [stage(*args) for args in chunks]
    helpers = [_pool.submit(_in_chunk, stage, args) for args in chunks[1:]]
    try:
        first = _in_chunk(stage, chunks[0])
    finally:
        wait(helpers)
    return [first, *(future.result() for future in helpers)]


# Least work of one propagation, in (q - 1) N^3, the multiply-adds of its
# step eigh to within a constant, at which items that each propagate once
# pay for a thread of their own: below it numpy's calls on small stacks
# hold the GIL for most of an item.  Gramian survey, two cores, one BLAS
# thread, 12 interleaved pairs each: serial wins 10-12 of 12, by 20-70%,
# at N = 3, q = 64 and 256 and just below the floor at N = 4, q = 128
# and N = 5, q = 64 (work 8128 and 7875); spreading wins 8 of 12 at
# N = 3, q = 512 (6%) and 12 of 12 at N = 11, q = 128 and 1024 (43% and
# 23%).
MIN_SPREAD_WORK = 2**13


def spread(fn, n: int, system: QuantumSystem) -> list:
    """[fn(k) for k in range(n)], where each fn(k) propagates ``system``
    about once.  When one propagation costs at least MIN_SPREAD_WORK, k
    runs in contiguous blocks, one per usable core, the first in this
    thread and the rest on the helper pool, each fn(k)'s own propagation
    inside its block's thread; else all in this thread.  fn must not
    depend on which thread runs it."""
    work = (system.q - 1) * system.dim**3
    parts = max(1, min(usable_cores(), n)) if work >= MIN_SPREAD_WORK else 1
    ran = _run_chunks(lambda lo, hi: [fn(k) for k in range(lo, hi)], _blocks(n, parts))
    return [out for block in ran for out in block]


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

    bounds = _blocks(q - 1, _chunk_count(q - 1))
    # The step exponentials; the node propagators, whose buffer takes the
    # dipoles once W_j is built.  A block's rows of each serve as its
    # scratch while they hold nothing else.
    steps = np.empty((q - 1, n, n), dtype=complex)
    u_nodes = np.empty((q, n, n), dtype=complex)

    def exponentials(lo: int, hi: int) -> tuple:
        w, v = np.linalg.eigh(h0[None, :, :] - eps[lo:hi, None, None] * mu[None, :, :])
        # S_j = V_j (e^{-i w_j dt} o V_j^dag), the phases scaling the rows of
        # a C-ordered operand that a real V_j multiplies as one real GEMM.
        # The operand takes the node propagators' rows, unused until the
        # product.
        phased = np.multiply(
            np.exp(-1j * dt * w)[:, :, None], v.conj().transpose(0, 2, 1), out=u_nodes[lo:hi]
        )
        _matmul_real_left(v, phased, out=steps[lo:hi])
        return lo, hi, w, v

    def averages(lo: int, hi: int, w: np.ndarray, v: np.ndarray) -> None:
        # W_j takes the block's step exponentials, spent once the node
        # propagators are built, and mu' o Phi the node propagators, spent
        # once W_j is.
        vh = v.conj().transpose(0, 2, 1)
        wj = _matmul_real_left(vh, u_nodes[lo:hi], out=steps[lo:hi])
        # Within-step average of the interaction-picture dipole, in closed
        # form: (1/dt) int_0^dt e^{iHs} mu e^{-iHs} ds has eigenbasis
        # elements mu'_{ab} * phi(i g_ab) with g_ab = (w_a - w_b) dt and
        # phi(ig) = (e^{ig} - 1)/(ig) = sin(g)/g + i 2 sin^2(g/2)/g, phi(0) = 1.
        # Real sines lose no digits at any gap, where e^{ig} - 1 cancels
        # them.
        g = (w[:, :, None] - w[:, None, :]) * dt
        gap = g != 0
        phi = u_nodes[lo:hi]
        phi.real = 1.0
        np.divide(np.sin(g), g, out=phi.real, where=gap)
        half = np.sin(0.5 * g)
        np.multiply(half, half, out=half)
        phi.imag = 0.0
        np.divide(2.0 * half, g, out=phi.imag, where=gap)
        mu_phi = np.multiply(vh @ mu @ v, phi, out=phi)
        mixed = mu_phi @ wj
        # W_j^dag is the transposed view of W_j conjugated in place: BLAS
        # takes a transposed operand as it is, where a conjugated copy costs
        # a pass.  The dipoles overwrite mu' o Phi, spent once mixed is built.
        np.conjugate(wj, out=wj)
        np.matmul(wj.transpose(0, 2, 1), mixed, out=u_nodes[lo:hi])

    # A chunk runs each stage over sub-blocks of at most MIN_CHUNK_STEPS
    # steps, so the stages' temporaries are block-sized.
    def chunk_exponentials(lo: int, hi: int) -> list:
        starts = range(lo, hi, MIN_CHUNK_STEPS)
        return [exponentials(b, min(b + MIN_CHUNK_STEPS, hi)) for b in starts]

    def chunk_averages(blocks: list) -> None:
        for block in blocks:
            averages(*block)

    eig = _run_chunks(chunk_exponentials, bounds)
    # U(t_j, 0) at every node, in step order, of which only U(T) is returned.
    # The views are listed once, so each step is one 2-D GEMM call.
    u_nodes[0] = np.eye(n)
    nodes = list(u_nodes)
    for step, node, following in zip(steps, nodes, nodes[1:]):
        step.dot(node, out=following)
    final = u_nodes[-1].copy()
    _run_chunks(chunk_averages, [(blocks,) for blocks in eig])
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

