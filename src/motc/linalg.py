"""Dense complex matrix kernel.

Input validation, the principal unitary logarithm, the condition number of
a singular-value spectrum, and the real Hermitian-basis vectorization used
by the gradient and Gramian machinery.  Everything is a pure function over
numpy arrays; LAPACK, through numpy alone, does the heavy lifting.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchBoundaryError, ConsistencyError

# Distance of a unitary-log eigenphase to +-pi below which we refuse to pick
# a branch.  The principal branch is the open interval (-pi, pi).
BRANCH_TOL = 1e-6
# Largest entrywise off-diagonal |Z^dag V Z| of a basis Z taken as
# diagonalising the unitary V.
SCHUR_TOL = 1e-10
# Largest entrywise |M - M^dag| of a matrix taken as Hermitian.
HERMITIAN_TOL = 1e-12
# Largest ||V^dag V - I||_F of a matrix taken as unitary.
UNITARY_TOL = 1e-8


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = require_finite(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e} > {HERMITIAN_TOL:.1e})")
    return m


def require_unitary(v: np.ndarray, name: str = "matrix") -> np.ndarray:
    v = require_finite(v, name)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"{name} must be square, got shape {v.shape}")
    dev = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0]))
    if dev > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary (||V^dag V - I||_F = {dev:.3e} > {UNITARY_TOL:.1e})")
    return v


def log_unitary_principal(v: np.ndarray) -> np.ndarray:
    """Hermitian A = -i log(V) on the principal branch, so V = exp(iA).

    All eigenphases of V are mapped into (-pi, pi).  An eigenphase within
    BRANCH_TOL of +-pi raises :class:`BranchBoundaryError`; the caller
    should perturb the input or re-seed.  A basis that leaves an off-diagonal
    of Z^dag V Z above SCHUR_TOL raises :class:`ConsistencyError`.
    """
    v = require_unitary(v, name="V")
    # A unitary matrix is normal: eigenvectors of distinct eigenvalues are
    # orthogonal, and QR orthonormalises the raw ones from geev within each
    # cluster of (nearly) repeated eigenvalues, giving a Schur basis Z in
    # which Z^dag V Z is diagonal.
    z, _ = np.linalg.qr(np.linalg.eig(v)[1])
    t = z.conj().T @ v @ z
    phases = np.angle(np.diag(t))
    off = np.abs(t - np.diag(np.diag(t))).max()
    if off > SCHUR_TOL:
        raise ConsistencyError(
            f"eigenbasis leaves off-diagonal {off:.3e} above {SCHUR_TOL:.1e} in Z^dag V Z"
        )
    if np.any(np.pi - np.abs(phases) < BRANCH_TOL):
        worst = phases[np.argmax(np.abs(phases))]
        raise BranchBoundaryError(
            f"eigenphase {worst:+.8f} within {BRANCH_TOL:.1e} of the +-pi branch cut"
        )
    return (z * phases) @ z.conj().T


def condition_from_singular_values(s: np.ndarray) -> float:
    """sigma_max / sigma_min of descending singular values, with +inf when
    sigma_min underflows to nothing."""
    if s.size == 0 or s[0] == 0.0 or s[-1] < 1e-300 * s[0]:
        return float("inf")
    return float(s[0] / s[-1])


# ---------------------------------------------------------------------------
# Real Hermitian-basis vectorization.
#
# Orthonormal basis of the N^2-dimensional real vector space of Hermitian
# matrices: diagonal units E_kk, symmetric pairs (E_ij + E_ji)/sqrt(2) and
# antisymmetric pairs i(E_ij - E_ji)/sqrt(2) for i < j.  Coordinates of a
# Hermitian M are (diag(M), sqrt(2) Re M_ij, sqrt(2) Im M_ij); the map is an
# isometry for the Frobenius norm, which keeps Gram matrices real and their
# condition numbers unambiguous.
# ---------------------------------------------------------------------------


def herm_to_vec(m: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices; batched over leading axes."""
    m = np.asarray(m)
    n = m.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    diag = m[..., np.arange(n), np.arange(n)].real
    off = m[..., iu, ju]
    return np.concatenate(
        [diag, np.sqrt(2.0) * off.real, np.sqrt(2.0) * off.imag], axis=-1
    )

