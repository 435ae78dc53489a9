"""Complex dense matrix kernels used throughout the solvers.

All routines operate on plain numpy arrays (``complex128``) and use the
column-major vectorization convention: ``vec(A)`` stacks the columns of ``A``
on top of one another.  Natural logarithms everywhere; unit conversion to
bits happens at reporting boundaries only.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, NotPSD

# Relative eigenvalue floor below which a PSD matrix is rejected, and the
# (tighter) band inside which small negative eigenvalues are clamped to zero.
PSD_REJECT_RTOL = 1e-8
PSD_CLAMP_RTOL = 1e-10

SVD_CUTOFF_RTOL = 1e-12


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a matrix."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a matrix of known shape."""
    return np.asarray(v).reshape(rows, cols, order="F")


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H) / 2 of a matrix or of each matrix of a
    stack; removes roundoff asymmetry."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray, rtol: float = 1e-10) -> bool:
    """Whether a matrix, or every matrix of a stack, is Hermitian to rtol
    of its own largest entry."""
    scale = np.abs(a).max(axis=(-2, -1))
    skew = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return bool((skew <= rtol * np.maximum(scale, 1e-300)).all())


def cholesky_logdet(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor L (A = L L^H) of a Hermitian positive definite matrix
    and its natural-log determinant 2 sum log diag L; raises
    :class:`NotPositiveDefinite` when a pivot fails."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    return chol, 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def logdet_hermitian(a: np.ndarray) -> float:
    """Natural-log determinant of a Hermitian positive definite matrix, by
    :func:`cholesky_logdet`."""
    return cholesky_logdet(a)[1]


def _psd_eigen(a: np.ndarray):
    """Eigenvalues and eigenvectors of the Hermitian part of a nearly-PSD
    matrix under the one eigenvalue policy of this module: eigenvalues
    within PSD_CLAMP_RTOL * ||A|| of zero are exact zeros (rank deficient
    scatterer covariances produce such roundoff, and a square root would
    amplify it), smaller negative ones within PSD_REJECT_RTOL * ||A|| are
    clipped to zero, and anything below raises :class:`NotPSD`."""
    vals, vecs = np.linalg.eigh(hermitianize(a))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if float(np.min(vals)) < -PSD_REJECT_RTOL * scale:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{PSD_REJECT_RTOL:g} * {scale:.3e}")
    return np.where(np.abs(vals) <= PSD_CLAMP_RTOL * scale, 0.0, np.clip(vals, 0.0, None)), vecs


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = A, under the eigenvalue
    policy of :func:`_psd_eigen`."""
    vals, vecs = _psd_eigen(a)
    return hermitianize((vecs * np.sqrt(vals)) @ vecs.conj().T)


def psd_floor(a: np.ndarray) -> np.ndarray:
    """Projection of a nearly-PSD Hermitian matrix onto the PSD cone, under
    the eigenvalue policy of :func:`_psd_eigen`."""
    vals, vecs = _psd_eigen(a)
    return hermitianize((vecs * vals) @ vecs.conj().T)


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below
    SVD_CUTOFF_RTOL * sigma_max treated as zero."""
    return np.linalg.pinv(a, rcond=SVD_CUTOFF_RTOL)


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """Permutation K with K @ vec(A) = vec(A.T) for every m x n matrix A."""
    if m < 1 or n < 1:
        raise ValueError("commutation_matrix needs m, n >= 1")
    k = np.zeros((m * n, m * n))
    for r in range(m):
        for c in range(n):
            # vec(A)[r + c*m] lands at vec(A.T)[c + r*n]
            k[c + r * n, r + c * m] = 1.0
    return k
