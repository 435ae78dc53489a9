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
    """Hermitian part (A + A^H) / 2; removes roundoff asymmetry."""
    return 0.5 * (a + a.conj().T)


def is_hermitian(a: np.ndarray, rtol: float = 1e-10) -> bool:
    scale = max(float(np.max(np.abs(a))), 1e-300)
    return float(np.max(np.abs(a - a.conj().T))) <= rtol * scale


def logdet_hermitian(a: np.ndarray) -> float:
    """Natural-log determinant of a Hermitian positive definite matrix.

    Uses a Cholesky factorization; raises :class:`NotPositiveDefinite` when a
    pivot fails.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = A.

    Eigenvalues within PSD_CLAMP_RTOL * ||A|| of zero are treated as exact
    zeros (rank deficient scatterer covariances produce such roundoff, and
    the square root would amplify it); anything below -PSD_REJECT_RTOL *
    ||A|| raises :class:`NotPSD`.
    """
    vals, vecs = np.linalg.eigh(hermitianize(a))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if float(np.min(vals)) < -PSD_REJECT_RTOL * scale:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{PSD_REJECT_RTOL:g} * {scale:.3e}")
    vals = np.where(np.abs(vals) <= PSD_CLAMP_RTOL * scale, 0.0, np.clip(vals, 0.0, None))
    return hermitianize((vecs * np.sqrt(vals)) @ vecs.conj().T)


def psd_floor(a: np.ndarray) -> np.ndarray:
    """Project a nearly-PSD Hermitian matrix onto the PSD cone.

    Same eigenvalue policy as :func:`hermitian_sqrt` but returns the clamped
    matrix itself.
    """
    vals, vecs = np.linalg.eigh(hermitianize(a))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if float(np.min(vals)) < -PSD_REJECT_RTOL * scale:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{PSD_REJECT_RTOL:g} * {scale:.3e}")
    if float(np.min(vals)) >= 0.0:
        return hermitianize(a)
    vals = np.clip(vals, 0.0, None)
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
