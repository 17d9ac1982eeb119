"""Dense real matrix primitives used by the filtering and selection code.

Everything here is a pure function on ndarrays.  Covariances are kept
explicitly symmetric by the callers; the helpers in this module validate
and, where cheap, re-symmetrize defensively.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, NotPositiveDefinite

# Relative cutoff below which singular values are treated as zero.
DEFAULT_PINV_TOL = 1e-12

# Eigenvalues down to -PSD_SLACK * (1 + scale) are accepted as zero: a
# covariance read from a file or assembled in floating point can be
# marginally indefinite.
PSD_SLACK = 1e-9


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a float ndarray, raising InvalidMatrix on NaN/Inf."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def symmetrize(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Average a square matrix, or each of a stack of them, with its transpose;
    raises InvalidMatrix when the last two dimensions differ."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD; singular values below
    ``DEFAULT_PINV_TOL * sigma_max`` are treated as exactly zero."""
    a = check_finite(a, "pinv input")
    if a.ndim != 2:
        raise InvalidMatrix(f"pinv expects a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return a.T.copy()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    inv_s = np.where(s > DEFAULT_PINV_TOL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def inv_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix, symmetrized; ``a`` is
    symmetrized first and one Cholesky factorization tests it."""
    a = symmetrize(check_finite(a, "inv_spd input"), "inv_spd input")
    if a.ndim != 2:
        raise InvalidMatrix(f"inv_spd expects a 2-d matrix, got shape {a.shape}")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    return symmetrize(np.linalg.solve(a, np.eye(a.shape[0])))


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, or of all of a stack of
    them."""
    a = symmetrize(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a).min())
