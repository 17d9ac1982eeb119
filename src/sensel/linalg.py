"""Dense real matrix primitives used by the filtering and selection code.

Everything here is a pure function on ndarrays.  Covariances are kept
explicitly symmetric by the callers; the helpers in this module validate
and, where cheap, re-symmetrize defensively.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, NotPSD, NotPositiveDefinite

# Relative cutoff below which singular values are treated as zero.
DEFAULT_PINV_TOL = 1e-12

# Eigenvalues down to -PSD_SLACK * (1 + scale) are accepted as zero; SDP
# solvers routinely return marginally indefinite iterates.
PSD_SLACK = 1e-9


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a float ndarray, raising InvalidMatrix on NaN/Inf."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a square matrix with its transpose."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = check_finite(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    asym = float(np.abs(a - a.T).max()) if a.size else 0.0
    if asym > 1e-8 * scale:
        raise InvalidMatrix(f"{name} is not symmetric")
    return symmetrize(a)


def pinv(a: np.ndarray, tol: float = DEFAULT_PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a spectral cutoff.

    Singular values below ``tol * sigma_max`` are treated as exactly zero.

    Parameters
    ----------
    a : ndarray
        Matrix to pseudoinvert.
    tol : float
        Relative singular-value cutoff, must be positive.
    """
    a = check_finite(a, "pinv input")
    if tol <= 0:
        raise InvalidMatrix("pinv tolerance must be positive")
    if a.ndim != 2:
        raise InvalidMatrix(f"pinv expects a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return a.T.copy()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    inv_s = np.where(s > tol * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite ``a``."""
    a = _require_symmetric(a, "solve_spd matrix")
    b = check_finite(b, "solve_spd rhs")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    return np.linalg.solve(a, b)


def inv_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    return symmetrize(solve_spd(a, np.eye(a.shape[0])))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a for symmetric PSD ``a``.

    Positive definite inputs go through the standard factorization.  For
    PSD-but-singular inputs the factorization continues past vanishing
    pivots by zeroing the corresponding column, which is exact for PSD
    matrices up to roundoff.  Indefinite inputs raise NotPSD.
    """
    a = _require_symmetric(a, "cholesky input")
    n = a.shape[0]
    if n == 0:
        return a.copy()
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    scale = max(1.0, float(np.abs(a).max()))
    tol = PSD_SLACK * scale
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d > tol:
            low[j, j] = np.sqrt(d)
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
        elif d < -tol:
            raise NotPSD(f"negative pivot {d:.3e} at index {j}")
        else:
            # Vanishing pivot: for a PSD matrix the rest of this column of the
            # Schur complement must vanish too; a clear residual means the
            # matrix is indefinite.
            resid = a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]
            if resid.size and float(np.abs(resid).max()) > np.sqrt(tol * scale):
                raise NotPSD(f"zero pivot with nonzero column at index {j}")
    return low


def psd_project(a: np.ndarray, slack: float = PSD_SLACK) -> np.ndarray:
    """Clip negative eigenvalues of a nearly-PSD symmetric matrix to zero.

    Eigenvalues below ``-slack * (1 + max|a|)`` raise NotPSD instead of
    being clipped silently.
    """
    a = _require_symmetric(a, "psd_project input")
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh(a)
    floor = -slack * (1.0 + float(np.abs(a).max()))
    if w[0] < floor:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below PSD tolerance {floor:.3e}")
    w = np.clip(w, 0.0, None)
    return symmetrize((v * w) @ v.T)


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = symmetrize(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[0])
