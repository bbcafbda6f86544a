"""Small dense symmetric linear algebra: max norms, inverse square root,
whitening.

Eigendecompositions use ``numpy.linalg.eigh``, which reads one triangle
only, so every matrix first passes :func:`symmetrize`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

PD_TOL = 1e-10
SYMMETRY_RTOL = 1e-12


def max_abs_norm(a) -> float:
    """Maximum absolute entry of a vector or matrix.

    This is the norm convention used throughout the bound formulas:
    ``||a|| = max_i |a_i|`` for vectors and ``max_ij |a_ij|`` for matrices.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average ``a`` with its transpose, checking it was symmetric to begin with.

    Guards against asymmetry accumulated by floating point when covariance
    matrices are assembled from estimated sums.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix has nonfinite entries")
    scale = max(max_abs_norm(a), 1.0)
    if max_abs_norm(a - a.T) > SYMMETRY_RTOL * scale:
        raise DimensionMismatch("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def inverse_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root ``M`` with ``M @ sigma @ M = I``.

    Computed by eigendecomposition with eigenvalue reciprocal-square-roots.

    Raises
    ------
    NotPositiveDefinite
        If any eigenvalue is at most ``PD_TOL`` times the largest one, which
        signals the matrix is unusable for whitening.
    """
    vals, vecs = np.linalg.eigh(symmetrize(sigma))
    top = float(np.max(vals)) if vals.size else 0.0
    if top <= 0.0 or np.any(vals <= PD_TOL * top):
        raise NotPositiveDefinite(
            f"eigenvalues {np.sort(vals)} fail the relative threshold {PD_TOL}"
        )
    m = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return 0.5 * (m + m.T)


def spectral_max_abs(sigma_isqrt: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (diagnostic norm)."""
    vals = np.linalg.eigvalsh(symmetrize(sigma_isqrt))
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def whiten(samples: np.ndarray, lam: np.ndarray, isqrt: np.ndarray) -> np.ndarray:
    """Map each row ``w`` of ``samples`` to ``isqrt @ (w - lam)``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lam = np.asarray(lam, dtype=float).reshape(-1)
    isqrt = np.asarray(isqrt, dtype=float)
    p = lam.shape[0]
    if samples.shape[1] != p or isqrt.shape != (p, p):
        raise DimensionMismatch(
            f"samples {samples.shape}, lambda {lam.shape}, isqrt {isqrt.shape}"
        )
    return (samples - lam) @ isqrt.T
