"""Shared dense linear-algebra helpers (Cholesky with escalating jitter)."""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["NumericalError", "add_diagonal", "chol_with_jitter", "JITTER_START", "JITTER_MAX"]

# Jitter escalation policy: start at 1e-10 * mean(diag), multiply by 10 until
# 1e-4 * mean(diag), then fail loudly.  A silently large jitter would change
# the model being fit, so anything beyond the cap is treated as an error.
JITTER_START = 1e-10
JITTER_MAX = 1e-4


class NumericalError(RuntimeError):
    """Raised when a factorization or iterative solver cannot proceed."""


def add_diagonal(A: np.ndarray, value: float) -> np.ndarray:
    """Add ``value`` to the diagonal of the square matrix ``A`` in place; returns ``A``.

    The same numbers as ``A + value * I`` without an n x n temporary.
    """
    A.flat[:: A.shape[0] + 1] += value
    return A


def chol_with_jitter(A: np.ndarray, context: str = "matrix") -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric PSD matrix, adding jitter if needed.

    Parameters
    ----------
    A : ndarray
        Symmetric matrix to factorize.  Not modified.
    context : str
        Short description used in the error message (e.g. the kernel spec).

    Returns
    -------
    L : ndarray
        Lower-triangular factor with ``L @ L.T == A + jitter * I``.
    jitter : float
        The diagonal jitter that was required (0.0 in the common case).
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.zeros_like(A), 0.0
    base = float(np.mean(np.diag(A)))
    if base <= 0.0:
        base = 1.0
    jitter = 0.0
    while True:
        try:
            shifted = A if jitter == 0.0 else add_diagonal(A.copy(), jitter)
            L = scipy.linalg.cholesky(shifted, lower=True)
            return L, jitter
        except scipy.linalg.LinAlgError:
            jitter = JITTER_START * base if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_MAX * base:
                raise NumericalError(
                    f"Cholesky factorization failed for {context}: matrix is not "
                    f"positive definite even with jitter up to {JITTER_MAX:g} * mean(diag)"
                ) from None


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L``."""
    return scipy.linalg.solve_triangular(L, b, lower=True)


def solve_upper(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``."""
    return scipy.linalg.solve_triangular(U, b, lower=False)


def solve_chol(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given the lower Cholesky factor ``L``."""
    return scipy.linalg.cho_solve((L, True), b)
