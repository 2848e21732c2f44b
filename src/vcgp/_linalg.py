"""Shared dense linear-algebra helpers (Cholesky with escalating jitter).

Finiteness is checked where an array enters, not on every use of it:

- a factor is checked once, where it is made: :func:`chol_with_jitter`
  raises ``ValueError`` on a non-finite diagonal, which is where a NaN or
  inf anywhere in the factorized triangle ends up;
- a factor read from a model file is checked by ``model_io.load_model``;
- the solves (:func:`solve_lower`, :func:`solve_upper`, :func:`solve_chol`)
  check only their right-hand side, O(n q), and raise ``ValueError`` on a
  NaN or inf there.  They do not scan the n x n factor again, which would
  cost more than a single-column solve itself.
"""

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


def chol_with_jitter(
    A: np.ndarray, context: str = "matrix", *, overwrite: bool = False
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric PSD matrix, adding jitter if needed.

    Parameters
    ----------
    A : ndarray
        Symmetric matrix to factorize; only its lower triangle is read.
        Not modified unless ``overwrite`` is set.
    context : str
        Short description used in the error message (e.g. the kernel spec).
    overwrite : bool
        Factorize a C-contiguous ``A`` in its own buffer, for callers that
        drop ``A`` afterwards: no n x n copy is made.  The factor is then a
        Fortran-ordered view of ``A``'s buffer and ``A`` is destroyed.
        Otherwise ``A`` is copied once, whatever the number of attempts.

    Returns
    -------
    L : ndarray
        Fortran-ordered lower-triangular factor, zero above the diagonal,
        with ``L @ L.T == A + jitter * I``.
    jitter : float
        The diagonal jitter that was required (0.0 in the common case).

    A matrix whose factor has a non-finite diagonal (NaN or inf in ``A``'s
    lower triangle) raises ``ValueError``.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.zeros_like(A), 0.0
    if not (overwrite and A.flags.c_contiguous):
        A = np.array(A, order="C")
    diag = np.diagonal(A).copy()
    base = float(np.mean(diag))
    if base <= 0.0:
        base = 1.0
    # the transpose is a Fortran-ordered view of A's buffer: LAPACK reads and
    # overwrites its lower triangle (A's upper, so A's lower is copied there
    # first) and leaves its upper triangle, to restore from after a failure
    F = A.T
    _lower_from_upper(F)
    jitter = 0.0
    while True:
        if jitter:
            add_diagonal(F, jitter)
        L, info = scipy.linalg.lapack.dpotrf(F, lower=1, overwrite_a=1, clean=0)
        # a NaN or inf in A ends up on the factor's diagonal
        d = np.diagonal(L)
        if not np.all(np.isfinite(d if info == 0 else d[info - 1])):
            raise ValueError(f"{context} has a non-finite entry")
        if info == 0:
            _zero_strict_upper(L)
            return L, jitter
        jitter = JITTER_START * base if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_MAX * base:
            raise NumericalError(
                f"Cholesky factorization failed for {context}: matrix is not "
                f"positive definite even with jitter up to {JITTER_MAX:g} * mean(diag)"
            )
        _lower_from_upper(F)
        np.fill_diagonal(F, diag)


# rows per block when copying or clearing a triangle of an n x n array: the
# work is done on views, and only the diagonal blocks need a mask
_TRIANGLE_BLOCK = 64
_STRICT_UPPER = np.triu(np.ones((_TRIANGLE_BLOCK, _TRIANGLE_BLOCK), dtype=bool), 1)


def _lower_from_upper(F: np.ndarray) -> None:
    """Copy the strict upper triangle of square ``F`` onto its strict lower triangle."""
    n = F.shape[0]
    for i0 in range(0, n, _TRIANGLE_BLOCK):
        i1 = min(i0 + _TRIANGLE_BLOCK, n)
        block = F[i0:i1, i0:i1]
        np.copyto(block, block.T, where=_STRICT_UPPER[: i1 - i0, : i1 - i0].T)
        F[i1:, i0:i1] = F[i0:i1, i1:].T


def _zero_strict_upper(F: np.ndarray) -> None:
    """Set the strict upper triangle of square ``F`` to zero."""
    n = F.shape[0]
    for j0 in range(0, n, _TRIANGLE_BLOCK):
        j1 = min(j0 + _TRIANGLE_BLOCK, n)
        F[:j0, j0:j1] = 0.0
        np.copyto(F[j0:j1, j0:j1], 0.0, where=_STRICT_UPPER[: j1 - j0, : j1 - j0])


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L``.

    ``L`` is trusted to be finite (see the module docstring); a non-finite
    ``b`` raises ``ValueError``.  The same rule holds for the solves below.
    """
    return scipy.linalg.solve_triangular(
        L, np.asarray_chkfinite(b), lower=True, check_finite=False
    )


def solve_upper(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``."""
    return scipy.linalg.solve_triangular(
        U, np.asarray_chkfinite(b), lower=False, check_finite=False
    )


def solve_chol(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given the lower Cholesky factor ``L``."""
    return scipy.linalg.cho_solve((L, True), np.asarray_chkfinite(b), check_finite=False)
