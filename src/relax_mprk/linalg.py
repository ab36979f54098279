"""Dense linear solves through LAPACK ``gesv`` (``numpy.linalg.solve``).

All linear systems in this package are small (<= a few hundred unknowns)
and dense, so one LU factorization with partial pivoting per solve is
adequate.  The Patankar matrices of the schemes have a positive diagonal,
non-positive off-diagonal entries and column sums >= 1, so they are
column diagonally dominant: partial pivoting never swaps rows, the
factors are those of plain Gaussian elimination, and the elimination
keeps the M-matrix sign pattern.  A positive right-hand side therefore
gives a positive solution in floating point as well (Higham, Accuracy
and Stability of Numerical Algorithms, ch. 9), as long as the unit part
of the diagonal survives rounding, i.e. the off-diagonal entries stay
well below 1/eps.  Beyond that the matrix is singular to working
precision and no elimination order keeps positivity.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    pass


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LU factorization with partial pivoting.

    Raises ValueError for a non-square matrix, a right-hand side of the
    wrong length or non-finite matrix entries, and SingularMatrixError
    when LAPACK meets an exactly zero pivot or the solution overflows to
    non-finite values.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if b.shape != (n,):
        raise ValueError("right-hand side length mismatch")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution has non-finite entries")
    return x
