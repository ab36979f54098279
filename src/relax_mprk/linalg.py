"""Linear solves for Patankar systems: dense LAPACK ``gesv`` and an O(N)
sweep for cyclic-tridiagonal matrices.

The Patankar matrices of the schemes have a positive diagonal,
non-positive off-diagonal entries and column sums >= 1, so they are
column diagonally dominant M-matrices.  Gaussian elimination on such a
matrix needs no pivoting and keeps the M-matrix sign pattern in any
elimination order, so a positive right-hand side gives a positive
solution in floating point as well (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 9), as long as the unit part of the diagonal
survives rounding, i.e. fac*loss/denom stays well below 1/eps.  Beyond
that the matrix is singular to working precision and no elimination
order keeps positivity.

``lu_solve`` takes either format:

* an ndarray goes to LAPACK ``gesv`` (``numpy.linalg.solve``), one LU
  factorization with partial pivoting per solve, which on these matrices
  never swaps rows;
* a ``CyclicTridiagonal`` (the Patankar matrices of advection, the porous
  medium equation and the Euler density) is solved in O(N) by a bordered
  Thomas sweep without pivoting, whose every step adds non-negative
  terms except the pivot updates the M-matrix argument keeps positive.

``schemes.patankar_matrix`` returns the band format from ``BAND_MIN_DIM``
unknowns on, when the exchange pattern allows it.  Below that size the
fixed numpy and Python costs of the band assembly and sweep exceed the
dense assembly and ``gesv``: on a 2-core x86-64 VM (Python 3.11, numpy
2.4, BLAS on one thread) the two tie near 64 unknowns on cyclic bi- and
tridiagonal patterns, and at 100 the band path takes 0.55-0.8 of the
dense time, at 1,000 about 0.05.
"""

from __future__ import annotations

import numpy as np

BAND_MIN_DIM = 64

_INV_EPS = 1.0 / np.finfo(float).eps


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class CyclicTridiagonal:
    """N x N matrix (N >= 3) whose nonzeros lie on the diagonal, the sub-
    and super-diagonal and the two corners.

    ``bands`` is a (3, N) array with rows ``sub, diag, sup``: ``sub[i]``
    is M[i, i-1] and ``sup[i]`` is M[i, i+1], indices mod N, so the
    corners are ``sub[0]`` = M[0, N-1] and ``sup[-1]`` = M[N-1, 0].
    """

    __slots__ = ("bands",)

    def __init__(self, bands):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] != 3 or bands.shape[1] < 3:
            raise ValueError("bands must be a (3, N) array with N >= 3")
        self.bands = bands

    def __matmul__(self, v):
        sub, diag, sup = self.bands
        return diag * v + sub * np.roll(v, 1) + sup * np.roll(v, -1)

    def toarray(self) -> np.ndarray:
        sub, diag, sup = self.bands
        n = diag.size
        i = np.arange(n)
        A = np.zeros((n, n))
        A[i, i] = diag
        A[i, i - 1] = sub
        A[i, (i + 1) % n] = sup
        return A


def _singular(diag, row: int, what: str) -> SingularMatrixError:
    # the diagonal of a Patankar matrix is 1 + fac*loss/denom; near 1/eps
    # the unit part is lost, which is how a step far past the CFL limit
    # shows here
    return SingularMatrixError(
        f"singular matrix: {what} in row {row}, where fac*loss/denom = "
        f"{diag[row] - 1.0:.3e} (1/eps = {_INV_EPS:.3e})")


def _sweep(bands: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a cyclic-tridiagonal M-matrix system without pivoting.

    With m = N - 1, the leading m x m block A is tridiagonal and couples
    to x_m through the column c = (sub[0], 0, ..., 0, sup[m-1]).  One
    normalized Thomas pass on A with the right-hand sides b[:m] and -c
    gives y and w, so x[:m] = y + xi w; the last row then gives xi.
    """
    n = bands.shape[1]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side length mismatch")
    if not np.isfinite(bands).all():
        raise ValueError("matrix has non-finite entries")
    lo, d, up = bands.tolist()
    bl = b.tolist()
    m = n - 1

    # forward: p_i = d_i - lo_i c_{i-1}, c_i = up_i / p_i, and each
    # right-hand side r becomes (r_i - lo_i r_{i-1}) / p_i; -c is zero
    # but in rows 0 and m-1
    p = d[0]
    if not p > 0.0:
        raise _singular(d, 0, f"pivot {p:.3e}")
    c, yp, wp = up[0] / p, bl[0] / p, -lo[0] / p
    cs, ys, ws = [c], [yp], [wp]
    for di, li, ui, bi in zip(d[1:m], lo[1:m], up[1:m], bl[1:m]):
        p = di - li * c
        if not p > 0.0:
            raise _singular(d, len(cs), f"pivot {p:.3e}")
        c = ui / p
        yp = (bi - li * yp) / p
        wp = -li * wp / p
        cs.append(c)
        ys.append(yp)
        ws.append(wp)
    ws[-1] = wp = wp - up[m - 1] / p

    # back substitution r_i -= c_i r_{i+1} from row m-1 (whose c is the
    # border column's, carried by w); a block without super-diagonal, as
    # in upwind advection, has every c_i zero and needs none
    if any(cs[:m - 1]):
        for i in range(m - 2, -1, -1):
            c = cs[i]
            yp = ys[i] = ys[i] - c * yp
            wp = ws[i] = ws[i] - c * wp

    # the last row: sub[m] x_{m-1} + sup[m] x_0 + diag[m] xi = b[m]
    p = d[m] + lo[m] * ws[m - 1] + up[m] * ws[0]
    if not p > 0.0:
        raise _singular(d, m, f"pivot {p:.3e}")
    xi = (bl[m] - lo[m] * ys[m - 1] - up[m] * ys[0]) / p
    ys.append(xi)
    ws.append(0.0)
    x = np.array(ys)
    x += xi * np.array(ws)
    if not np.isfinite(x).all():
        row = int(np.argmax(bands[1]))
        raise _singular(d, row, "non-finite solution; largest diagonal")
    return x


def lu_solve(A, b: np.ndarray) -> np.ndarray:
    """Solve A x = b: by LU factorization with partial pivoting for an
    ndarray, by the bordered sweep for a ``CyclicTridiagonal``.

    Raises ValueError for a non-square matrix, a right-hand side of the
    wrong length or non-finite matrix entries, and SingularMatrixError
    when LAPACK meets an exactly zero pivot, the sweep a non-positive
    one, or the solution overflows to non-finite values.
    """
    if isinstance(A, CyclicTridiagonal):
        return _sweep(A.bands, b)
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
