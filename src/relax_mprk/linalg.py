"""Linear solves for Patankar systems: elimination on Python floats for
tiny matrices, dense LAPACK ``gesv``, and an O(N) sweep for
cyclic-tridiagonal matrices.

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

``lu_solve`` takes three formats:

* a ``SmallPatankar`` (Lotka-Volterra, cyclic3) is eliminated
  without pivoting on Python floats: every multiplier and every
  off-diagonal entry of U is non-positive, so both substitutions add
  non-negative terms and only the pivot updates can cancel;
* an ndarray goes to LAPACK ``gesv`` (``numpy.linalg.solve``), one LU
  factorization with partial pivoting per solve, which on these matrices
  never swaps rows; only ``patankar_matrix`` certifies the M-matrix
  structure, so a general matrix keeps its pivoting;
* a ``CyclicTridiagonal`` (the Patankar matrices of advection, the porous
  medium equation and the Euler density) is solved in O(N) by a bordered
  Thomas sweep without pivoting, whose every step adds non-negative
  terms except the pivot updates the M-matrix argument keeps positive.
  When the super-diagonal of its leading block is all zero, as in upwind
  advection's cyclic bidiagonal matrices, every c_i of the sweep is a
  zero and every pivot p_i is d_i, so the forward pass runs only the two
  recurrences left, for y and w; the dropped terms are zeros, so the
  bits are the general loop's.  The sweep reads this off the band, as it
  does whether back substitution is needed.

The two Patankar formats are factored on their first solve and keep the
factor, so a second solve with the same matrix only substitutes (the
band format recomputes its pivots from the kept bands and c_i, to the
same bits): the Newton derivative solve with the M_gamma of the value
solve, the bootstrap sigma-bar derivative with the sigma matrix, and the
Newton derivative at gamma = 1 with the step's own update matrix, which
the step record keeps (``schemes.StepRecord``).
numpy gives no handle on the ``gesv`` factor, so an ndarray is factored
on every solve.

``schemes.patankar_matrix`` chooses the format from the number of
unknowns d and the exchange pattern the system declares
(``pdrs.ExchangePattern``), never from the rate values: ``SmallPatankar``
up to ``SMALL_MAX_DIM``; from ``BAND_MIN_DIM`` on, the band format when
every entry of the pattern lies on the cyclic sub- or super-diagonal
(the pattern computes its entries' band slots once, on first use); an
ndarray, scattered from the pattern's entries, otherwise.  No path scans
a d x d array.  Per full Patankar matrix, in microseconds on a 2-core
x86-64 VM (Python 3.11, numpy 2.4, BLAS on one thread; the faster of two
runs, each the fastest of 15 repetitions):

    d                                1     2     3     4     5     6     8
    assembly and first solve
      ndarray (gesv)              15.7  17.6  17.1  17.5  16.5  17.0  18.5
      SmallPatankar                5.0   7.3   9.9  14.0  18.8  24.3  42.0
    a second solve
      ndarray (gesv)               8.7   9.1   9.6  10.0  10.3  10.0  11.3
      SmallPatankar                1.4   2.2   2.5   3.2   4.3   5.2   7.3

Up to d = 4 the Python floats win even without a second solve; from
d = 5 on their O(d^2) assembly and O(d^3) elimination in the interpreter
cost more than numpy's fixed overheads.  The band format and the dense
one tie near 64 unknowns on cyclic bi- and tridiagonal patterns; at 100
the band path takes 0.55-0.8 of the dense time, at 1,000 about 0.05.
"""

from __future__ import annotations

from itertools import chain
from math import isfinite

import numpy as np

SMALL_MAX_DIM = 4
BAND_MIN_DIM = 64

_INV_EPS = 1.0 / np.finfo(float).eps


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class SmallPatankar:
    """d x d matrix held as ``rows``, a list of d lists of d Python
    floats; ``lu`` is its no-pivot LU factor once it has been solved."""

    __slots__ = ("rows", "lu")

    def __init__(self, rows):
        self.rows = rows
        self.lu = None

    def __matmul__(self, v):
        vl = np.asarray(v, dtype=float).tolist()
        out = []
        for row in self.rows:
            s = 0.0
            for a, x in zip(row, vl):
                s += a * x
            out.append(s)
        return np.array(out)

    def toarray(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)


class CyclicTridiagonal:
    """N x N matrix (N >= 3) whose nonzeros lie on the diagonal, the sub-
    and super-diagonal and the two corners.

    ``bands`` is a (3, N) array with rows ``sub, diag, sup``: ``sub[i]``
    is M[i, i-1] and ``sup[i]`` is M[i, i+1], indices mod N, so the
    corners are ``sub[0]`` = M[0, N-1] and ``sup[-1]`` = M[N-1, 0].
    ``lu`` is the sweep's factor once the matrix has been solved.
    """

    __slots__ = ("bands", "lu")

    def __init__(self, bands):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] != 3 or bands.shape[1] < 3:
            raise ValueError("bands must be a (3, N) array with N >= 3")
        self.bands = bands
        self.lu = None

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


def _at_largest_diagonal(diag, what: str) -> SingularMatrixError:
    # a failure with no pivot to blame names the row most likely at fault
    row = max(range(len(diag)), key=diag.__getitem__)
    return _singular(diag, row, f"{what}; largest diagonal")


def _small_lu(rows):
    """No-pivot LU factor of a ``SmallPatankar``'s rows: U on and above
    the diagonal and L's multipliers below it, in one list of rows."""
    if not all(map(isfinite, chain.from_iterable(rows))):
        raise ValueError("matrix has non-finite entries")
    n = len(rows)
    lu = [row.copy() for row in rows]
    for k, rk in enumerate(lu):
        p = rk[k]
        if not p > 0.0:
            raise _singular([r[i] for i, r in enumerate(rows)], k,
                            f"pivot {p:.3e}")
        for ri in lu[k + 1:]:
            f = ri[k] = ri[k] / p
            for j in range(k + 1, n):
                ri[j] -= f * rk[j]
    return lu


def _small_substitute(lu, b: list) -> list:
    """Solve L U x = b with the factor of ``_small_lu``."""
    n = len(lu)
    x = b.copy()
    for i in range(1, n):
        row, s = lu[i], x[i]
        for j in range(i):
            s -= row[j] * x[j]
        x[i] = s
    for i in range(n - 1, -1, -1):
        row, s = lu[i], x[i]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def _sweep(bands: np.ndarray, b: list):
    """Solve a cyclic-tridiagonal M-matrix system without pivoting, and
    return the solution with the factor ``_band_substitute`` reuses.

    With m = N - 1, the leading m x m block A is tridiagonal and couples
    to x_m through the column c = (sub[0], 0, ..., 0, sup[m-1]).  One
    normalized Thomas pass on A with the right-hand sides b[:m] and -c
    gives y and w, so x[:m] = y + xi w; the last row then gives xi.
    Without super-diagonal in A the pass is bidiagonal: the c_i are
    zeros, p_i = d_i, and only the recurrences for y and w run.

    The factor is the tuple (sub, diag, c, back, w, sup[m], the pivot of
    xi): the two bands and c_i = sup_i / p_i of the leading block as
    lists, whether that block needs back substitution, and w with a 0
    appended.  The pivots p_i = diag_i - sub_i c_{i-1} are recomputed, to
    the same bits, by each later solve: appending them to a list here
    costs a matrix solved only once (advection's) more than recomputing
    them costs a second solve.
    """
    if not np.isfinite(bands).all():
        raise ValueError("matrix has non-finite entries")
    lo, d, up = bands.tolist()
    m = len(d) - 1

    # forward: p_i = d_i - lo_i c_{i-1}, c_i = up_i / p_i, and each
    # right-hand side r becomes (r_i - lo_i r_{i-1}) / p_i; -c is zero
    # but in rows 0 and m-1
    p = d[0]
    if not p > 0.0:
        raise _singular(d, 0, f"pivot {p:.3e}")
    yp, wp = b[0] / p, -lo[0] / p
    ys, ws = [yp], [wp]
    if any(up[:m - 1]):
        c = up[0] / p
        cs = [c]
        for di, li, ui, bi in zip(d[1:m], lo[1:m], up[1:m], b[1:m]):
            p = di - li * c
            if not p > 0.0:
                raise _singular(d, len(cs), f"pivot {p:.3e}")
            c = ui / p
            yp = (bi - li * yp) / p
            wp = -li * wp / p
            cs.append(c)
            ys.append(yp)
            ws.append(wp)
        back = any(cs[:m - 1])
    else:
        # every c_i is a zero, so p_i = d_i, and each term dropped from
        # the loop above is a zero: the same bits
        for di, li, bi in zip(d[1:m], lo[1:m], b[1:m]):
            if not di > 0.0:
                raise _singular(d, len(ys), f"pivot {di:.3e}")
            yp = (bi - li * yp) / di
            wp = -li * wp / di
            ys.append(yp)
            ws.append(wp)
        p = d[m - 1]
        cs, back = [0.0] * m, False
    ws[-1] = wp = wp - up[m - 1] / p

    # back substitution r_i -= c_i r_{i+1} from row m-1 (whose c is the
    # border column's, carried by w); a block with every c_i zero needs
    # none
    if back:
        for i in range(m - 2, -1, -1):
            c = cs[i]
            yp = ys[i] = ys[i] - c * yp
            wp = ws[i] = ws[i] - c * wp

    # the last row: sub[m] x_{m-1} + sup[m] x_0 + diag[m] xi = b[m]
    p = d[m] + lo[m] * ws[m - 1] + up[m] * ws[0]
    if not p > 0.0:
        raise _singular(d, m, f"pivot {p:.3e}")
    xi = (b[m] - lo[m] * ys[m - 1] - up[m] * ys[0]) / p
    ys.append(xi)
    ws.append(0.0)
    w = np.array(ws)
    x = np.array(ys)
    x += xi * w
    return x, (lo, d, cs, back, w, up[m], p)


def _band_substitute(lu, b: list) -> np.ndarray:
    """The sweep's passes for y alone, with the factor ``_sweep`` kept."""
    lo, d, cs, back, w, up_m, p_m = lu
    m = len(cs)
    yp = b[0] / d[0]
    ys = [yp]
    for di, li, c, bi in zip(d[1:m], lo[1:m], cs, b[1:m]):
        yp = (bi - li * yp) / (di - li * c)
        ys.append(yp)
    if back:
        for i in range(m - 2, -1, -1):
            yp = ys[i] = ys[i] - cs[i] * yp
    xi = (b[m] - lo[m] * ys[m - 1] - up_m * ys[0]) / p_m
    ys.append(xi)
    x = np.array(ys)
    x += xi * w
    return x


def lu_solve(A, b: np.ndarray) -> np.ndarray:
    """Solve A x = b: by LU factorization with partial pivoting for an
    ndarray, by the no-pivot factor a ``SmallPatankar`` or a
    ``CyclicTridiagonal`` computes on its first solve and keeps.

    Raises ValueError for a non-square matrix, a right-hand side of the
    wrong length or non-finite matrix entries, and SingularMatrixError
    when LAPACK meets an exactly zero pivot, the no-pivot elimination a
    non-positive one, or the solution overflows to non-finite values;
    the message names a row and its fac*loss/denom.
    """
    b = np.asarray(b, dtype=float)
    if isinstance(A, SmallPatankar):
        if b.shape != (len(A.rows),):
            raise ValueError("right-hand side length mismatch")
        if A.lu is None:
            A.lu = _small_lu(A.rows)
        x = _small_substitute(A.lu, b.tolist())
        if not all(map(isfinite, x)):
            raise _at_largest_diagonal([r[i] for i, r in enumerate(A.rows)],
                                       "non-finite solution")
        return np.array(x)
    if isinstance(A, CyclicTridiagonal):
        if b.shape != (A.bands.shape[1],):
            raise ValueError("right-hand side length mismatch")
        if A.lu is None:
            x, A.lu = _sweep(A.bands, b.tolist())
        else:
            x = _band_substitute(A.lu, b.tolist())
        if not np.isfinite(x).all():
            raise _at_largest_diagonal(A.bands[1], "non-finite solution")
        return x
    A = np.asarray(A, dtype=float)
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
        raise _at_largest_diagonal(A.diagonal(),
                                   "zero pivot in LAPACK gesv") from exc
    if not np.isfinite(x).all():
        raise _at_largest_diagonal(A.diagonal(), "non-finite solution")
    return x
