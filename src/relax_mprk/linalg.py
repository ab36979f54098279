"""Linear solves for Patankar systems: no-pivot elimination on Python
floats, planned once per exchange pattern, an O(N) sweep for
cyclic-tridiagonal matrices, and dense LAPACK ``gesv`` for general
matrices.

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

* a ``PlannedPatankar`` (Lotka-Volterra, cyclic3, the stratospheric
  system, and every pattern off the cyclic band or below
  ``BAND_MIN_DIM``) is a flat list of Python floats on the ``LuPlan``
  of its pattern, the symbolic factorization ``plan_lu`` computes once
  per pattern (``pdrs.ExchangePattern.lu_plan``): one slot per diagonal
  entry, per pattern entry and per fill entry, and per pivot the slots
  the elimination updates.  It is eliminated without pivoting in natural
  order, visiting only the structural nonzeros: every multiplier and
  every off-diagonal entry of U is non-positive, so both substitutions
  add non-negative terms and only the pivot updates can cancel.  Each
  slot gets the operations, in the order, of a dense no-pivot
  elimination in the same k, i, j order, which adds nothing but zeros
  elsewhere; so up to d = 4, where that dense elimination ran on full
  rows before, the solutions keep their bits;
* a ``CyclicTridiagonal`` (the Patankar matrices of advection, the porous
  medium equation and the Euler density) is solved in O(N) by a bordered
  Thomas sweep without pivoting, whose every step adds non-negative
  terms except the pivot updates the M-matrix argument keeps positive.
  When the super-diagonal of its leading block is all zero, as in upwind
  advection's cyclic bidiagonal matrices, every c_i of the sweep is a
  zero and every pivot p_i is d_i, so the forward pass runs only the two
  recurrences left, for y and w; the dropped terms are zeros, so the
  bits are the general loop's.  The sweep reads this off the band, as it
  does whether back substitution is needed;
* an ndarray goes to LAPACK ``gesv`` (``numpy.linalg.solve``), one LU
  factorization with partial pivoting per solve.  Only ``patankar_matrix``
  certifies the M-matrix structure, so a general matrix keeps its
  pivoting; callers and tests use this path as the reference.

The two Patankar formats are factored on their first solve and keep the
factor, so a second solve with the same matrix only substitutes (the
band format recomputes its pivots from the kept bands and c_i, to the
same bits): the Newton derivative solve with the M_gamma of the value
solve, the bootstrap sigma-bar derivative with the sigma matrix, and the
Newton derivative at gamma = 1 with the step's own update matrix, which
the step record keeps (``schemes.StepRecord``).

``schemes.patankar_matrix`` chooses the format from the number of
unknowns d and the exchange pattern the system declares
(``pdrs.ExchangePattern``), never from the rate values: from
``BAND_MIN_DIM`` on, the band format when every entry of the pattern
lies on the cyclic sub- or super-diagonal (the pattern computes its
entries' band slots once, on first use); the planned format otherwise.
No path scans a d x d array.  Per Patankar matrix, in microseconds on a
2-core x86-64 VM (Python 3.11, numpy 2.4, BLAS on one thread; the
fastest of four runs, each the fastest of 15 repetitions), for the dense
scatter assembly and ``gesv`` against the planned format:

                                          assembly and     a second
                                           first solve       solve
    pattern                  nnz   fill   gesv  planned   gesv  planned
    Lotka-Volterra, d = 2      1      0   15.9     5.1    11.6     1.4
    cyclic3, d = 3             3      1   15.2     6.2     9.3     1.7
    stratospheric, d = 6      16      4   15.5    13.6     9.8     2.9
    full, d = 1                0      0   15.1     3.9     8.9     1.1
    full, d = 4               12      0   15.2     9.5     9.6     2.2
    full, d = 5               20      0   15.3    13.7     9.4     2.8
    full, d = 6               30      0   14.9    17.8     9.5     3.4
    full, d = 8               56      0   15.2    31.7     9.6     5.1
    cyclic bidiagonal, 5       5      3   14.3     8.1     9.1     2.3
                       8       8      6   14.4    11.6     9.7     3.5
                      17      17     15   18.4    19.3    12.3     5.5
                      32      32     30   25.5    34.0    17.8     9.9
                      63      63     61   50.2    66.2    36.9    19.2
    cyclic tridiagonal, 5     10      4   15.0    10.3     9.3     2.5
                        8     16     10   15.7    15.7    10.4     3.8
                       17     34     28   18.0    30.4    12.5     6.8
                       32     64     58   25.0    56.1    17.8    12.5
                       63    126    120   52.4   115.7    39.9    27.2

A second solve with the planned format costs a fraction of ``gesv``'s at
every size measured.  Its assembly and first solve cost about one
interpreted multiply-add per pattern entry, fill entry and elimination
update.  Up to about 50 of those they cost less than numpy's fixed
overheads (the stratospheric pattern has 43 and ties, as does a full
pattern at d = 5 with 50), beyond that more: a full pattern loses from
d = 6, a cyclic one from d = 8 to 17.  No registered problem has a
pattern off the cyclic band at d >= ``BAND_MIN_DIM``; on one, the
planned format's cost is its fill-operation count, O(d) for a band plus
a few entries and O(d^3) for a full pattern.  The band format and
``gesv`` tie near 64 unknowns on cyclic bi- and tridiagonal patterns;
at 100 the band path takes 0.55-0.8 of the dense time, at 1,000 about
0.05.
"""

from __future__ import annotations

from math import isfinite
from typing import NamedTuple

import numpy as np

BAND_MIN_DIM = 64

_INV_EPS = 1.0 / np.finfo(float).eps


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class LuPlan(NamedTuple):
    """Symbolic no-pivot LU factorization, in natural order, of the d x d
    matrices whose nonzeros lie on the diagonal and at the entries
    (rows[e], cols[e]) of an exchange pattern; see ``plan_lu``.

    A matrix on the plan is one flat list of values, its slots: slot i < d
    holds the diagonal entry of row i, slot d + e the pattern's entry e,
    and the ``n_fill`` slots after those the fill the elimination creates.
    ``cols`` is the pattern's column list, which the assembly reads, and
    ``flat`` the row-major index in the d x d matrix of each diagonal and
    pattern slot.  ``elim`` holds, per pivot k, the slots of the a_kj
    right of the pivot, columns j increasing, and a (multiplier slot,
    target slots) pair for each row i > k with a nonzero in column k,
    rows increasing, the targets a_ij in the same column order: the
    elimination l_ik = a_ik / a_kk, a_ij -= l_ik a_kj.  The two
    substitutions read (row, ((slot, column), ...)) pairs, columns
    increasing: ``lower`` for each row with entries of L, ``upper`` for
    every row, from the last one up, with its entries of U right of the
    diagonal.  ``product`` is each row's (slot, column) list of the
    matrix itself, diagonal included.
    """

    dim: int
    cols: list
    n_fill: int
    flat: np.ndarray
    elim: tuple
    lower: tuple
    upper: tuple
    product: tuple


def plan_lu(rows: list, cols: list, dim: int) -> LuPlan:
    """The ``LuPlan`` of the pattern with entries (rows[e], cols[e]).

    The elimination follows ``_planned_lu``'s k, i, j order and skips
    only the pairs where a_ik or a_kj is a structural zero, so the slots
    it updates receive the same operations, in the same order, as in a
    dense no-pivot elimination; its cost is one multiply-add per update
    pair, O(d) on cyclic bi- and tridiagonal patterns and O(d^3) on a
    full one.
    """
    n = dim
    at = [{i: i} for i in range(n)]  # at[i][j]: the slot of entry (i, j)
    below = [set() for _ in range(n)]  # below[k]: rows i > k with a_ik
    for e, (i, j) in enumerate(zip(rows, cols)):
        at[i][j] = n + e
        if i > j:
            below[j].add(i)
    n_slots = n_pat = n + len(rows)
    elim = []
    for k in range(n):
        # row k holds all its fill once the pivots before k are done
        rk = at[k]
        js = sorted(j for j in rk if j > k)
        right = set(js)
        steps = []
        for i in sorted(below[k]):
            ri = at[i]
            for j in sorted(right.difference(ri)):  # fill, off the diagonal
                ri[j] = n_slots
                n_slots += 1
                if i > j:
                    below[j].add(i)
            steps.append((ri[k], tuple(map(ri.__getitem__, js))))
        elim.append((tuple(map(rk.__getitem__, js)), tuple(steps)))

    def by_column(terms):
        return tuple((s, j) for j, s in sorted(terms))

    lower = [by_column((j, s) for j, s in ri.items() if j < i)
             for i, ri in enumerate(at)]
    upper = [by_column((j, s) for j, s in ri.items() if j > i)
             for i, ri in enumerate(at)]
    product = [[(i, i)] for i in range(n)]
    for e, (i, j) in enumerate(zip(rows, cols)):
        product[i].append((j, n + e))

    flat = np.array([i * (n + 1) for i in range(n)]
                    + [i * n + j for i, j in zip(rows, cols)], dtype=np.intp)
    return LuPlan(dim=n, cols=list(cols), n_fill=n_slots - n_pat, flat=flat,
                  elim=tuple(elim),
                  lower=tuple((i, t) for i, t in enumerate(lower) if t),
                  upper=tuple(reversed(list(enumerate(upper)))),
                  product=tuple(map(by_column, product)))


class PlannedPatankar:
    """Patankar matrix on an ``LuPlan``: ``vals`` is the list of its
    slots' Python floats, diagonal first; ``lu`` is the same list
    factored, once the matrix has been solved.  Entries off the plan
    read -0.0, the 0.0 * -fac of the dense assembly for every fac >= 0.
    """

    __slots__ = ("vals", "plan", "lu")

    def __init__(self, vals: list, plan: LuPlan):
        self.vals = vals
        self.plan = plan
        self.lu = None

    def __matmul__(self, v):
        vl = np.asarray(v, dtype=float).tolist()
        vals = self.vals
        out = []
        for terms in self.plan.product:
            s = 0.0
            for k, j in terms:
                s += vals[k] * vl[j]
            out.append(s)
        return np.array(out)

    def toarray(self) -> np.ndarray:
        plan = self.plan
        n = plan.dim
        A = np.full(n * n, -0.0)
        A[plan.flat] = self.vals[:plan.flat.size]
        return A.reshape(n, n)


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


def _planned_lu(vals: list, plan: LuPlan) -> list:
    """No-pivot LU factor of a ``PlannedPatankar``'s slots: U's entries
    and L's multipliers in the slots of the matrix entries they replace."""
    if not all(map(isfinite, vals)):
        raise ValueError("matrix has non-finite entries")
    lu = vals.copy()
    for k, (sources, steps) in enumerate(plan.elim):
        p = lu[k]
        if not p > 0.0:
            raise _singular(vals, k, f"pivot {p:.3e}")
        for m, targets in steps:
            f = lu[m] = lu[m] / p
            for t, s in zip(targets, sources):
                lu[t] -= f * lu[s]
    return lu


def _planned_substitute(lu: list, plan: LuPlan, x: list) -> list:
    """Solve L U x = b in place on the list ``x`` = b, with the factor
    of ``_planned_lu``."""
    for i, terms in plan.lower:
        s = x[i]
        for k, j in terms:
            s -= lu[k] * x[j]
        x[i] = s
    for i, terms in plan.upper:
        s = x[i]
        for k, j in terms:
            s -= lu[k] * x[j]
        x[i] = s / lu[i]
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
    ndarray, by the no-pivot factor a ``PlannedPatankar`` or a
    ``CyclicTridiagonal`` computes on its first solve and keeps.

    Raises ValueError for a non-square matrix, a right-hand side of the
    wrong length or non-finite matrix entries, and SingularMatrixError
    when LAPACK meets an exactly zero pivot, the no-pivot elimination a
    non-positive one, or the solution overflows to non-finite values;
    the message names a row and its fac*loss/denom.
    """
    b = np.asarray(b, dtype=float)
    if isinstance(A, PlannedPatankar):
        n = A.plan.dim
        if b.shape != (n,):
            raise ValueError("right-hand side length mismatch")
        if A.lu is None:
            A.lu = _planned_lu(A.vals, A.plan)
        x = _planned_substitute(A.lu, A.plan, b.tolist())
        if not all(map(isfinite, x)):
            raise _at_largest_diagonal(A.vals[:n], "non-finite solution")
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
