"""Patankar matrices, assembled and solved in two formats: no-pivot
elimination on Python floats, planned once per exchange pattern and
compiled to straight-line code once the pattern has been factored often
enough, and an O(N) sweep for cyclic-tridiagonal matrices.

The Patankar matrices of the schemes have a positive diagonal,
non-positive off-diagonal entries and column sums >= 1, so they are
column diagonally dominant M-matrices.  Gaussian elimination on such a
matrix needs no pivoting and keeps the M-matrix sign pattern in any
elimination order, so a positive right-hand side gives a positive
solution in floating point as well (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 9), as long as the unit part of the diagonal
survives rounding, i.e. fac*loss/denom stays well below 1/eps.  Beyond
that the matrix is singular to working precision and no elimination
order keeps positivity.  A positive solution component can still
underflow to a subnormal or to zero; a solve checked for positivity
floors such components to the smallest normal number, tiny, so that
later divisions by them stay finite.  So each floored solve adds at most
d * tiny of mass (about 2.2e-308 per component, as O(1D) and O show on
the stratospheric night).

``patankar_matrix`` assembles a matrix in one of two formats, raising
``PositivityError`` on a denominator that is not positive and finite (an
infinite one would drop its component's loss term), and ``lu_solve``
solves those two formats and nothing else:

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
  rows before, the solutions keep their bits.  The plan's methods
  assemble, factor and substitute, solve a matrix (the slots checked
  finite, the factorization, the substitution, the solution checked
  finite and, given a name, positive), build a step's system, and probe
  a system at gamma and take the probe's tangent, in loops over its
  index tuples.  At its ``COMPILE_AFTER``-th factorization a plan
  compiles (``LuPlan.compile``), as chemistry codes generate the sparse
  LU of a fixed kinetics pattern (KPP; Damian, Sandu, Damian, Potra &
  Carmichael, Comput. Chem. Eng. 2002), and binds ``solve``,
  ``probe``, ``tangent`` and ``system`` on itself to straight-line
  Python on one local variable per slot, with the loops' operations,
  checks and messages in their order, so the switch moves no bit.  (The
  assembly stays interpreted: the compiled ``system`` and ``probe``
  assemble inline.)  A kernel tests its slots and its solution finite inline, by
  one sum of them (a sum of finite floats is finite unless it
  overflows, and only then are the entries tested one by one), and
  ``solve`` is ``lu_solve``'s first solve in one call.  As KPP
  generates the whole kinetic step, the compiled ``system`` generates,
  once per number of rate sets, a kernel that takes a step's rate sets
  from ``matrix_rates``'s output (each set's lists,
  ``pdrs.RateSet.lists``) to the system it solves: the loss sums, the
  weighted sums, g, the right-hand side and the slots in one call.  So a step of a small
  system stays on lists of Python floats up to its solution, and its
  ``PlannedSystem`` keeps them, with its denominators, for the
  gamma-probes: ``LuPlan.probe`` takes a probe from gamma to its checked
  solution and factor in one call (assembly at gamma dt, the slots
  checked finite, the factorization, u_n + gamma g substituted, the
  solution checked finite and positive), and ``LuPlan.tangent`` the
  probe's tangent in one substitution on that factor;
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
the step record keeps beside the latest probe's (``schemes.StepRecord``).

``patankar_matrix`` chooses the format from the number of unknowns d
and the exchange pattern the system declares (``pdrs.ExchangePattern``),
never from the rate values: from ``BAND_MIN_DIM`` on, the band format
when every entry of the pattern lies on the cyclic sub- or
super-diagonal (``plan_band``, which the pattern calls once, on first
use); the planned format otherwise.  No path scans a d x d array.

Per Patankar system, in microseconds on a 2-core x86-64 VM (Python 3.11,
numpy 2.4, BLAS on one thread; per cell the fastest of six processes,
each the fastest of five runs of 15 repetitions, since the host's speed
varies by about 20 % between processes): a step's system from one fresh
rate set and its first solve (``patankar_matrix``'s step form, the rate
set's ``lists`` included, and ``lu_solve``), and a second solve with the
kept factor, on the interpreted loops, on the compiled kernels (the
step kernel and the fused ``solve``) and, for the cyclic patterns, on
the band format (``BAND_MIN_DIM`` moved for the measurement).  A
compiled plan's second solve runs the interpreted substitution, so that
column has no compiled entry.  ``ops`` counts the multipliers, updates,
substitution terms and divisions of one factorization and solve; the
last column is one compile of the ``solve`` kernel and the one-set step
kernel:

                                 first solve       second solve  compile
    pattern                 ops interp  comp  band  interp  band      ms
    stratospheric, d = 6     61   20.1   8.1     -     2.4     -    1.60
    cyclic tridiagonal, 6    50   19.4   8.2  27.6     2.6   5.5    1.53
                       17   171   36.6  16.6  28.3     5.5   6.8    3.29
                       32   336   62.3  29.4  35.0     9.7   9.3    6.85
                       40   424   82.2  38.8  40.1    12.3  11.2    8.14
                       48   512   97.1  45.5  42.7    15.2  12.8    9.65
                       63   677  119.0  57.4  47.0    18.4  14.8    12.1
                      100  1084  185.1  96.6  67.2    30.1  22.9    21.0
    cyclic bidiagonal, 17    81   27.1  13.2  25.8     4.6   5.9    2.62
                       32   156   43.0  21.8  30.6     8.0   8.2    4.50
                       63   311   78.3  42.4  42.0    14.9  13.0    8.86
                      100   496  117.6  63.0  49.4    21.9  17.7    14.4
    full, d = 6             106   27.0  11.3     -     3.0     -    1.98
    full, d = 17           1921  187.9  85.0     -    14.4     -    17.5
    full, d = 40          22920 1502.2 717.6     -    60.5     -     178

The kernels take 0.40-0.54 of the interpreted time of a system and
first solve.  A step kernel for two rate sets compiles in 0.95-2.2
times the one-set kernel's time (one process, the fastest of three
compiles per pattern).  The compile pays for itself after compile /
(interpreted - compiled) systems: 126 to 264 on the patterns above, 133
on the stratospheric one.  ``COMPILE_AFTER`` = 200 sits in that range.
Compiling at the break-even count is the ski-rental rule: a pattern
factored fewer times never compiles and pays nothing extra (the tests'
one-use random patterns, up to full d = 40 and 63, would spend about
0.2-0.65 s each), and one factored more pays at most about twice the
cost of the better choice made in hindsight.  The stratospheric pattern
compiles within the first 3 % of a noon-to-midnight run (8,324
factorizations).

Against the band format, the compiled kernels take less for a system
and first solve up to about d = 40 on a cyclic tridiagonal pattern
(38.8 against 40.1 us; 45.5 against 42.7 at d = 48), and as much at d =
63 on a cyclic bidiagonal one (42.4 against 42.0; 63.0 against 49.4 at
d = 100).  A second solve takes less on the band format from about d =
32 on both.  ``BAND_MIN_DIM`` = 64 stays: moving it to the first-solve
crossover would gain at most a fifth of a tridiagonal first solve
between d = 40 and 63 (57.4 against 47.0 us at 63), and put the Euler
density and PME at test sizes (N = 40 to 63) on the band format, whose
sweep differs from the natural-order elimination by roundoff.  At 100
the sweep takes 0.55-0.8 of a dense LAPACK solve's time, at 1,000 about
0.05.  No registered problem has a pattern off the cyclic band at d >=
``BAND_MIN_DIM``; on one, the planned format's cost is its operation
count, O(d) for a band plus a few entries and O(d^3) for a full
pattern.
"""

from __future__ import annotations

import linecache
import weakref
from math import isfinite
from typing import NamedTuple, Optional

import numpy as np

BAND_MIN_DIM = 64
# the factorization at which a plan compiles its kernels (see the module
# docstring for how it is derived)
COMPILE_AFTER = 200
# the most subtractions one compiled substitution statement chains: the
# compiler's recursion limit stops a chain of about 5,000
_TERMS_PER_LINE = 16

_INV_EPS = 1.0 / np.finfo(float).eps
_TINY = np.finfo(float).tiny
_INF = float("inf")


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class PositivityError(ValueError):
    """A state vector left the positive orthant."""


class LuPlan:
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
    diagonal.

    The methods ``assemble``, ``factor``, ``substitute``, ``solve``,
    ``probe``, ``tangent`` and ``system`` run interpreted loops over those
    tuples.  ``factored`` counts the factorizations they ran; the
    ``COMPILE_AFTER``-th calls ``compile``, which binds ``solve``,
    ``probe``, ``tangent`` and ``system`` on the instance to generated
    straight-line kernels and keeps the source of ``solve`` in
    ``source``; the class attributes stay the cold path and the
    reference.  ``assemble``, ``factor`` and ``substitute`` stay
    interpreted: ``system`` and ``probe`` assemble, and ``solve`` and
    ``probe`` factor and substitute, in their own kernels, and no step
    solves a planned matrix a second time.  ``systems`` maps a number of
    rate sets to its compiled step kernel.
    """

    def __init__(self, dim, cols, n_fill, flat, elim, lower, upper):
        self.dim, self.cols, self.n_fill, self.flat = dim, cols, n_fill, flat
        self.elim, self.lower, self.upper = elim, lower, upper
        self.factored = 0
        self.source = None
        self.systems = {}

    def _exec(self, source: str, what: str) -> dict:
        """Compile ``source`` and return the names it defines.  The source
        is registered with ``linecache`` under a file name of its own, so
        a traceback out of a kernel shows the failing line and ``pdb`` can
        step through it; the entry goes with the plan."""
        name = (f"<lu-plan d={self.dim} nnz={len(self.cols)} "
                f"fill={self.n_fill} at {id(self):#x}{what}>")
        linecache.cache[name] = (len(source), None, source.splitlines(True),
                                 name)
        weakref.finalize(self, linecache.cache.pop, name, None)
        scope = {"_singular": _singular, "_bad_denominator": _bad_denominator,
                 "_at_largest_diagonal": _at_largest_diagonal,
                 "_floored": _floored, "_TINY": _TINY, "_INF": _INF,
                 "isfinite": isfinite}
        exec(compile(source, name, "exec"), scope)
        return scope

    def compile(self) -> None:
        """Generate, compile and bind the plan's kernels, once; the probe
        and tangent kernels are generated together on the first call of
        either (a plan that never relaxes never builds them), a step
        kernel on first use per number of rate sets."""
        if self.source is not None:
            return
        self.source = _kernel_source(self)
        self.solve = self._exec(self.source, "")["solve"]

        def on_first_call(name):
            def generate(*args):
                scope = self._exec(_curve_source(self), ": probe")
                self.probe, self.tangent = scope["probe"], scope["tangent"]
                return scope[name](*args)
            return generate

        self.probe, self.tangent = on_first_call("probe"), on_first_call(
            "tangent")
        systems = self.systems

        def system(w, sets, d, fac, u):
            kernel = systems.get(len(sets))
            if kernel is None:
                kernel = systems[len(sets)] = self._exec(
                    _system_source(self, len(sets)),
                    f": {len(sets)} rate sets")["system"]
            return kernel(w, sets, d, fac, u)

        self.system = system

    def assemble(self, loss: list, denom: list, vals: list,
                 fac: float) -> list:
        """The slots of a Patankar matrix from the lists of its losses,
        denominators and pattern values; a denominator that is not
        positive and finite raises ``PositivityError``."""
        for dj in denom:
            if not 0.0 < dj < _INF:
                raise _bad_denominator(denom)
        nfac = -fac
        slots = [1.0 + fac * lj / dj for lj, dj in zip(loss, denom)]
        slots += [p * nfac / denom[j] for p, j in zip(vals, self.cols)]
        slots += [0.0 * nfac] * self.n_fill
        return slots

    def factor(self, vals: list) -> list:
        """The no-pivot LU factor of a matrix's slots: U's entries and L's
        multipliers in the slots of the matrix entries they replace."""
        self.factored += 1
        if self.factored >= COMPILE_AFTER:
            self.compile()
        lu = vals.copy()
        for k, (sources, steps) in enumerate(self.elim):
            p = lu[k]
            if not p > 0.0:
                raise _singular(vals, k, f"pivot {p:.3e}")
            for m, targets in steps:
                f = lu[m] = lu[m] / p
                for t, s in zip(targets, sources):
                    lu[t] -= f * lu[s]
        return lu

    def substitute(self, lu: list, b: list) -> list:
        """The solution of L U x = b, ``lu`` the factor of ``factor``."""
        x = b.copy()
        for i, terms in self.lower:
            s = x[i]
            for k, j in terms:
                s -= lu[k] * x[j]
            x[i] = s
        for i, terms in self.upper:
            s = x[i]
            for k, j in terms:
                s -= lu[k] * x[j]
            x[i] = s / lu[i]
        return x

    def solve(self, vals: list, b: list, positive: Optional[str]) -> tuple:
        """A matrix's first solve in one call: ``(lu, x)``, the factor of
        the slots ``vals`` and the solution x at b, checked as
        ``lu_solve`` checks a first solve: the slots finite, the pivots
        positive, x finite and, given its name ``positive``, positive and
        floored to tiny."""
        if not all_finite(vals):
            raise ValueError("matrix has non-finite entries")
        lu = self.factor(vals)
        return lu, _checked(self.substitute(lu, b), vals, self.dim, positive)

    def probe(self, loss: list, denom: list, vals: list, fac: float,
              u: list, g, gamma: float, positive: str) -> tuple:
        """A system's gamma-probe in one call: ``(slots, lu, x)``, the
        slots of ``assemble``, their factor and the solution x of the
        matrix at u + gamma g, as ``solve`` gives them."""
        slots = self.assemble(loss, denom, vals, fac)
        b = [a + gamma * c for a, c in zip(u, g)]
        return (slots, *self.solve(slots, b, positive))

    def tangent(self, vals: list, lu: list, x: list, u: list, gamma: float,
                v: Optional[list]) -> list:
        """The tangent of a probe in one call: v + (L U)^-1 ((x - u)/gamma
        - v) on the factor ``lu`` of the slots ``vals``, with no v when
        it is None, the solve checked finite as ``lu_solve`` checks it."""
        rhs = [(a - b) / gamma for a, b in zip(x, u)]
        if v is not None:
            rhs = [r - w for r, w in zip(rhs, v)]
        dx = _checked(self.substitute(lu, rhs), vals, self.dim, None)
        return dx if v is None else [a + b for a, b in zip(v, dx)]

    def system(self, weights: list, sets: list, denom: list, fac: float,
               u: list) -> tuple:
        """A step's Patankar system on lists of Python floats: ``(slots,
        P, loss, g, rhs)``, the matrix of the weighted sums P, loss and rP
        of the rate sets, g = fac * rP and rhs = u + g.

        ``sets`` holds each rate set's ``(values, rP, rD)`` lists.  Each
        loss is rD plus the column sums of the values, taken in pattern
        order from 0.0, as ``RateSet.loss``'s ``bincount`` takes them, and
        each weighted sum starts from 0.0, as ``_weighted`` does, so no
        sum holds a negative zero.
        """
        n, cols = self.dim, self.cols
        P, loss, rP = [0.0] * len(cols), [0.0] * n, [0.0] * n
        for w, (vals, rp, rd) in zip(weights, sets):
            col = [0.0] * n
            for v, j in zip(vals, cols):
                col[j] += v
            P = [a + w * v for a, v in zip(P, vals)]
            loss = [a + w * (e + c) for a, e, c in zip(loss, rd, col)]
            rP = [a + w * v for a, v in zip(rP, rp)]
        g = [fac * v for v in rP]
        return (self.assemble(loss, denom, P, fac), P, loss, g,
                [a + b for a, b in zip(u, g)])


def plan_lu(rows: list, cols: list, dim: int) -> LuPlan:
    """The ``LuPlan`` of the pattern with entries (rows[e], cols[e]).

    The elimination follows ``LuPlan.factor``'s k, i, j order and skips
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

    flat = np.array([i * (n + 1) for i in range(n)]
                    + [i * n + j for i, j in zip(rows, cols)], dtype=np.intp)
    return LuPlan(dim=n, cols=list(cols), n_fill=n_slots - n_pat, flat=flat,
                  elim=tuple(elim),
                  lower=tuple((i, t) for i, t in enumerate(lower) if t),
                  upper=tuple(reversed(list(enumerate(upper)))))


def plan_band(rows: np.ndarray, cols: np.ndarray, dim: int):
    """Flat index of each entry (rows[e], cols[e]) in the (3, dim) band
    array of a ``CyclicTridiagonal`` (rows ``sub, diag, sup``, column i
    for matrix row i); None when an entry lies off the cyclic sub- and
    super-diagonal or dim < 3."""
    n = dim
    if n < 3:
        return None
    sub, sup = cols == (rows - 1) % n, cols == (rows + 1) % n
    if not (sub | sup).all():
        return None
    return np.where(sub, 0, 2 * n) + rows


class PlannedPatankar:
    """Patankar matrix on an ``LuPlan``: ``vals`` is the list of its
    slots' Python floats, diagonal first; ``lu`` is the same list
    factored, once the matrix has been solved.  Entries off the plan
    read -0.0, the 0.0 * -fac of the dense assembly for every fac >= 0.
    """

    __slots__ = ("vals", "plan", "lu")

    def __init__(self, vals: list, plan: LuPlan, lu: Optional[list] = None):
        self.vals = vals
        self.plan = plan
        self.lu = lu

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

    def toarray(self) -> np.ndarray:
        sub, diag, sup = self.bands
        n = diag.size
        i = np.arange(n)
        A = np.zeros((n, n))
        A[i, i] = diag
        A[i, i - 1] = sub
        A[i, (i + 1) % n] = sup
        return A


class PatankarSystem(NamedTuple):
    """A step's Patankar system M_gamma x = u_n + gamma g, with M_gamma =
    I + gamma dt (diag(loss/d) - P/d) on positive denominators d: the
    exchange ``pattern`` and the weighted exchange values ``vals``, so a
    system is an exchange ``patankar_matrix`` reassembles from, ``loss``,
    the gamma-linear part ``g`` of the right-hand side, ``u`` = u_n,
    ``M``, the matrix at gamma = 1 with the factor its solve left on it,
    and ``d``, the denominators it was assembled on.  The values are
    lists of Python floats on the planned format and numpy arrays on the
    band format; MPSSPRK2 puts an array g on either.

    The step form of ``patankar_matrix`` returns a ``PlannedSystem`` or a
    ``BandSystem``, whose methods are the system at any gamma:
    ``solve_at(gamma, dt, positive, denom)`` is ``(kept, x, state)``, the
    matrix at gamma dt on the denominators ``denom`` (the system's own
    when None) with its factor, and the solution x of M x = u_n + gamma
    g in the system's format and as an array, checked positive under
    the name ``positive``; ``tangent(kept, x, gamma, v)`` is dx/dgamma
    there: M x' = (x - u_n)/gamma + (M - I) v with v = x d'/d, solved as
    x' = v + M^-1 ((x - u_n)/gamma - v), one solve on the kept factor and
    no product M v, ``v`` (an array) None for a frozen d; and ``one(x)``
    is ``(kept, x)`` of the step's own solve, x the solution at gamma =
    1.  Each format's methods give the bits of ``patankar_matrix`` and
    ``lu_solve``.
    """

    pattern: object
    vals: object
    loss: object
    g: object
    u: object
    M: object
    d: object

    def rhs(self, gamma: float):
        """u_n + gamma g, in the format of g."""
        u, g = self.u, self.g
        if type(g) is list:
            return [a + gamma * b for a, b in zip(u, g)]
        return u + gamma * g


class PlannedSystem(PatankarSystem):
    """A ``PatankarSystem`` on the planned format: a probe is one
    ``LuPlan.probe`` (the slots assembled, checked finite and factored,
    the right-hand side substituted, the solution checked finite and
    positive) and a tangent one ``LuPlan.tangent`` on the kept slot lists
    ``kept``, on the system's lists."""

    __slots__ = ()

    def solve_at(self, gamma: float, dt: float, positive: str,
                 denom=None) -> tuple:
        # the plan's probe is read on each call: it may compile during
        # the step
        slots, lu, x = self.M.plan.probe(
            self.loss, self.d if denom is None else _floats(denom),
            self.vals, gamma * dt, self.u, self.g, gamma, positive)
        return (slots, lu), x, np.array(x)

    def tangent(self, kept: tuple, x: list, gamma: float,
                v: Optional[np.ndarray] = None) -> np.ndarray:
        return np.array(self.M.plan.tangent(
            kept[0], kept[1], x, self.u, gamma,
            None if v is None else v.tolist()))

    def one(self, x: np.ndarray) -> tuple:
        M = self.M
        return (M.vals, _factored(M)), x.tolist()


class BandSystem(PatankarSystem):
    """A ``PatankarSystem`` on the band format: a probe assembles with
    ``patankar_matrix`` and solves with ``lu_solve``, a tangent solves
    with ``lu_solve`` on the kept matrix ``kept``."""

    __slots__ = ()

    def solve_at(self, gamma: float, dt: float, positive: str,
                 denom=None) -> tuple:
        M = patankar_matrix(self, self.loss, self.d if denom is None
                            else denom, gamma * dt)
        x = lu_solve(M, self.rhs(gamma), positive)
        return M, x, x

    def tangent(self, M: CyclicTridiagonal, x: np.ndarray, gamma: float,
                v: Optional[np.ndarray] = None) -> np.ndarray:
        rhs = (x - self.u) / gamma
        if v is None:
            return lu_solve(M, rhs)
        return v + lu_solve(M, rhs - v)

    def one(self, x: np.ndarray) -> tuple:
        return self.M, x


def all_finite(xs: list) -> bool:
    """Whether every float of the list ``xs`` is finite."""
    # an inf or a NaN makes the sum inf or NaN, and a sum of finite
    # floats is finite unless it overflows: one pass in C decides all
    # but that case
    return isfinite(sum(xs)) or all(map(isfinite, xs))


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


def _floats(x) -> list:
    """``x`` as a list of Python floats; a list is taken as it is."""
    return x if type(x) is list else x.tolist()


def _bad_denominator(denom) -> PositivityError:
    bad = next(j for j, dj in enumerate(denom) if not 0.0 < dj < _INF)
    dj = denom[bad]
    if dj == 0.0:
        # the denominators are positive states or geometric means of
        # them, so a zero is a mean below the smallest subnormal
        return PositivityError(
            f"denominator component [{bad}] underflowed to zero")
    if dj == _INF:
        # and an infinity a mean above the largest float, whose loss
        # term fac * loss / inf would vanish without a word
        return PositivityError(
            f"denominator component [{bad}] overflowed to infinity")
    if dj != dj:
        return PositivityError(f"denominator component [{bad}] is NaN")
    return PositivityError(f"non-positive denominator component [{bad}]")


def _weighted(rates, weights):
    """The weighted sums of the rate sets' exchange values, losses and
    production rest terms, on numpy arrays."""
    # start from 0: 0 + (-0.0) is +0.0, so no sum holds a negative zero
    vals = loss = rP = 0
    for w, r in zip(weights, rates):
        vals = vals + w * r.P.vals
        loss = loss + w * r.loss
        rP = rP + w * r.rest_prod
    return vals, loss, rP


def patankar_matrix(P_w, loss_w, denom, fac: float, u_n=None):
    """I + fac*diag(loss/denom) - fac*P/denom (column-scaled); a
    denominator that is not positive and finite raises
    ``PositivityError`` naming the first such component, so that an
    infinite one cannot drop its loss term.

    ``P_w`` is an exchange, a pattern and its ``vals`` (a
    ``pdrs.Exchange`` or a ``PatankarSystem``), and ``loss_w`` the loss,
    both already weight-summed; ``fac`` carries the dt (and gamma)
    factor.  The format follows the dimension and the pattern (see the
    module docstring), never the values.  Both formats hold the entries
    of the dense assembly of the scattered exchange matrix, bit for bit:
    (p * -fac) / denom_j at the pattern's entries, 1 + fac * loss_j /
    denom_j on the diagonal and, elsewhere, (0.0 * -fac) / denom_j,
    which both write as 0.0 * -fac (the same bits for a positive
    denom_j).  The planned format takes its inputs as arrays or as lists
    of floats.

    Given the state ``u_n``, the call is a step's: ``P_w`` is a sequence
    of rate sets on one pattern and ``loss_w`` their weights, and the
    result is ``(system, rhs)``, the ``PatankarSystem`` of the weighted
    sums P, loss and rP with g = fac * rP, and its right-hand side at
    gamma = 1.  The band format sums on numpy arrays; the planned one on
    lists of Python floats, in ``LuPlan.system``, from each rate set's
    ``lists``.
    """
    step = u_n is not None
    pat = P_w[0].P.pattern if step else P_w.pattern
    n = pat.dim
    slots = pat.band_slots if n >= BAND_MIN_DIM else None
    if slots is None:
        plan = pat.lu_plan
        dl = _floats(denom)
        fac = float(fac)
        if step:
            u = dl if u_n is denom else _floats(u_n)
            vals, P, loss, g, rhs = plan.system(
                _floats(loss_w), [r.lists for r in P_w], dl, fac, u)
            return PlannedSystem(pat, P, loss, g, u,
                                 PlannedPatankar(vals, plan), dl), rhs
        return PlannedPatankar(plan.assemble(_floats(loss_w), dl,
                                             _floats(P_w.vals), fac), plan)
    denom = np.asarray(denom, float)
    # NaN fails both comparisons
    if not (0.0 < np.minimum.reduce(denom)
            and np.maximum.reduce(denom) < _INF):
        raise _bad_denominator(denom)
    if step:
        P, loss_w, rP = _weighted(P_w, loss_w)
        g = fac * rP
    else:
        P = P_w.vals
    off = P * -fac
    off /= denom.take(pat.cols)
    bands = np.empty(3 * n)
    bands.fill(0.0 * -fac)
    bands[slots] = off
    bands = bands.reshape(3, n)
    diag = bands[1]
    np.multiply(fac, loss_w, out=diag)
    diag /= denom
    diag += 1.0
    M = CyclicTridiagonal(bands)
    if step:
        return BandSystem(pat, P, loss_w, g, u_n, M, denom), u_n + g
    return M


def _unpack(names: list, seq: str) -> list:
    """The statement unpacking the sequence ``seq`` into locals ``names``."""
    return [f"    {', '.join(names)}, = {seq}"] if names else []


def _slot_names(plan: LuPlan) -> list:
    """The locals a<s> of a plan's slots."""
    return [f"a{s}" for s in range(plan.dim + len(plan.cols) + plan.n_fill)]


def _assembly(plan: LuPlan) -> list:
    """Statements assigning a Patankar matrix's slots to the locals a<s>,
    from the locals l<k> (losses), d<k> (denominators) and p<e> (pattern
    values) and ``fac``, as ``LuPlan.assemble`` does."""
    n, cols, n_fill = plan.dim, plan.cols, plan.n_fill
    checks = " and ".join(f"0.0 < d{k} < _INF" for k in range(n))
    lines = [f"    if not ({checks}): raise _bad_denominator(d)"]
    if cols or n_fill:
        lines.append("    nfac = -fac")
    lines += [f"    a{i} = 1.0 + fac * l{i} / d{i}" for i in range(n)]
    lines += [f"    a{n + e} = p{e} * nfac / d{j}" for e, j in enumerate(cols)]
    if n_fill:
        lines.append(f"    {' = '.join(_slot_names(plan)[n + len(cols):])} "
                     f"= 0.0 * nfac")
    return lines


def _finite_test(names: list, seq: str) -> str:
    """An expression true when an entry of the list ``seq``, whose
    locals are ``names``, is not finite, as ``all_finite`` decides it: a
    short list is summed inline, a long one by ``sum``."""
    total = (" + ".join(names) if len(names) <= _TERMS_PER_LINE
             else f"sum({seq})")
    return f"not isfinite({total}) and not all(map(isfinite, {seq}))"


def _inputs(plan: LuPlan) -> list:
    """Statements unpacking the lists l, d and p of an assembly's losses,
    denominators and pattern values into the locals of ``_assembly``."""
    n = plan.dim
    return [*_unpack([f"l{i}" for i in range(n)], "l"),
            *_unpack([f"d{i}" for i in range(n)], "d"),
            *_unpack([f"p{e}" for e in range(len(plan.cols))], "p")]


def _factor_lines(plan: LuPlan) -> list:
    """Statements eliminating the locals a<s> in place, as
    ``LuPlan.factor`` does, with its pivot checks and messages on the
    list ``vals``."""
    lines = []
    for k, (sources, steps) in enumerate(plan.elim):
        lines.append(f"    if not a{k} > 0.0: raise _singular("
                     f"vals, {k}, f\"pivot {{a{k}:.3e}}\")")
        for m, targets in steps:
            lines.append(f"    a{m} /= a{k}")
            lines += [f"    a{t} -= a{m} * a{s}"
                      for t, s in zip(targets, sources)]
    return lines


def _substitution_lines(plan: LuPlan) -> list:
    """Statements taking the locals x<i> from b to the solution of
    L U x = b on the factor's locals a<s>, as ``LuPlan.substitute``
    does; a row is split into statements of at most ``_TERMS_PER_LINE``
    terms."""
    lines = []
    rows = [(i, terms, False) for i, terms in plan.lower]
    rows += [(i, terms, True) for i, terms in plan.upper]
    for i, terms, divide in rows:
        exprs = [f"x{i}" + "".join(f" - a{k} * x{j}"
                                   for k, j in terms[c:c + _TERMS_PER_LINE])
                 for c in range(0, len(terms), _TERMS_PER_LINE)]
        if divide:
            exprs.append(f"({exprs.pop() if exprs else f'x{i}'}) / a{i}")
        lines += [f"    x{i} = {e}" for e in exprs]
    return lines


def _solution_lines(plan: LuPlan) -> list:
    """Statements from the slot locals a<s>, the list ``vals`` of their
    values, and the right-hand side's locals x<i> to the factor's locals
    and the checked solution ``x``, as ``LuPlan.solve`` does, with its
    checks and messages in their order."""
    n = plan.dim
    xs = [f"x{i}" for i in range(n)]
    return [f"    if {_finite_test(_slot_names(plan), 'vals')}: "
            f"raise ValueError(\"matrix has non-finite entries\")",
            *_factor_lines(plan), *_substitution_lines(plan),
            f"    x = [{', '.join(xs)}]",
            f"    if {_finite_test(xs, 'x')}: raise _at_largest_diagonal("
            f"vals[:{n}], \"non-finite solution\")",
            "    if positive is not None and min(x) < _TINY: "
            "x = _floored(x, positive)"]


def _kernel_source(plan: LuPlan) -> str:
    """Python source of a plan's ``solve(vals, x, positive)``, the
    ``LuPlan`` method as straight-line code on one local per slot (a<s>)
    and per unknown (x<i>).  It does the loops' floating-point
    operations in their order (x - a - b is (x - a) - b, as the loops
    subtract), with their checks and messages in their order, so every
    result and every error keeps its bits.  A substitution row is split
    into statements of at most ``_TERMS_PER_LINE`` terms, which bounds
    the expression depth the compiler meets on a dense row.
    """
    slots = ", ".join(_slot_names(plan))
    lines = ["def solve(vals, x, positive):",
             *_unpack(_slot_names(plan), "vals"),
             *_unpack([f"x{i}" for i in range(plan.dim)], "x"),
             *_solution_lines(plan), f"    return [{slots}], x"]
    return "\n".join(lines) + "\n"


def _curve_source(plan: LuPlan) -> str:
    """Python source of a plan's ``probe(l, d, p, fac, u, g, gamma,
    positive)`` and ``tangent(vals, lu, x, u, gamma, v)``, the ``LuPlan``
    methods as straight-line code on the locals of ``_kernel_source``,
    with their checks and messages in their order, so every result and
    every error keeps its bits."""
    n = plan.dim
    slots = ", ".join(_slot_names(plan))
    xs = [f"x{i}" for i in range(n)]
    us = _unpack([f"u{i}" for i in range(n)], "u")
    lines = ["def probe(l, d, p, fac, u, g, gamma, positive):",
             *_inputs(plan), *_assembly(plan), f"    vals = [{slots}]", *us,
             *_unpack([f"g{i}" for i in range(n)], "g"),
             *(f"    x{i} = u{i} + gamma * g{i}" for i in range(n)),
             *_solution_lines(plan), f"    return vals, [{slots}], x"]
    vs = [f"v{i}" for i in range(n)]
    lines += ["", "", "def tangent(vals, lu, x, u, gamma, v):",
              *_unpack(_slot_names(plan), "lu"), *_unpack(xs, "x"), *us,
              *(f"    x{i} = (x{i} - u{i}) / gamma" for i in range(n)),
              "    if v is not None:", "    " + _unpack(vs, "v")[0],
              *(f"        x{i} = x{i} - v{i}" for i in range(n)),
              *_substitution_lines(plan), f"    x = [{', '.join(xs)}]",
              f"    if {_finite_test(xs, 'x')}: raise _at_largest_diagonal("
              f"vals[:{n}], \"non-finite solution\")",
              "    if v is None: return x",
              f"    return [{', '.join(f'v{i} + x{i}' for i in range(n))}]"]
    return "\n".join(lines) + "\n"


def _system_source(plan: LuPlan, n_sets: int) -> str:
    """Python source of ``system(w, sets, d, fac, u)``, the straight-line
    ``LuPlan.system`` for ``n_sets`` rate sets, on one local per
    value: rate set s's exchange values v<s>_<e>, rest terms r<s>_<k>
    (rP) and e<s>_<k> (rD) and column sums c<s>_<k>, the weighted sums
    p<e> and l<k>, g<k>, and the denominators d<k> and states u<k>.

    It does the interpreted loops' floating-point operations in their
    order, so every result keeps its bits; a column sum is split, as a
    substitution row is, into statements of at most ``_TERMS_PER_LINE``
    terms.
    """
    n, cols = plan.dim, plan.cols
    sets = range(n_sets)
    lines = ["def system(w, sets, d, fac, u):",
             *_unpack([f"w{s}" for s in sets], "w"),
             f"    {''.join(f'(v{s}, r{s}, e{s}), ' for s in sets)}= sets",
             *_unpack([f"d{k}" for k in range(n)], "d"),
             *_unpack([f"u{k}" for k in range(n)], "u")]
    by_col = [[] for _ in range(n)]
    for e, j in enumerate(cols):
        by_col[j].append(e)
    for s in sets:
        lines += [*_unpack([f"v{s}_{e}" for e in range(len(cols))], f"v{s}"),
                  *_unpack([f"r{s}_{k}" for k in range(n)], f"r{s}"),
                  *_unpack([f"e{s}_{k}" for k in range(n)], f"e{s}")]
        for k, entries in enumerate(by_col):
            lines.append(f"    c{s}_{k} = 0.0")
            for c in range(0, len(entries), _TERMS_PER_LINE):
                lines.append(f"    c{s}_{k} = c{s}_{k}" + "".join(
                    f" + v{s}_{e}" for e in entries[c:c + _TERMS_PER_LINE]))
    lines += [f"    p{e} = 0.0" + "".join(f" + w{s} * v{s}_{e}" for s in sets)
              for e in range(len(cols))]
    lines += [f"    l{k} = 0.0" + "".join(f" + w{s} * (e{s}_{k} + c{s}_{k})"
                                          for s in sets) for k in range(n)]
    lines += [f"    g{k} = fac * (0.0" + "".join(f" + w{s} * r{s}_{k}"
                                               for s in sets) + ")"
              for k in range(n)]
    lines += [*_assembly(plan), "    return (["
              f"{', '.join(_slot_names(plan))}], "
              f"[{', '.join(f'p{e}' for e in range(len(cols)))}], "
              f"[{', '.join(f'l{k}' for k in range(n))}], "
              f"[{', '.join(f'g{k}' for k in range(n))}], "
              f"[{', '.join(f'u{k} + g{k}' for k in range(n))}])"]
    return "\n".join(lines) + "\n"


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


def _rhs(b, n: int) -> list:
    """The right-hand side as a list of floats, checked to length n."""
    if type(b) is list:
        if len(b) != n:
            raise ValueError("right-hand side length mismatch")
        return b
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side length mismatch")
    return b.tolist()


def _floored(x: list, what: str) -> list:
    """``x`` with its components in [0, tiny) raised to tiny; a negative
    component raises ``PositivityError``."""
    # components whose true value lies below the representable range
    # underflow to zero or denormals; floor them at the smallest normal
    # number so later divisions by them stay finite
    for i, v in enumerate(x):
        if v < 0.0:
            raise PositivityError(f"{what} lost positivity at component {i}")
    return [_TINY if v < _TINY else v for v in x]


def _factored(A: PlannedPatankar) -> list:
    """A's factor, computed on first use from its slots, checked finite."""
    if A.lu is None:
        if not all_finite(A.vals):
            raise ValueError("matrix has non-finite entries")
        A.lu = A.plan.factor(A.vals)
    return A.lu


def _checked(x: list, vals: list, dim: int, positive) -> list:
    """The solution ``x`` of the matrix with slots ``vals``, checked as
    ``lu_solve`` checks it: finite, and given its name ``positive``,
    positive and floored to tiny."""
    if not all_finite(x):
        raise _at_largest_diagonal(vals[:dim], "non-finite solution")
    if positive is not None and min(x) < _TINY:
        x = _floored(x, positive)
    return x


def lu_solve(A, b, positive: Optional[str] = None) -> np.ndarray:
    """Solve A x = b for a ``PlannedPatankar`` or a ``CyclicTridiagonal``
    by the no-pivot factor A computes on its first solve and keeps; ``b``
    is an array or a list of floats.

    Raises TypeError for any other matrix, ValueError for a right-hand
    side of the wrong length or non-finite matrix entries, and
    SingularMatrixError when the elimination meets a non-positive pivot
    or the solution overflows to non-finite values; the message names a
    row and its fac*loss/denom.  Given ``positive``, the solution's name,
    a negative component then raises ``PositivityError`` ("<positive>
    lost positivity at component k") and components below the smallest
    normal number are floored to it.
    """
    if type(A) is PlannedPatankar:
        plan = A.plan
        if type(b) is not list or len(b) != plan.dim:
            b = _rhs(b, plan.dim)
        if A.lu is None:
            A.lu, x = plan.solve(A.vals, b, positive)
        else:
            x = _checked(plan.substitute(A.lu, b), A.vals, plan.dim, positive)
        return np.array(x)
    if isinstance(A, CyclicTridiagonal):
        b = _rhs(b, A.bands.shape[1])
        if A.lu is None:
            x, A.lu = _sweep(A.bands, b)
        else:
            x = _band_substitute(A.lu, b)
        if not np.isfinite(x).all():
            raise _at_largest_diagonal(A.bands[1], "non-finite solution")
        if positive is not None and x.min() < _TINY:
            x = np.array(_floored(x.tolist(), positive))
        return x
    raise TypeError(f"lu_solve takes a PlannedPatankar or a "
                    f"CyclicTridiagonal, not {type(A).__name__}")
