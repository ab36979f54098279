"""Production-destruction-rest systems (PDRS).

A PDRS writes the right-hand side of an ODE componentwise as

    u_k' = rP_k(u) - rD_k(u) + sum_nu (p_{k,nu}(u) - p_{nu,k}(u)),

with all rates non-negative on the positive orthant and p_{kk} = 0.
The exchange p_{k,nu} moves mass from component nu to component k, so it
is at once a production of k and a destruction of nu (d_{nu,k} =
p_{k,nu}); the rest terms rP and rD hold everything that is not such an
exchange.  Without rest terms 1^T u is a conserved quantity of the flow.

The exchanges are stored sparse.  A system declares once, as an
``ExchangePattern``, the (k, nu) positions where p_{k,nu} may be nonzero,
and each rate evaluation returns an ``Exchange``: that pattern and a value
vector with one entry per position.  Column sums (the destruction of each
component) and row sums (its production) are then ``bincount``s over the
pattern, and the Patankar assembly in ``linalg`` chooses its matrix
format from the dimension and the pattern, never from the values.  No
d x d array is built on the way, so a step of a semidiscretized PDE costs
O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

# PositivityError lives in linalg, whose assembly raises it on a
# non-positive denominator; the state checks here raise it too
from .linalg import LuPlan, PositivityError, all_finite, plan_band, plan_lu


class NonFiniteStateError(ValueError):
    """A state, or a flux computed from it, overflowed or became NaN."""


def _raise_bad_entry(u: np.ndarray, ok: np.ndarray, label: str):
    """Raise for the first entry of ``u`` where the mask ``ok`` (0 < u < inf)
    is False: ``NonFiniteStateError`` for NaN or +-inf, else
    ``PositivityError``.  ``label.format(k)`` names entry k."""
    bad = np.flatnonzero(~ok)[0]
    where = label.format(bad)
    if not np.isfinite(u[bad]):
        raise NonFiniteStateError(f"non-finite {where} = {u[bad]!r}")
    raise PositivityError(f"non-positive {where} = {u[bad]!r}")


class ExchangePattern:
    """Where the exchanges of a PDRS can be nonzero: entry e is
    p_{rows[e], cols[e]} of a ``dim`` x ``dim`` exchange matrix.

    A system declares its pattern once; each rate evaluation then gives
    only the value vector (see ``Exchange``).  The pattern is checked here,
    so a system with a bad one fails when it is built: every row and
    column must lie in [0, dim), no entry may sit on the diagonal and no
    (row, column) may repeat, since a sum over entries would count a
    repeated one twice where a dense matrix holds it once.  The index
    arrays are read-only; ``flat`` is each entry's index in the flattened
    (row-major) dim x dim matrix.

    Any entry order is valid.  A column sum adds the column's entries in
    pattern order, so listing each column's entries by increasing row
    (row-major order does) makes it bit-equal to a dense ``sum(axis=0)``.
    """

    def __init__(self, rows, cols, dim: int):
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError(f"pattern rows and columns have shapes "
                             f"{rows.shape} and {cols.shape}, expected two "
                             f"equal 1-d shapes")
        dim = int(dim)
        flat = rows * dim + cols
        first = {}
        for e, (i, j, f) in enumerate(zip(rows.tolist(), cols.tolist(),
                                          flat.tolist())):
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"exchange entry {e} at ({i}, {j}) lies "
                                 f"outside [0, {dim})")
            if i == j:
                raise ValueError(f"exchange entry {e} at ({i}, {j}) is on "
                                 f"the diagonal")
            e1 = first.setdefault(f, e)
            if e1 != e:
                raise ValueError(f"exchange entries {e1} and {e} both sit "
                                 f"at ({i}, {j})")
        for a in (rows, cols, flat):
            a.flags.writeable = False
        self.rows, self.cols, self.flat, self.dim = rows, cols, flat, dim

    @cached_property
    def band_slots(self) -> Optional[np.ndarray]:
        """Each entry's slot in the band array of a cyclic-tridiagonal
        matrix, or None off that band (see ``linalg.plan_band``), built
        on first use."""
        return plan_band(self.rows, self.cols, self.dim)

    @cached_property
    def lu_plan(self) -> LuPlan:
        """The symbolic no-pivot LU factorization of the Patankar matrices
        on this pattern (see ``linalg.plan_lu``), built on first use."""
        return plan_lu(self.rows.tolist(), self.cols.tolist(), self.dim)


class Exchange:
    """The exchange rates of a PDRS at one (t, u) point: ``vals[e]`` is
    p_{k,nu} for (k, nu) the e-th entry of ``pattern``."""

    __slots__ = ("pattern", "vals")

    def __init__(self, pattern: ExchangePattern, vals: np.ndarray):
        self.pattern = pattern
        self.vals = vals

    def toarray(self) -> np.ndarray:
        """The dense exchange matrix P[k, nu] = p_{k,nu}."""
        n = self.pattern.dim
        P = np.zeros(n * n)
        P[self.pattern.flat] = self.vals
        return P.reshape(n, n)


class _kept:
    """A method's value, computed on the first read of its name and kept
    in the instance dict, where later reads find it before the class;
    ``functools.cached_property`` does the same but takes a lock on each
    first read (Python < 3.12), which costs a step more than a loss sum or
    a small system's lists."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


@dataclass(frozen=True, init=False)
class RateSet:
    """All rates of a PDRS evaluated at one (t, u) point.

    ``P`` is the ``Exchange`` of the p_{k,nu}; rest_prod/rest_dest are the
    rest terms (or a scalar 0.0 where there are none); ``explicit`` is the
    right-hand side g of a system's explicit block (None without one).
    A value vector whose length is not the pattern's raises ValueError.
    ``loss``, the total destruction rD_k + sum_nu p_{nu,k}, and
    ``lists``, which the planned format's step reads, are built on first
    use.
    """

    P: Exchange
    rest_prod: np.ndarray
    rest_dest: np.ndarray
    explicit: Optional[np.ndarray] = None

    def __init__(self, P: Exchange, rest_prod, rest_dest,
                 explicit: Optional[np.ndarray] = None):
        # the fields go into the instance dict directly: the generated
        # frozen __init__ sets each with object.__setattr__, which costs a
        # small system's step twice as much
        fields = self.__dict__
        fields["P"], fields["rest_prod"] = P, rest_prod
        fields["rest_dest"], fields["explicit"] = rest_dest, explicit
        vals, pat = P.vals, P.pattern
        if vals.shape != pat.rows.shape:
            raise ValueError(f"exchange values have shape {vals.shape}, "
                             f"expected ({pat.rows.size},)")

    @_kept
    def loss(self) -> np.ndarray:
        pat = self.P.pattern
        return self.rest_dest + np.bincount(pat.cols, self.P.vals, pat.dim)

    @_kept
    def lists(self) -> tuple:
        """The exchange values, rP and rD as lists of Python floats, a
        scalar rest term (a system without rest terms) repeated d times,
        so a step lists each rate set once."""
        d = self.P.pattern.dim
        rp, rd = self.rest_prod, self.rest_dest
        return (self.P.vals.tolist(),
                rp.tolist() if type(rp) is np.ndarray else [float(rp)] * d,
                rd.tolist() if type(rd) is np.ndarray else [float(rd)] * d)

    @property
    def rhs(self) -> np.ndarray:
        vals, pat = self.P.vals, self.P.pattern
        f = self.rest_prod - self.rest_dest + (
            np.bincount(pat.rows, vals, pat.dim)
            - np.bincount(pat.cols, vals, pat.dim))
        if self.explicit is None:
            return f
        return np.concatenate([f, self.explicit])


@dataclass(frozen=True)
class PdrsSystem:
    """One PDRS, defined by its exchange pattern and vectorized rates.

    ``matrix_rates(t, u)`` returns ``(P, rP, rD)``: the ``Exchange`` of
    p_{k,nu} on ``pattern`` and the length-d float rest vectors rP and
    rD.  No d x d array is built, so a rate evaluation costs O(nnz + d).
    A system with ``explicit_dim = k > 0`` takes states of length d + k
    and returns the length-k right-hand side g of its explicit block as a
    fourth item.  ``dim`` is d, the size of the Patankar part.
    """

    pattern: ExchangePattern
    matrix_rates: Callable[[float, np.ndarray], tuple]
    linear_invariants: tuple = ()
    explicit_dim: int = 0

    @property
    def dim(self) -> int:
        return self.pattern.dim

    def check_state(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        d = self.pattern.dim
        if u.shape != (d + self.explicit_dim,):
            raise ValueError(f"state has shape {u.shape}, "
                             f"expected ({d + self.explicit_dim},)")
        # the explicit block may take any sign.  On Python floats: at the
        # sizes of a chemistry system a fraction of a numpy mask's cost
        v = u[:d] if self.explicit_dim else u
        vl = v.tolist()
        if not (all_finite(vl) and min(vl, default=1.0) > 0.0):
            _raise_bad_entry(v, (0.0 < v) & (v < np.inf),
                             "state component u[{}]")
        return u

    def rates(self, t: float, u: np.ndarray) -> RateSet:
        """Evaluate all rates at (t, u); validates positivity of u."""
        return RateSet(*self.matrix_rates(t, self.check_state(u)))
