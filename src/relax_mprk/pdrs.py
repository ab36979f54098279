"""Production-destruction-rest systems (PDRS).

A PDRS writes the right-hand side of an ODE componentwise as

    u_k' = rP_k(u) - rD_k(u) + sum_nu (p_{k,nu}(u) - d_{k,nu}(u)),

with all rates non-negative on the positive orthant and the convention
p_{kk} = d_{kk} = 0.  A *conservative* PDS additionally satisfies
p_{k,nu} = d_{nu,k} and has no rest terms, which makes 1^T u a conserved
quantity of the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class PositivityError(ValueError):
    """A state vector left the positive orthant."""


class NonFiniteStateError(ValueError):
    """A state, or a flux computed from it, overflowed or became NaN."""


@dataclass(frozen=True)
class RateSet:
    """All rates of a PDRS evaluated at one (t, u) point.

    P[k, nu] = p_{k,nu}, D[k, nu] = d_{k,nu}; rest_prod/rest_dest are the
    unpaired rest terms (or a scalar 0.0 where there are none).  Diagonals
    of P and D are zero.
    """

    P: np.ndarray
    D: np.ndarray
    rest_prod: np.ndarray
    rest_dest: np.ndarray

    @cached_property
    def loss(self) -> np.ndarray:
        """Total destruction per component: rD_k + sum_nu d_{k,nu}."""
        return self.rest_dest + self.D.sum(axis=1)

    @property
    def rhs(self) -> np.ndarray:
        return self.rest_prod - self.rest_dest + (self.P - self.D).sum(axis=1)


@dataclass(frozen=True)
class PdrsSystem:
    """One PDRS, defined by its vectorized rates.

    ``matrix_rates(t, u)`` returns ``(P, D, rP, rD)``: the d x d float
    arrays P[k, nu] = p_{k,nu} and D[k, nu] = d_{k,nu}, both with zero
    diagonal, and the length-d float rest vectors rP and rD.  ``has_rest``
    is False when rP and rD are always zero, which MPSSPRK2 requires.
    """

    dim: int
    matrix_rates: Callable[[float, np.ndarray], tuple]
    linear_invariants: tuple = ()
    has_rest: bool = True

    def check_state(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"state has shape {u.shape}, expected ({self.dim},)")
        if (u <= 0.0).any():
            bad = np.flatnonzero(u <= 0.0)
            raise PositivityError(
                f"non-positive state component u[{bad[0]}] = {u[bad[0]]!r}"
            )
        return u

    def rates(self, t: float, u: np.ndarray) -> RateSet:
        """Evaluate all rates at (t, u); validates positivity of u."""
        return RateSet(*self.matrix_rates(t, self.check_state(u)))


def eval_rhs(sys: PdrsSystem, t: float, u: np.ndarray) -> np.ndarray:
    """Right-hand side f_k = rP_k - rD_k + sum_nu (p_{k,nu} - d_{k,nu})."""
    return sys.rates(t, u).rhs


def split_rhs(sys: PdrsSystem, t: float, u: np.ndarray):
    """Additive split into d production/destruction addends plus rest.

    Returns ``(F, rest)`` where column ``F[:, nu]`` is the nu-th addend:
    F[k, nu] = p_{k,nu} for k != nu and F[nu, nu] = -(rD_nu + sum_mu d_{nu,mu});
    ``rest`` is the rest-production vector.  Columns of F plus ``rest`` sum
    to ``eval_rhs``.
    """
    r = sys.rates(t, u)
    F = r.P.copy()
    np.fill_diagonal(F, -r.loss)
    return F, r.rest_prod.copy()


def check_linear_invariant(n: np.ndarray, u_before: np.ndarray,
                           u_after: np.ndarray, rtol: float) -> bool:
    """True iff n^T u is preserved to relative tolerance rtol."""
    n = np.asarray(n, float)
    before = float(n @ np.asarray(u_before, float))
    after = float(n @ np.asarray(u_after, float))
    return abs(after - before) <= rtol * abs(before)
