"""Production-destruction-rest systems (PDRS).

A PDRS writes the right-hand side of an ODE componentwise as

    u_k' = rP_k(u) - rD_k(u) + sum_nu (p_{k,nu}(u) - p_{nu,k}(u)),

with all rates non-negative on the positive orthant and p_{kk} = 0.
The exchange p_{k,nu} moves mass from component nu to component k, so it
is at once a production of k and a destruction of nu (d_{nu,k} =
p_{k,nu}); the rest terms rP and rD hold everything that is not such an
exchange.  Without rest terms 1^T u is a conserved quantity of the flow.
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

    P[k, nu] = p_{k,nu} with zero diagonal; rest_prod/rest_dest are the
    rest terms (or a scalar 0.0 where there are none).
    """

    P: np.ndarray
    rest_prod: np.ndarray
    rest_dest: np.ndarray

    @cached_property
    def loss(self) -> np.ndarray:
        """Total destruction per component: rD_k + sum_nu p_{nu,k}."""
        return self.rest_dest + self.P.sum(axis=0)

    @property
    def rhs(self) -> np.ndarray:
        return self.rest_prod - self.rest_dest + (self.P - self.P.T).sum(axis=1)


@dataclass(frozen=True)
class PdrsSystem:
    """One PDRS, defined by its vectorized rates.

    ``matrix_rates(t, u)`` returns ``(P, rP, rD)``: the d x d float
    exchange array P[k, nu] = p_{k,nu} with zero diagonal and the
    length-d float rest vectors rP and rD.
    """

    dim: int
    matrix_rates: Callable[[float, np.ndarray], tuple]
    linear_invariants: tuple = ()

    def check_state(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"state has shape {u.shape}, expected ({self.dim},)")
        # one mask on the hot path; it is False for u <= 0, NaN and +-inf
        ok = (0.0 < u) & (u < np.inf)
        if not ok.all():
            bad = np.flatnonzero(~ok)[0]
            if not np.isfinite(u[bad]):
                raise NonFiniteStateError(
                    f"non-finite state component u[{bad}] = {u[bad]!r}")
            raise PositivityError(
                f"non-positive state component u[{bad}] = {u[bad]!r}")
        return u

    def rates(self, t: float, u: np.ndarray) -> RateSet:
        """Evaluate all rates at (t, u); validates positivity of u."""
        return RateSet(*self.matrix_rates(t, self.check_state(u)))


def eval_rhs(sys: PdrsSystem, t: float, u: np.ndarray) -> np.ndarray:
    """Right-hand side f_k = rP_k - rD_k + sum_nu (p_{k,nu} - p_{nu,k})."""
    return sys.rates(t, u).rhs


def split_rhs(sys: PdrsSystem, t: float, u: np.ndarray):
    """Additive split into d production/destruction addends plus rest.

    Returns ``(F, rest)`` where column ``F[:, nu]`` is the nu-th addend:
    F[k, nu] = p_{k,nu} for k != nu and F[nu, nu] = -(rD_nu + sum_mu p_{mu,nu});
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
