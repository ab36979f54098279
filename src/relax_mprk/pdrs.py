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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class PositivityError(ValueError):
    """A state vector left the positive orthant."""


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


@dataclass(frozen=True)
class RateSet:
    """All rates of a PDRS evaluated at one (t, u) point.

    P[k, nu] = p_{k,nu} with zero diagonal; rest_prod/rest_dest are the
    rest terms (or a scalar 0.0 where there are none); ``loss``, built at
    construction, is the total destruction rD_k + sum_nu p_{nu,k}.
    """

    P: np.ndarray
    rest_prod: np.ndarray
    rest_dest: np.ndarray
    loss: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "loss", self.rest_dest + self.P.sum(axis=0))

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
            _raise_bad_entry(u, ok, "state component u[{}]")
        return u

    def rates(self, t: float, u: np.ndarray) -> RateSet:
        """Evaluate all rates at (t, u); validates positivity of u."""
        return RateSet(*self.matrix_rates(t, self.check_state(u)))


def eval_rhs(sys: PdrsSystem, t: float, u: np.ndarray) -> np.ndarray:
    """Right-hand side f_k = rP_k - rD_k + sum_nu (p_{k,nu} - p_{nu,k})."""
    return sys.rates(t, u).rhs
