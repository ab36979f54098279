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
from typing import Callable, Optional

import numpy as np


class PositivityError(ValueError):
    """A state vector left the positive orthant."""


@dataclass(frozen=True)
class RateSet:
    """All rates of a PDRS evaluated at one (t, u) point.

    P[k, nu] = p_{k,nu}, D[k, nu] = d_{k,nu}; rest_prod/rest_dest are the
    unpaired rest terms.  Diagonals of P and D are zero.
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


def _zero_rest(k, t, u):
    return 0.0


@dataclass(frozen=True)
class PdrsSystem:
    """Callback bundle describing one PDRS.

    ``prod(k, nu, t, u)`` and ``dest(k, nu, t, u)`` return single rates;
    ``rest_prod(k, t, u)`` / ``rest_dest(k, t, u)`` the rest terms.  If
    ``sparsity`` is given it lists the index pairs (k, nu) at which
    p_{k,nu} (and the mirrored d_{nu,k}) may be nonzero; everything else
    is taken as zero.  ``matrix_rates(t, u) -> (P, D, rP, rD)`` is an
    optional vectorized fast path that must agree with the callbacks.
    """

    dim: int
    prod: Callable[[int, int, float, np.ndarray], float]
    dest: Callable[[int, int, float, np.ndarray], float]
    rest_prod: Callable[[int, float, np.ndarray], float] = _zero_rest
    rest_dest: Callable[[int, float, np.ndarray], float] = _zero_rest
    sparsity: Optional[tuple] = None
    linear_invariants: tuple = ()
    has_rest: bool = True
    matrix_rates: Optional[Callable] = None

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
        u = self.check_state(u)
        if self.matrix_rates is not None:
            P, D, rP, rD = self.matrix_rates(t, u)
            return RateSet(np.asarray(P, float), np.asarray(D, float),
                           np.asarray(rP, float), np.asarray(rD, float))
        d = self.dim
        P = np.zeros((d, d))
        D = np.zeros((d, d))
        if self.sparsity is not None:
            for (k, nu) in self.sparsity:
                P[k, nu] = self.prod(k, nu, t, u)
                D[nu, k] = self.dest(nu, k, t, u)
        else:
            for k in range(d):
                for nu in range(d):
                    if k == nu:
                        continue
                    P[k, nu] = self.prod(k, nu, t, u)
                    D[k, nu] = self.dest(k, nu, t, u)
        if self.has_rest:
            rP = np.array([self.rest_prod(k, t, u) for k in range(d)])
            rD = np.array([self.rest_dest(k, t, u) for k in range(d)])
        else:
            rP = np.zeros(d)
            rD = np.zeros(d)
        return RateSet(P, D, rP, rD)


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
