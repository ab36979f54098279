"""Isothermal Euler equations, entropy-conservative finite volumes.

The state is z = [rho_1..rho_N, m_1..m_N] with m = rho*v on a periodic
mesh: a PDRS whose Patankar part is the density and whose explicit
block (see ``pdrs``) is the momentum.  ``schemes.step`` advances the
density by the modified Patankar scheme applied to a signed flux
splitting (so rho stays positive unconditionally) and the momentum by
the underlying explicit Runge-Kutta method with the same tableau.
Relaxation uses a single shared gamma: density is rescaled via the
gamma-parameterized Patankar update, momentum affinely.  The Riemann
problem's descriptor is ``problems.isothermal_euler_fv``.
"""

from __future__ import annotations

import numpy as np

from .means import mean_arith, mean_log
from .pdrs import Exchange, ExchangePattern, NonFiniteStateError, PdrsSystem
from .schemes import MpScheme, MpStepper


def _interface_fluxes(rho, m, c):
    """Entropy-conservative two-point fluxes at interfaces i+1/2."""
    v = m / rho
    rho_r = np.roll(rho, -1)
    v_r = np.roll(v, -1)
    rho_mean = mean_log(rho, rho_r)
    v_mean = mean_arith(v, v_r)
    f_rho = rho_mean * v_mean
    f_m = rho_mean * v_mean**2 + mean_arith(c**2 * rho, c**2 * rho_r)
    return f_rho, f_m


def _density_pattern(N):
    """Where the split density flux moves mass: entry i from cell i to
    cell i+1, entry N+i from cell i+1 to cell i (indices mod N)."""
    idx = np.arange(N)
    right = (idx + 1) % N
    return ExchangePattern(np.concatenate([right, idx]),
                           np.concatenate([idx, right]), N)


def _density_production(f_rho, dx, pattern):
    """Signed splitting of the density flux into a conservative PDS on
    the pattern of ``_density_pattern``."""
    vals = np.concatenate([np.maximum(0.0, f_rho) / dx,
                           -np.minimum(0.0, f_rho) / dx])
    # adding 0.0 turns the -0.0 of -min(0, f) into 0.0: no exchange value
    # is a negative zero, as none was in the dense matrix it replaces
    vals += 0.0
    return Exchange(pattern, vals)


class EulerStepper(MpStepper):
    """``MpStepper`` over the Euler PDRS on N cells with sound speed c:
    density exchanges on ``_density_pattern(N)``, momentum as an explicit
    block of N components; mass and momentum are its linear invariants."""

    def __init__(self, N: int, c: float, scheme: MpScheme):
        self.N = N
        self.c = c
        self.dx = 1.0 / N
        ones = np.ones(N)
        zeros = np.zeros(N)
        # look _rates up on each call: bench/tracing.py wraps it on the
        # class and must see every evaluation
        sys = PdrsSystem(_density_pattern(N), lambda t, z: self._rates(z),
                         (np.concatenate([ones, zeros]),
                          np.concatenate([zeros, ones])), explicit_dim=N)
        super().__init__(sys, scheme)

    # bench/tracing.py wraps the step in this class's own namespace
    step = MpStepper.step

    def _rates(self, z):
        """(P, 0.0, 0.0, momentum rhs) at z; the density is checked by
        the system's ``check_state`` before this is called."""
        N = self.N
        rho, m = z[:N], z[N:]
        # a momentum too large for v**2 overflows; raise instead of warning
        # and letting inf and NaN reach the density solve
        with np.errstate(over="ignore", invalid="ignore"):
            f_rho, f_m = _interface_fluxes(rho, m, self.c)
            m_rhs = (np.roll(f_m, 1) - f_m) / self.dx
        if not np.isfinite(m_rhs).all():
            raise NonFiniteStateError(
                f"momentum flux is not finite (max |m| = {np.abs(m).max():.3e})")
        P = _density_production(f_rho, self.dx, self.sys.pattern)
        return P, 0.0, 0.0, m_rhs

    def rhs(self, z):
        return self.sys.rates(0.0, z).rhs

