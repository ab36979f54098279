"""Isothermal Euler equations, entropy-conservative finite volumes.

The state is z = [rho_1..rho_N, m_1..m_N] with m = rho*v on a periodic
mesh.  Density evolves through the modified Patankar scheme applied to a
signed flux splitting (so rho stays positive unconditionally), momentum
through the underlying explicit Runge-Kutta method with the same
tableau.  Relaxation uses a single shared gamma: density is rescaled via
the gamma-parameterized Patankar update, momentum affinely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import lu_solve
from .means import mean_arith, mean_log
from .pdrs import (Exchange, ExchangePattern, NonFiniteStateError, RateSet,
                   _raise_bad_entry)
from .relaxation import EntropyFunctional, MODE_IMPLICIT, REGIME_CONSERVATIVE
from .schemes import (MPRK22, SIGMA_MODES, MpScheme, MpStepper, StepRecord,
                      UnsupportedSchemeError, _check_positive, _solve_stage,
                      _StageLogs, _weighted, check_sigma_mode, gamma_update,
                      gamma_update_derivative, patankar_matrix)


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


@dataclass(frozen=True)
class EulerRecord:
    """One partitioned step (density MP, momentum explicit RK): the density
    step's own ``StepRecord`` and the full-state parts; ``t_n`` and ``dt``
    are the density step's, and the full right-hand sides ``stage_rhs``
    are built only when read."""

    density: StepRecord
    u_next: np.ndarray         # full state [rho; m]
    stages: tuple              # full stage states, u_n first
    m_rhs: tuple               # momentum right-hand sides at the stages
    dm: np.ndarray             # momentum increment of the full step

    t_n = property(lambda self: self.density.t_n)
    dt = property(lambda self: self.density.dt)
    u_n = property(lambda self: self.stages[0])

    @property
    def stage_rhs(self) -> tuple:
        return tuple(np.concatenate([r.rhs, g])
                     for r, g in zip(self.density.rate_sets, self.m_rhs))


class EulerStepper:
    """Stepper protocol implementation for the partitioned system (see
    ``MpStepper``; ``gamma_state(record, 1.0)`` is ``record.u_next``)."""

    def __init__(self, N: int, c: float, scheme: MpScheme,
                 sigma_mode: Optional[str] = None):
        if scheme.kind != MPRK22:
            raise UnsupportedSchemeError(
                "the partitioned Euler stepper supports MPRK22 only")
        self.N = N
        self.c = c
        self.dx = 1.0 / N
        self.scheme = scheme
        self.sigma_mode = check_sigma_mode(
            scheme.kind, sigma_mode or SIGMA_MODES[scheme.kind][0])
        self.pattern = _density_pattern(N)
        ones = np.ones(N)
        zeros = np.zeros(N)
        self.linear_invariants = (np.concatenate([ones, zeros]),
                                  np.concatenate([zeros, ones]))

    def split(self, z):
        return z[:self.N], z[self.N:]

    def _rates(self, z):
        rho, m = self.split(z)
        # one mask, False for rho <= 0, NaN and +-inf (as in check_state)
        ok = (0.0 < rho) & (rho < np.inf)
        if not ok.all():
            _raise_bad_entry(rho, ok, "density in cell {}")
        # a momentum too large for v**2 overflows; raise instead of warning
        # and letting inf and NaN reach the density solve
        with np.errstate(over="ignore", invalid="ignore"):
            f_rho, f_m = _interface_fluxes(rho, m, self.c)
            m_rhs = (np.roll(f_m, 1) - f_m) / self.dx
        if not np.isfinite(m_rhs).all():
            raise NonFiniteStateError(
                f"momentum flux is not finite (max |m| = {np.abs(m).max():.3e})")
        return _density_production(f_rho, self.dx, self.pattern), m_rhs

    def rhs(self, z):
        P, m_rhs = self._rates(z)
        return np.concatenate([RateSet(P, 0.0, 0.0).rhs, m_rhs])

    def step(self, t: float, z: np.ndarray, dt: float) -> EulerRecord:
        if dt <= 0.0:
            raise ValueError(f"step size must be positive, got {dt}")
        sch = self.scheme
        a21, b = sch.a[1, 0], sch.b
        rho_n, m_n = self.split(z)
        # the density flux is a conservative PDS without rest terms
        P1, g1 = self._rates(z)
        r1 = RateSet(P1, 0.0, 0.0)
        rho_2 = _solve_stage(rho_n, [r1], [a21], rho_n, dt)
        z_2 = np.concatenate([rho_2, m_n + a21 * dt * g1])

        P2, g2 = self._rates(z_2)
        r2 = RateSet(P2, 0.0, 0.0)
        logs = _StageLogs(rho_n, rho_2)
        sigma = logs.geo_mean(1.0 / sch.alpha)
        upd_P, upd_loss, _ = _weighted([r1, r2], b)
        M = patankar_matrix(upd_P, upd_loss, sigma, dt)
        rho_next = _check_positive(lu_solve(M, rho_n), "updated density")
        dm = dt * (b[0] * g1 + b[1] * g2)
        z_next = np.concatenate([rho_next, m_n + dm])

        density = StepRecord(sch, t, dt, (rho_n, rho_2), (r1, r2), rho_next,
                             sigma, upd_P, upd_loss, np.zeros(self.N),
                             logs=logs, upd_M=M)
        return EulerRecord(density, z_next, (np.array(z), z_2), (g1, g2), dm)

    def gamma_state(self, record: EulerRecord, gamma: float) -> np.ndarray:
        rho_g = gamma_update(record.density, gamma, self.sigma_mode)
        _, m_n = self.split(record.u_n)
        return np.concatenate([rho_g, m_n + gamma * record.dm])

    def gamma_state_derivative(self, record: EulerRecord, gamma: float,
                               z_gamma: np.ndarray) -> np.ndarray:
        rho_g = z_gamma[:self.N]
        drho = gamma_update_derivative(record.density, gamma,
                                       self.sigma_mode, rho_g)
        return np.concatenate([drho, record.dm])

    entropy_quadrature = MpStepper.entropy_quadrature
    error_estimate = MpStepper.error_estimate


def isothermal_euler_fv(N: int = 100, c: float = 1.0):
    """Riemann problem descriptor on the periodic unit interval."""
    from .problems import ProblemDescriptor

    if N < 3:
        raise ValueError("Euler mesh needs at least 3 cells")
    if c <= 0.0:
        raise ValueError("sound speed must be positive")
    dx = 1.0 / N
    x = (np.arange(N) + 0.5) * dx
    rho0 = np.where(x < 0.5, 0.8, 1.0)
    m0 = np.where(x < 0.5, 1e-3, 1e-2)
    z0 = np.concatenate([rho0, m0])

    # U = m^2/(2 rho) + c^2 rho ln(rho): the potential paired with the
    # log-mean flux; only this scaling makes the semidiscrete entropy
    # production vanish identically
    def eta_eval(z):
        rho, m = z[:N], z[N:]
        return float(dx * np.sum(0.5 * m**2 / rho
                                 + c**2 * rho * np.log(rho)))

    def eta_grad(z):
        rho, m = z[:N], z[N:]
        g_rho = -0.5 * m**2 / rho**2 + c**2 * (np.log(rho) + 1.0)
        return dx * np.concatenate([g_rho, m / rho])

    eta = EntropyFunctional(eval=eta_eval, grad=eta_grad,
                            regime=REGIME_CONSERVATIVE,
                            monotone_nondecreasing=False)

    def factory(scheme, sigma_mode=None):
        return EulerStepper(N, c, scheme, sigma_mode)

    return ProblemDescriptor(
        name="euler", sys=None, eta=eta, u0=z0, tspan=(0.0, 1.0),
        defaults=dict(method=("mprk22", 1.0, None), relax=MODE_IMPLICIT,
                      solver="newton", dt0=dx, adapt="pid_and_relax",
                      rtol=1e-3, atol=1e-3),
        mesh=dict(N=N, dx=dx, domain=(0.0, 1.0), c=c),
        stepper_factory=factory)
