"""Ready-to-run experiment problems.

Each descriptor bundles a production-destruction(-rest) system, its
entropy functional, initial data, a time span and the default
scheme/relaxation configuration used by the command-line runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .euler import EulerStepper
from .means import mean_geo, mean_harm, mean_log
from .pdrs import Exchange, ExchangePattern, PdrsSystem
from .relaxation import (EntropyFunctional, MODE_CLAMPED, MODE_IMPLICIT,
                         REGIME_CONSERVATIVE, REGIME_DISSIPATIVE)
from .schemes import MpScheme, MpStepper


@dataclass(frozen=True)
class ProblemDescriptor:
    """One experiment: system, entropy, initial data, defaults.

    ``reference(t)`` returns the exact state when an analytic solution is
    known, else None and a fine-step oracle is used.  A problem whose
    system needs its own set-up (isothermal Euler, which builds a PDRS
    with an explicit block per stepper) leaves ``sys`` None and gives
    ``stepper_factory(scheme)`` instead; ``stepper(scheme)`` builds
    either kind, relaxing along the scheme's sigma mode.
    """

    name: str
    sys: Optional[PdrsSystem]
    eta: EntropyFunctional
    u0: np.ndarray
    tspan: tuple
    defaults: dict
    reference: Optional[Callable] = None
    mesh: Optional[dict] = None
    stepper_factory: Optional[Callable] = None

    def stepper(self, scheme: MpScheme) -> MpStepper:
        """The problem's stepper for ``scheme``."""
        if self.stepper_factory is not None:
            return self.stepper_factory(scheme)
        return MpStepper(self.sys, scheme)


# ---------------------------------------------------------------------------
# Predator-prey system with rest terms

def lotka_volterra() -> ProblemDescriptor:
    """u1' = 2 u1 - u1 u2, u2' = u1 u2 - u2, with conserved
    eta = ln u1 - u1 + 2 ln u2 - u2."""

    pattern = ExchangePattern([1], [0], 2)  # p_21 = u1 u2

    # each function reads the state's two floats once, as Python floats:
    # the same IEEE operations as on numpy scalars, without their
    # dispatch.  eta takes both logarithms in one np.log call, whose
    # loop is the one a scalar goes through (math.log differs in the
    # last bit on a few arguments)
    def matrix_rates(t, u):
        u1, u2 = u.tolist()
        return (Exchange(pattern, np.array([u1 * u2])),
                np.array([2.0 * u1, 0.0]), np.array([0.0, u2]))

    sys = PdrsSystem(pattern, matrix_rates)

    def eta_eval(u):
        u1, u2 = u.tolist()
        log1, log2 = np.log(u).tolist()
        return log1 - u1 + 2.0 * log2 - u2

    def eta_grad(u):
        u1, u2 = u.tolist()
        return np.array([1.0 / u1 - 1.0, 2.0 / u2 - 1.0])

    eta = EntropyFunctional(eval=eta_eval, grad=eta_grad,
                            regime=REGIME_CONSERVATIVE)

    return ProblemDescriptor(
        name="lotka_volterra", sys=sys, eta=eta,
        u0=np.array([2.0, 2.0]), tspan=(0.0, 200.0),
        defaults=dict(method=("mprk22", 1.0, None), relax=MODE_IMPLICIT,
                      solver="newton", dt0=1.0, adapt="fixed"))


# ---------------------------------------------------------------------------
# Six-constituent atmospheric reaction system (scaled variables)

_STRAT_M = 8.120e16


def _daylight(t: float) -> float:
    """Smooth daylight window on hours [4.5, 19.5] of the 24h clock."""
    T = (t / 3600.0) % 24.0
    Tr, Ts = 4.5, 19.5
    if not (Tr < T < Ts):
        return 0.0
    w = (2.0 * T - Tr - Ts) / (Ts - Tr)
    return 0.5 + 0.5 * math.cos(math.pi * abs(w) * w)


def stratospheric() -> ProblemDescriptor:
    """Scaled six-species reaction system over [12h, 84h].

    Both weighted sums n1 = (1,1,1,1,1,1) and n2 = (0,0,0,0,1,1/2) are
    conserved by the flow; n2 is enforced as the relaxation entropy since
    MP schemes only preserve the first automatically.
    """
    # (row, column) of the nonzero p_{k,nu}, in the order matrix_rates
    # lists their values: by column, and by row within a column.  Each
    # problem has its own pattern, so its LU plan and kernels are its own
    pattern = ExchangePattern(
        [1, 3, 2, 3, 4, 5, 0, 1, 3, 5, 1, 2, 5, 1, 3, 4],
        [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 5, 5, 5], 6)

    def matrix_rates(t, u):
        s = _daylight(t)
        # the 11 reaction rates, on Python floats: no numpy scalar per term
        u1, u2, u3, u4, u5, u6 = u.tolist()
        r1 = s**3 * 2.643e-10 * u4
        r2 = 8.018e-17 * u2 * u4
        r3 = s * 6.120e-4 * u3
        r4 = 1.576e-15 * u2 * u3
        r5 = s**2 * 1.070e-3 * u3
        r6 = 7.110e-11 * _STRAT_M * u1
        r7 = 1.200e-10 * u1 * u3
        r8 = 6.062e-15 * u3 * u5
        r9 = 1.069e-11 * u2 * u6
        r10 = s * 1.289e-2 * u6
        r11 = 1.0e-8 * u2 * u5
        # p_{k,nu} is the mass species nu passes to species k
        vals = np.array((
            r6, r7 / 3.0,                                    # from species 0
            r2 / 2.0, r4 / 3.0, r9 / 2.0, r11,               # from species 1
            r5 / 3.0, r3 / 3.0,                              # from species 2
            (2.0 / 3.0) * r3 + r4 + (2.0 / 3.0) * r5 + r7 + (2.0 / 3.0) * r8,
            r8 / 3.0,
            r1, r2,                                          # from species 3
            r11 + r8 / 3.0,                                  # from species 4
            r10 / 2.0, r9, r10 / 2.0))                       # from species 5
        zero = np.zeros(6)
        return Exchange(pattern, vals), zero, zero

    n2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.5])
    sys = PdrsSystem(pattern, matrix_rates,
                     linear_invariants=(np.ones(6), n2))

    eta = EntropyFunctional(
        eval=lambda u: float(n2 @ u), grad=lambda u: n2.copy(),
        regime=REGIME_CONSERVATIVE)

    u0 = np.array([9.906e1, 6.624e8, 1.5978e12, 3.394e16, 8.725e8, 4.480e8])
    return ProblemDescriptor(
        name="stratospheric", sys=sys, eta=eta, u0=u0,
        tspan=(12.0 * 3600.0, 84.0 * 3600.0),
        defaults=dict(method=("mprk22", 1.0, None), relax=MODE_IMPLICIT,
                      solver="regula_falsi", dt0=0.01 * 3600.0,
                      adapt="pid_and_relax", rtol=1e-3, atol=1e-3,
                      # the second-invariant residual has a trivial root at
                      # gamma = 0; a tight lower bound turns tiny-gamma roots
                      # into failures so the step-shrink rule engages
                      relax_opts=dict(gamma_min=0.1)))


def _check_cells(N, mesh: str) -> None:
    # a bool is an int to Python, but no cell count
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 3:
        raise ValueError(f"{mesh} mesh needs at least 3 cells, given as an "
                         f"integer N; got N = {N!r}")


# ---------------------------------------------------------------------------
# Entropy-conservative finite-volume advection on a periodic mesh

_ADV_MEANS = {"log": mean_log, "sqrt": mean_geo, "inv": mean_harm}

_ADV_ENTROPY = {
    "log": (lambda u: u * np.log(u) - u, np.log),
    "sqrt": (lambda u: -np.sqrt(u), lambda u: -0.5 / np.sqrt(u)),
    "inv": (lambda u: 1.0 / u, lambda u: -1.0 / u**2),
}

_ADV_DEFAULTS = {
    "log": (("mpssprk2", 0.5, 1.0), "newton"),
    "sqrt": (("mprk43i", 0.5, 0.75), "regula_falsi"),
    "inv": (("mprk22", 1.0, None), "newton"),
}


def advection_fv(N: int = 100, entropy_kind: str = "log") -> ProblemDescriptor:
    """Linear advection with unit speed on [0, 2], periodic, with the
    entropy-conservative two-point flux matching the chosen entropy."""
    if entropy_kind not in _ADV_MEANS:
        raise ValueError(f"entropy_kind must be one of {tuple(_ADV_MEANS)}")
    _check_cells(N, "advection")
    dx = 2.0 / N
    mean = _ADV_MEANS[entropy_kind]
    U, dU = _ADV_ENTROPY[entropy_kind]

    # entry i carries the flux through interface i+1/2: p_{i+1,i}
    idx = np.arange(N)
    pattern = ExchangePattern((idx + 1) % N, idx, N)

    def matrix_rates(t, u):
        flux = mean(u, np.roll(u, -1)) / dx
        zero = np.zeros(N)
        return Exchange(pattern, flux), zero, zero

    sys = PdrsSystem(pattern, matrix_rates,
                     linear_invariants=(np.ones(N),))

    eta = EntropyFunctional(
        eval=lambda u: float(dx * np.sum(U(u))),
        grad=lambda u: dx * dU(u),
        regime=REGIME_CONSERVATIVE)

    x = (np.arange(N) + 0.5) * dx
    u0 = 1.9 * np.sin(np.pi * x) + 2.0
    method, solver = _ADV_DEFAULTS[entropy_kind]
    return ProblemDescriptor(
        name="advection", sys=sys, eta=eta, u0=u0, tspan=(0.0, 2.0),
        defaults=dict(method=method, relax=MODE_IMPLICIT, solver=solver,
                      dt0=dx, adapt="fixed"),
        mesh=dict(N=N, dx=dx, domain=(0.0, 2.0), entropy_kind=entropy_kind))


# ---------------------------------------------------------------------------
# Isothermal Euler equations, entropy-conservative finite volumes

def isothermal_euler_fv(N: int = 100, c: float = 1.0):
    """Riemann problem descriptor on the periodic unit interval."""
    _check_cells(N, "Euler")
    if not 0.0 < c < math.inf:
        raise ValueError("sound speed must be positive and finite")
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
                            regime=REGIME_CONSERVATIVE)

    return ProblemDescriptor(
        name="euler", sys=None, eta=eta, u0=z0, tspan=(0.0, 1.0),
        defaults=dict(method=("mprk22", 1.0, None), relax=MODE_IMPLICIT,
                      solver="newton", dt0=dx, adapt="pid_and_relax",
                      rtol=1e-3, atol=1e-3),
        mesh=dict(N=N, dx=dx, domain=(0.0, 1.0), c=c),
        stepper_factory=partial(EulerStepper, N, c))


# ---------------------------------------------------------------------------
# Porous medium equation, second-order finite differences on [-6, 6]

_PME_FLOOR = 1e-30


def barenblatt(t: float, x: np.ndarray, m: float) -> np.ndarray:
    """Self-similar compactly supported exact solution, value 1 at (1, 0)."""
    k = 1.0 / (m + 1.0)
    core = 1.0 - k * (m - 1.0) / (2.0 * m) * x**2 / t**(2.0 * k)
    return t**(-k) * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))


def porous_medium(N: int = 160, m: float = 3.0) -> ProblemDescriptor:
    """u_t = (u^m)_xx with zero boundary data, started from the exact
    self-similar profile at t = 1; eta = (dx^2/2) sum u_i^2 dissipates."""
    if not 1.0 < m < math.inf:
        raise ValueError("porous medium exponent must be finite, m > 1")
    _check_cells(N, "porous medium")
    dx = 12.0 / N
    x = -6.0 + (np.arange(N) + 0.5) * dx
    c2 = 1.0 / (2.0 * dx**2)

    # entries 2i and 2i+1 are p_{i,i+1} and p_{i+1,i}: row-major order
    idx = np.arange(N - 1)
    pattern = ExchangePattern(np.stack([idx, idx + 1], axis=1).ravel(),
                              np.stack([idx + 1, idx], axis=1).ravel(), N)

    def matrix_rates(t, u):
        a = m * u ** (m - 1.0)
        coef = (a[:-1] + a[1:]) * c2
        vals = np.empty(2 * (N - 1))
        up, down = vals[0::2], vals[1::2]
        # interior two-sided exchange, a-averaged
        np.multiply(coef, u[1:], out=up)
        np.multiply(coef, u[:-1], out=down)
        # boundary cells produce with the single-neighbor coefficient
        up[0] = a[1] * u[1] * c2
        down[-1] = a[N - 2] * u[N - 2] * c2
        zero = np.zeros(N)
        return Exchange(pattern, vals), zero, zero

    sys = PdrsSystem(pattern, matrix_rates,
                     linear_invariants=(np.ones(N),))

    eta = EntropyFunctional(
        eval=lambda u: float(0.5 * dx**2 * np.sum(u**2)),
        grad=lambda u: dx**2 * u,
        regime=REGIME_DISSIPATIVE)

    u0 = np.maximum(barenblatt(1.0, x, m), _PME_FLOOR)
    if m == 3.0:
        method = ("mpssprk2", 0.5, 1.0)
    elif m == 5.0:
        method = ("mprk43i", 0.5, 0.75)
    else:
        method = ("mprk22", 1.0, None)
    return ProblemDescriptor(
        name="pme", sys=sys, eta=eta, u0=u0, tspan=(1.0, 2.0),
        defaults=dict(method=method, relax=MODE_CLAMPED, solver="newton",
                      dt0=dx, adapt="fixed"),
        reference=lambda t: np.maximum(barenblatt(t, x, m), _PME_FLOOR),
        mesh=dict(N=N, dx=dx, domain=(-6.0, 6.0), m=m))


# ---------------------------------------------------------------------------
# Smooth three-species cyclic exchange (convergence-study workhorse)

def cyclic3() -> ProblemDescriptor:
    """Conservative cyclic exchange u1 -> u2 -> u3 -> u1 with bilinear
    rates; eta = -sum ln u_i is conserved and convex."""

    pattern = ExchangePattern([0, 1, 2], [2, 0, 1], 3)

    def matrix_rates(t, u):
        vals = np.array([u[2] * u[0], u[0] * u[1], u[1] * u[2]])
        zero = np.zeros(3)
        return Exchange(pattern, vals), zero, zero

    sys = PdrsSystem(pattern, matrix_rates,
                     linear_invariants=(np.ones(3),))

    eta = EntropyFunctional(
        eval=lambda u: float(-np.sum(np.log(u))),
        grad=lambda u: -1.0 / u,
        regime=REGIME_CONSERVATIVE)

    return ProblemDescriptor(
        name="cyclic3", sys=sys, eta=eta,
        u0=np.array([0.6, 0.7, 1.2]), tspan=(0.0, 1.0),
        defaults=dict(method=("mprk22", 1.0, None), relax=MODE_IMPLICIT,
                      solver="newton", dt0=0.1, adapt="fixed"))


# ---------------------------------------------------------------------------
# Registry

PROBLEM_FACTORIES = {
    "lotka_volterra": lotka_volterra,
    "stratospheric": stratospheric,
    "advection": advection_fv,
    "euler": isothermal_euler_fv,
    "pme": porous_medium,
    "cyclic3": cyclic3,
}


def make_problem(name: str, **kwargs) -> ProblemDescriptor:
    if name not in PROBLEM_FACTORIES:
        raise KeyError(
            f"unknown problem {name!r}; registered: "
            f"{', '.join(sorted(PROBLEM_FACTORIES))}")
    return PROBLEM_FACTORIES[name](**kwargs)
