"""Entropy relaxation for modified Patankar steps.

After a base step u^n -> u^{n+1}, each relaxation mode draws a curve u(gamma)
through u(0) = u^n and u(1) = u^{n+1}:

* clamped_dissipative: the affine point u^n + gamma (u^{n+1} - u^n), with
  the root clamped at min(gamma*, 1), so the state stays a convex
  combination and only extra dissipation can be introduced;
* geometric: componentwise (u^{n+1})^gamma (u^n)^{1-gamma}, positive for
  any gamma, valid when eta is non-decreasing in each argument;
* implicit: the stepper's gamma-parameterized Patankar update u^{n+gamma},
  positive and linear-invariant-preserving for every gamma > 0.

On every curve gamma is a root near 1 of one residual,

    r(gamma) = eta(u(gamma)) - eta(u^n) - gamma e,
    r'(gamma) = eta'(u(gamma)) . u'(gamma) - e,

where e is 0 for a conservative eta and the stage-quadrature estimate of
the step's entropy change for a dissipative one.  The time label advances
by gamma * dt, so the order of the base method is retained and the
dissipation target scales with the time actually advanced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .pdrs import NonFiniteStateError

MODE_NONE = "none"
MODE_CLAMPED = "clamped_dissipative"
MODE_GEOMETRIC = "geometric"
MODE_IMPLICIT = "implicit"
RELAX_MODES = (MODE_NONE, MODE_CLAMPED, MODE_GEOMETRIC, MODE_IMPLICIT)

SOLVERS = ("newton", "regula_falsi", "bisection", "secant")

STATUS_CONVERGED = "converged"
STATUS_CLAMPED = "clamped_to_one"
STATUS_FAILED = "failed"

REGIME_CONSERVATIVE = "conservative"
REGIME_DISSIPATIVE = "dissipative"


@dataclass(frozen=True)
class EntropyFunctional:
    """Scalar functional eta with gradient and structural flags.

    ``regime`` says whether the semidiscretization conserves eta exactly
    or only dissipates it; ``monotone_nondecreasing`` certifies validity
    of the geometric-mean relaxed state.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    regime: str
    monotone_nondecreasing: bool = False


@dataclass(frozen=True)
class RelaxConfig:
    mode: str = MODE_IMPLICIT
    solver: str = "newton"
    gamma_tol: float = 1e-10
    gamma_min: float = 1e-6
    gamma_max: float = 10.0
    max_iters: int = 50

    def __post_init__(self):
        if self.mode not in RELAX_MODES:
            raise ValueError(f"unknown relaxation mode {self.mode!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown scalar solver {self.solver!r}")
        if not (self.gamma_min < 1.0 < self.gamma_max):
            raise ValueError("gamma bounds must satisfy gamma_min < 1 < gamma_max")
        if self.gamma_tol <= 0.0:
            raise ValueError("gamma_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class RelaxOutcome:
    gamma: float
    u_relaxed: np.ndarray
    t_relaxed: float
    eta_after: float
    iterations: int
    status: str


def _entropy_rate(eta: EntropyFunctional, stepper, record) -> float:
    """The step's estimated entropy change e: 0 for a conservative eta,
    the stage quadrature dt * sum_j b_j eta'(u^(j)) . f(u^(j)) for a
    dissipative one."""
    if eta.regime == REGIME_CONSERVATIVE:
        return 0.0
    return stepper.entropy_quadrature(eta, record)


def entropy_estimate(eta: EntropyFunctional, stepper, record) -> float:
    """Target entropy value for the step: eta(u^n) + e.

    The dissipative estimate bounds eta from above when all b_j >= 0 and
    eta' . f <= 0.
    """
    return float(eta.eval(record.u_n)) + _entropy_rate(eta, stepper, record)


class _Curve:
    """A mode's curve u(gamma) and its tangent, with every state kept by gamma.

    ``state(gamma)`` builds u(gamma); ``tangent(gamma, u)`` is u'(gamma) at
    u = u(gamma).  The memo starts from u^{n+1} at gamma = 1, which every
    curve passes through (for the implicit curve the stepper protocol makes
    ``gamma_state(record, 1.0)`` bitwise u^{n+1}).
    """

    def __init__(self, u_next, state, tangent):
        self.states = {1.0: u_next}
        self._state = state
        self.tangent = tangent

    def at(self, gamma):
        u = self.states.get(gamma)
        if u is None:
            u = self.states[gamma] = self._state(gamma)
        return u


def geometric_state(u_old, u_new, gamma):
    """Componentwise (u_new)^gamma (u_old)^{1-gamma}; positive for any gamma."""
    return np.exp(gamma * np.log(u_new) + (1.0 - gamma) * np.log(u_old))


def _curve(eta, stepper, record, mode) -> _Curve:
    u_old, u_new = record.u_n, record.u_next
    if mode == MODE_CLAMPED:
        step = u_new - u_old
        # gamma*u_new + (1-gamma)*u_old: for gamma in (0, 1] this form
        # cannot cancel to zero when the components differ by many orders
        # of magnitude
        return _Curve(u_new, lambda g: g * u_new + (1.0 - g) * u_old,
                      lambda g, u: step)
    if mode == MODE_GEOMETRIC:
        if not eta.monotone_nondecreasing:
            raise ValueError("geometric relaxation requires an entropy that "
                             "is non-decreasing in each argument")
        log_dq = np.log(u_new) - np.log(u_old)
        return _Curve(u_new, partial(geometric_state, u_old, u_new),
                      lambda g, u: u * log_dq)
    return _Curve(u_new, partial(stepper.gamma_state, record),
                  partial(stepper.gamma_state_derivative, record))


# The residual and its derivative serve every mode but are named for the
# implicit one: bench/tracing.py counts the calls of both, by name, as the
# search's probes.

def residual_implicit_value(eta, curve, eta_old, rate, gamma):
    """r(gamma) = eta(u(gamma)) - (eta(u^n) + gamma e), e = ``rate``."""
    return float(eta.eval(curve.at(gamma))) - (eta_old + gamma * rate)


def residual_implicit(eta, curve, rate, gamma):
    """r'(gamma) = eta'(u(gamma)) . u'(gamma) - e, at a probed u(gamma)."""
    u = curve.at(gamma)
    return float(eta.grad(u) @ curve.tangent(gamma, u)) - rate


def _probe(fun, gamma):
    # relax_step runs the search with floating-point errors raised, so an
    # undefined entropy or an overflowing state excludes the probe
    try:
        val = fun(gamma)
    except (FloatingPointError, ValueError, np.linalg.LinAlgError):
        return None
    return val if math.isfinite(val) else None


def _probe_grid(gamma_min, gamma_max):
    # probe density scales with the window width, capped at 20 points
    n_lo = max(4, round(12 * min(1.0, math.log10(1.0 / gamma_min) / 6.0)))
    n_hi = max(4, round(9 * min(1.0, math.log10(gamma_max))))
    lo = np.geomspace(gamma_min, 1.0, n_lo)
    hi = np.geomspace(1.0, gamma_max, n_hi)[1:]
    return np.concatenate([lo, hi]).tolist()


def _find_bracket(fun, cfg, known=None):
    """Sign-change bracket nearest gamma = 1 on a geometric probe grid.

    Adjacent grid pairs are examined in order of increasing distance from
    gamma = 1, so the search stops at the nearest sign change without
    touching the rest of the grid.  Probes where the residual is
    undefined are simply excluded.  Returns (a, fa, b, fb) or None.
    """
    grid = _probe_grid(cfg.gamma_min, cfg.gamma_max)
    vals = dict(known) if known else {}

    def val(g):
        if g not in vals:
            vals[g] = _probe(fun, g)
        return vals[g]

    pairs = sorted(zip(grid[:-1], grid[1:]),
                   key=lambda p: min(abs(p[0] - 1.0), abs(p[1] - 1.0)))
    for ga, gb in pairs:
        fa, fb = val(ga), val(gb)
        if fa is None or fb is None:
            continue
        if fa == 0.0 or fa * fb < 0.0:
            return ga, fa, gb, fb
    return None


def _newton(fun, deriv, cfg):
    gamma = 1.0
    for it in range(1, cfg.max_iters + 1):
        r = _probe(fun, gamma)
        if r is None:
            return gamma, it, STATUS_FAILED
        if abs(r) <= cfg.gamma_tol:
            return gamma, it, STATUS_CONVERGED
        dr = _probe(deriv, gamma)
        if dr is None or dr == 0.0:
            return gamma, it, STATUS_FAILED
        gamma = gamma - r / dr
        if not (cfg.gamma_min < gamma <= cfg.gamma_max):
            return gamma, it, STATUS_FAILED
    return gamma, cfg.max_iters, STATUS_FAILED


def _bisection(fun, a, fa, b, fb, cfg):
    for it in range(1, cfg.max_iters + 1):
        mid = 0.5 * (a + b)
        fm = _probe(fun, mid)
        if fm is None:
            return mid, it, STATUS_FAILED
        if abs(fm) <= cfg.gamma_tol:
            return mid, it, STATUS_CONVERGED
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b), cfg.max_iters, STATUS_FAILED


def _regula_falsi(fun, a, fa, b, fb, cfg):
    # Illinois weighting avoids the classic one-sided stagnation.
    side = 0
    for it in range(1, cfg.max_iters + 1):
        x = (a * fb - b * fa) / (fb - fa)
        fx = _probe(fun, x)
        if fx is None:
            return x, it, STATUS_FAILED
        if abs(fx) <= cfg.gamma_tol:
            return x, it, STATUS_CONVERGED
        if fa * fx < 0.0:
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
    return x, cfg.max_iters, STATUS_FAILED


def _secant(fun, a, fa, b, fb, cfg):
    for it in range(1, cfg.max_iters + 1):
        if fb == fa:
            return b, it, STATUS_FAILED
        x = b - fb * (b - a) / (fb - fa)
        if not (cfg.gamma_min < x <= cfg.gamma_max):
            return x, it, STATUS_FAILED
        fx = _probe(fun, x)
        if fx is None:
            return x, it, STATUS_FAILED
        if abs(fx) <= cfg.gamma_tol:
            return x, it, STATUS_CONVERGED
        a, fa = b, fb
        b, fb = x, fx
    return b, cfg.max_iters, STATUS_FAILED


def solve_scalar(fun, cfg: RelaxConfig, derivative=None):
    """Find gamma in (gamma_min, gamma_max] with |fun(gamma)| <= gamma_tol.

    Newton starts at gamma = 1 and asks for the derivative only while the
    residual is above the tolerance.  The bracketing solvers first locate
    a sign change on a geometric probe grid (at most 20 probes) and pick
    the bracket nearest 1.  Probes where the residual is undefined shrink
    the admissible bracket instead of aborting.  Returns (gamma,
    iterations, status).
    """
    if cfg.solver == "newton":
        if derivative is None:
            raise ValueError("newton solver needs a residual derivative")
        return _newton(fun, derivative, cfg)

    r1 = _probe(fun, 1.0)
    if r1 is not None and abs(r1) <= cfg.gamma_tol:
        return 1.0, 1, STATUS_CONVERGED

    found = _find_bracket(fun, cfg, known={1.0: r1})
    if found is None:
        return 1.0, 0, STATUS_FAILED
    a, fa, b, fb = found
    if abs(fa) <= cfg.gamma_tol:
        gamma, iters, status = a, 1, STATUS_CONVERGED
    elif abs(fb) <= cfg.gamma_tol:
        gamma, iters, status = b, 1, STATUS_CONVERGED
    else:
        method = {"bisection": _bisection, "regula_falsi": _regula_falsi,
                  "secant": _secant}[cfg.solver]
        gamma, iters, status = method(fun, a, fa, b, fb, cfg)
    # the residual vanishes trivially at gamma = 0, so a root at the lower
    # bound is spurious; any gamma outside (gamma_min, gamma_max] fails
    if status == STATUS_CONVERGED and not (cfg.gamma_min < gamma <= cfg.gamma_max):
        status = STATUS_FAILED
    return gamma, iters, status


def _finite_eta(value: Callable[[], float], what: str) -> float:
    """``value()`` as a float; under relax_step's errstate an overflow
    raises, and it or a non-finite value raises NonFiniteStateError."""
    try:
        out = float(value())
    except FloatingPointError:
        out = math.nan
    if not math.isfinite(out):
        raise NonFiniteStateError(f"entropy eta of {what} is not finite")
    return out


def entropy_value(eta: EntropyFunctional, u: np.ndarray,
                  what: str = "the step") -> float:
    """eta(u) outside a relaxation search, taken as relax_step takes every
    entropy value: an overflow or a non-finite value raises
    NonFiniteStateError naming ``what``."""
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        return _finite_eta(lambda: eta.eval(u), what)


def relax_step(eta: EntropyFunctional, stepper, record,
               cfg: RelaxConfig) -> RelaxOutcome:
    """Compute gamma and the relaxed state for one accepted base step.

    Residuals are normalized by max(1, |eta(u^n)|) so the tolerance acts
    relatively for large-magnitude entropies.  A failed search keeps the
    base step: gamma = 1 and u^{n+1}.  Every entropy value is taken with
    floating-point errors raised; one that overflows or is NaN raises
    ``NonFiniteStateError``.
    """
    if cfg.mode == MODE_NONE:
        u_new = record.u_next
        return RelaxOutcome(1.0, u_new, record.t_n + record.dt,
                            entropy_value(eta, u_new), 0, STATUS_CONVERGED)
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        curve = _curve(eta, stepper, record, cfg.mode)
        eta_old = _finite_eta(lambda: eta.eval(record.u_n), "the step's start")
        rate = _finite_eta(lambda: _entropy_rate(eta, stepper, record),
                           "the step's estimate")
        scale = max(1.0, abs(eta_old))

        def fun(g):
            return residual_implicit_value(eta, curve, eta_old, rate, g) / scale

        def deriv(g):
            return residual_implicit(eta, curve, rate, g) / scale

        r1 = _probe(fun, 1.0) if cfg.mode == MODE_CLAMPED else None
        if r1 is not None and r1 <= cfg.gamma_tol:
            # At gamma = 1 the step already meets (or exceeds) the
            # estimated dissipation; the clamp keeps the full step.
            gamma, iters = 1.0, 1
            status = STATUS_CONVERGED if abs(r1) <= cfg.gamma_tol else STATUS_CLAMPED
        else:
            gamma, iters, status = solve_scalar(fun, cfg, deriv)
            if cfg.mode == MODE_CLAMPED and status != STATUS_FAILED and gamma > 1.0:
                gamma, status = 1.0, STATUS_CLAMPED
        if status == STATUS_FAILED:
            gamma = 1.0
        u_rel = curve.states[gamma]
        eta_after = _finite_eta(lambda: eta.eval(u_rel), "the relaxed state")
    return RelaxOutcome(gamma, u_rel, record.t_n + gamma * record.dt,
                        eta_after, iters, status)
