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

Two solvers find the root: Newton from gamma = 1, or Illinois regula
falsi on the nearest sign-change bracket, found by a walk outward from
gamma = 1 in log gamma.
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

SOLVERS = ("newton", "regula_falsi")

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
        if not (0.0 < self.gamma_min < 1.0 < self.gamma_max < math.inf):
            raise ValueError("gamma bounds must satisfy "
                             "0 < gamma_min < 1 < gamma_max < inf")
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
    dissipative one.

    The dissipative estimate is at most 0, so eta(u^n) + e bounds eta
    from above, when all b_j >= 0 and eta' . f <= 0.
    """
    if eta.regime == REGIME_CONSERVATIVE:
        return 0.0
    return stepper.entropy_quadrature(eta, record)


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


def _curve(stepper, record, mode) -> _Curve:
    u_old, u_new = record.u_n, record.u_next
    if mode == MODE_CLAMPED:
        step = u_new - u_old
        # gamma*u_new + (1-gamma)*u_old: for gamma in (0, 1] this form
        # cannot cancel to zero when the components differ by many orders
        # of magnitude
        return _Curve(u_new, lambda g: g * u_new + (1.0 - g) * u_old,
                      lambda g, u: step)
    if mode == MODE_GEOMETRIC:
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


def _find_bracket(fun, cfg, r1):
    """Sign-change bracket nearest gamma = 1, found by walking outward.

    The walk probes log gamma = -0.1, 0.1, -0.2, 0.2, -0.4, 0.4, ...: the
    offset doubles, and at each offset the probe below 1 comes first.  A
    side's last probe is exactly gamma_min or gamma_max.  Each probe is
    paired with the one before it on its side, starting from gamma = 1
    with ``r1`` = r(1), and the walk stops at the first pair whose ends
    differ in sign or hold a zero, so the bracket is the nearest.  A
    probe where the residual is undefined (None, as ``r1`` may be) ends
    no bracket, and the walk carries on past it.  Returns (a, fa, b, fb)
    with a < b, or None.
    """
    last = {cfg.gamma_min: (1.0, r1), cfg.gamma_max: (1.0, r1)}
    offset = 0.1
    while last:
        for end, (g0, f0) in list(last.items()):
            span = math.log(end)
            g = (end if offset >= abs(span)
                 else math.exp(math.copysign(offset, span)))
            f = _probe(fun, g)
            if f is not None and f0 is not None and f * f0 <= 0.0:
                return (g0, f0, g, f) if g0 < g else (g, f, g0, f0)
            if g == end:
                del last[end]
            else:
                last[end] = g, f
        offset *= 2.0
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


def solve_scalar(fun, cfg: RelaxConfig, derivative=None):
    """Find gamma in (gamma_min, gamma_max] with |fun(gamma)| <= gamma_tol.

    Newton starts at gamma = 1 and asks for the derivative only while the
    residual is above the tolerance.  Regula falsi first walks outward
    from gamma = 1 to the nearest sign change (``_find_bracket``: 15
    probes at most on the default window (1e-6, 10]); probes where the
    residual is undefined are passed over instead of aborting.  Returns
    (gamma, iterations, status).
    """
    if cfg.solver == "newton":
        if derivative is None:
            raise ValueError("newton solver needs a residual derivative")
        return _newton(fun, derivative, cfg)

    r1 = _probe(fun, 1.0)
    if r1 is not None and abs(r1) <= cfg.gamma_tol:
        return 1.0, 1, STATUS_CONVERGED

    found = _find_bracket(fun, cfg, r1)
    if found is None:
        return 1.0, 0, STATUS_FAILED
    a, fa, b, fb = found
    if abs(fa) <= cfg.gamma_tol:
        gamma, iters, status = a, 1, STATUS_CONVERGED
    elif abs(fb) <= cfg.gamma_tol:
        gamma, iters, status = b, 1, STATUS_CONVERGED
    else:
        gamma, iters, status = _regula_falsi(fun, a, fa, b, fb, cfg)
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
    ``NonFiniteStateError``.  Mode ``none`` has no curve to relax along:
    ``integrate`` keeps such a step itself, and here it raises
    ``ValueError``.
    """
    if cfg.mode == MODE_NONE:
        raise ValueError("relaxation mode 'none' does not relax a step")
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        curve = _curve(stepper, record, cfg.mode)
        eta_old = _finite_eta(lambda: eta.eval(record.u_n), "the step's start")
        rate = _finite_eta(lambda: _entropy_rate(eta, stepper, record),
                           "the step's estimate")
        scale = max(1.0, abs(eta_old))

        # residuals kept by gamma, as the curve keeps its states: a
        # clamped search probes r(1) here and again in solve_scalar
        values = {}

        def fun(g):
            if g not in values:
                values[g] = residual_implicit_value(
                    eta, curve, eta_old, rate, g) / scale
            return values[g]

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
