"""Entropy relaxation for modified Patankar steps.

After a base step u^n -> u^{n+1}, a scalar gamma near 1 is chosen so that
an entropy functional eta is exactly conserved (or its estimated
dissipation is not undershot).  Three ways of forming the relaxed state
are supported:

* clamped_dissipative: affine point u^n + gamma (u^{n+1} - u^n) with the
  root clamped at min(gamma*, 1), so the state stays a convex combination
  and only extra dissipation can be introduced;
* geometric: componentwise (u^{n+1})^gamma (u^n)^{1-gamma}, positive for
  any gamma, valid when eta is non-decreasing in each argument;
* implicit: the gamma-parameterized Patankar update u^{n+gamma}, positive
  and linear-invariant-preserving for every gamma > 0.

The time label advances by gamma * dt so the order of the base method is
retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


class ResidualDomainError(ValueError):
    """The entropy is undefined at the probed point (bracket exclusion)."""


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
    name: str = ""


@dataclass(frozen=True)
class RelaxConfig:
    mode: str = MODE_IMPLICIT
    solver: str = "newton"
    gamma_tol: float = 1e-10
    gamma_min: float = 1e-6
    gamma_max: float = 10.0
    max_iters: int = 50
    geometric_override: bool = False

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


def entropy_estimate(eta: EntropyFunctional, stepper, record) -> float:
    """Target entropy value for the step.

    Conservative regime: eta(u^n).  Dissipative regime: eta(u^n) plus the
    stage quadrature dt * sum_j b_j eta'(u^(j)) . f(u^(j)), which bounds
    eta from above when all b_j >= 0 and eta' . f <= 0.
    """
    eta_old = float(eta.eval(record.u_n))
    if eta.regime == REGIME_CONSERVATIVE:
        return eta_old
    return eta_old + stepper.entropy_quadrature(eta, record)


def residual_classical(eta, u_old, u_new, eta_old, eta_est, gamma):
    """r(gamma) = eta(u_old + gamma (u_new - u_old)) - interpolated target.

    r(0) = 0 by construction.  Raises ResidualDomainError when eta is
    undefined at the affine point.
    """
    # gamma*u_new + (1-gamma)*u_old: for gamma in (0, 1] this form cannot
    # cancel to zero when the components differ by many orders of magnitude
    point = gamma * u_new + (1.0 - gamma) * u_old
    with np.errstate(invalid="raise", divide="raise"):
        try:
            val = float(eta.eval(point))
        except FloatingPointError as exc:
            raise ResidualDomainError(
                f"entropy undefined at gamma = {gamma}") from exc
    if not math.isfinite(val):
        raise ResidualDomainError(f"entropy non-finite at gamma = {gamma}")
    return val - (eta_old + gamma * (eta_est - eta_old))


def residual_classical_derivative(eta, u_old, u_new, eta_old, eta_est, gamma):
    point = gamma * u_new + (1.0 - gamma) * u_old
    return float(eta.grad(point) @ (u_new - u_old)) - (eta_est - eta_old)


def geometric_state(u_old, u_new, gamma):
    """Componentwise (u_new)^gamma (u_old)^{1-gamma}; positive for any gamma."""
    return np.exp(gamma * np.log(u_new) + (1.0 - gamma) * np.log(u_old))


def residual_geometric(eta, u_old, u_new, eta_old, gamma):
    return float(eta.eval(geometric_state(u_old, u_new, gamma))) - eta_old


def residual_geometric_derivative(eta, u_old, u_new, gamma):
    u_g = geometric_state(u_old, u_new, gamma)
    return float(eta.grad(u_g) @ (u_g * (np.log(u_new) - np.log(u_old))))


def residual_implicit(eta, stepper, record, eta_target, gamma):
    """Residual eta(u^{n+gamma}) - target and its analytic derivative."""
    u_g = stepper.gamma_state(record, gamma)
    r = float(eta.eval(u_g)) - eta_target
    du = stepper.gamma_state_derivative(record, gamma, u_g)
    return r, float(eta.grad(u_g) @ du)


def residual_implicit_value(eta, stepper, record, eta_target, gamma):
    """Residual value only; avoids the derivative solve during bracketing."""
    u_g = stepper.gamma_state(record, gamma)
    return float(eta.eval(u_g)) - eta_target


class _GammaStateMemo:
    """Stepper view that keeps each u^{n+gamma} it computes, by gamma.

    It starts from u^{n+1} at gamma = 1, which the stepper protocol makes
    bitwise equal to ``gamma_state(record, 1.0)``.
    """

    def __init__(self, stepper, record):
        self._stepper = stepper
        self.states = {1.0: record.u_next}

    def gamma_state(self, record, gamma):
        if gamma not in self.states:
            self.states[gamma] = self._stepper.gamma_state(record, gamma)
        return self.states[gamma]

    def gamma_state_derivative(self, record, gamma, u_gamma):
        return self._stepper.gamma_state_derivative(record, gamma, u_gamma)


def _probe(fun, gamma):
    try:
        val = fun(gamma)
    except (ResidualDomainError, ValueError, np.linalg.LinAlgError):
        return None
    return val if math.isfinite(val) else None


def _probe_grid(gamma_min, gamma_max):
    # probe density scales with the window width, capped at 20 points
    n_lo = max(4, round(12 * min(1.0, math.log10(1.0 / gamma_min) / 6.0)))
    n_hi = max(4, round(9 * min(1.0, math.log10(gamma_max))))
    lo = np.geomspace(gamma_min, 1.0, n_lo)
    hi = np.geomspace(1.0, gamma_max, n_hi)[1:]
    return np.concatenate([lo, hi])


def _find_bracket(fun, cfg, known=None):
    """Sign-change bracket nearest gamma = 1 on a geometric probe grid.

    Adjacent grid pairs are examined in order of increasing distance from
    gamma = 1, so the search stops at the nearest sign change without
    touching the rest of the grid.  Probes where the residual is
    undefined are simply excluded.  Returns (a, fa, b, fb, n_evals) or
    None.
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
            return ga, fa, gb, fb, len(vals)
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

    Newton starts at gamma = 1 with the analytic derivative.  The
    bracketing solvers first locate a sign change on a geometric probe
    grid (at most 20 probes) and pick the bracket nearest 1.  Residual
    domain errors shrink the admissible bracket instead of aborting.
    Returns (gamma, iterations, status).
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
    a, fa, b, fb, _ = found
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


def relax_step(eta: EntropyFunctional, stepper, record,
               cfg: RelaxConfig) -> RelaxOutcome:
    """Compute gamma and the relaxed state for one accepted base step.

    Residuals are normalized by max(1, |eta(u^n)|) so the tolerance acts
    relatively for large-magnitude entropies.
    """
    u_old = record.u_n
    u_new = record.u_next
    eta_old = float(eta.eval(u_old))
    eta_est = entropy_estimate(eta, stepper, record)
    scale = max(1.0, abs(eta_old))

    if cfg.mode == MODE_NONE:
        t_rel = record.t_n + record.dt
        return RelaxOutcome(1.0, u_new, t_rel, float(eta.eval(u_new)), 0,
                            STATUS_CONVERGED)

    if cfg.mode == MODE_CLAMPED:
        def fun(g):
            return residual_classical(eta, u_old, u_new, eta_old, eta_est, g) / scale

        def deriv(g):
            return residual_classical_derivative(eta, u_old, u_new, eta_old,
                                                 eta_est, g) / scale

        r1 = _probe(fun, 1.0)
        if r1 is not None and r1 <= cfg.gamma_tol:
            # At gamma = 1 the step already meets (or exceeds) the
            # estimated dissipation; the clamp keeps the full step.
            gamma, iters = 1.0, 1
            status = STATUS_CONVERGED if abs(r1) <= cfg.gamma_tol else STATUS_CLAMPED
        else:
            gamma, iters, status = solve_scalar(fun, cfg, deriv)
            if status != STATUS_FAILED and gamma > 1.0:
                gamma, status = 1.0, STATUS_CLAMPED
        u_rel = gamma * u_new + (1.0 - gamma) * u_old

    elif cfg.mode == MODE_GEOMETRIC:
        if not (eta.monotone_nondecreasing or cfg.geometric_override):
            raise ValueError(
                "geometric relaxation requires an entropy that is "
                "non-decreasing in each argument (or geometric_override)")

        def fun(g):
            return residual_geometric(eta, u_old, u_new, eta_est, g) / scale

        def deriv(g):
            return residual_geometric_derivative(eta, u_old, u_new, g) / scale

        gamma, iters, status = solve_scalar(fun, cfg, deriv)
        # a failed Newton search can leave gamma far outside the window,
        # where the geometric state overflows; it is not used then
        if status != STATUS_FAILED:
            u_rel = geometric_state(u_old, u_new, gamma)

    elif cfg.mode == MODE_IMPLICIT:
        # every probe's u^{n+gamma} is kept, so the accepted one is not
        # solved for again
        memo = _GammaStateMemo(stepper, record)
        if cfg.solver == "newton":
            cache = {}

            def pair(g):
                if g not in cache:
                    cache[g] = residual_implicit(eta, memo, record,
                                                 eta_est, g)
                return cache[g]

            def fun(g):
                return pair(g)[0] / scale

            def deriv(g):
                return pair(g)[1] / scale
        else:
            def fun(g):
                return residual_implicit_value(eta, memo, record,
                                               eta_est, g) / scale

            deriv = None

        gamma, iters, status = solve_scalar(fun, cfg, deriv)
        if status != STATUS_FAILED:
            u_rel = memo.states[gamma]

    else:
        raise ValueError(f"unknown relaxation mode {cfg.mode!r}")

    if status == STATUS_FAILED:
        t_rel = record.t_n + record.dt
        return RelaxOutcome(1.0, u_new, t_rel, float(eta.eval(u_new)),
                            iters, STATUS_FAILED)
    t_rel = record.t_n + gamma * record.dt
    return RelaxOutcome(gamma, u_rel, t_rel, float(eta.eval(u_rel)), iters,
                        status)
