"""Modified Patankar Runge-Kutta one-step maps.

Implements the one-step maps of MPRK22(alpha), MPRK43I(alpha, beta) and
MPSSPRK2(alpha, beta) for production-destruction-rest systems, together
with the gamma-parameterized update machinery used by the relaxation
solver: the denominator vectors sigma_bar(gamma), the matrix M_gamma, the
state u^{n+gamma} and its derivative with respect to gamma.  The explicit
block of a partitioned system (see ``pdrs``) takes the scheme's own
Butcher tableau, m^(i) = m_n + dt sum_j a_ij g_j, and moves affinely in
gamma: m^{n+gamma} = m_n + gamma * dm.

The key structural fact used throughout: every stage and update is a
linear system whose matrix has unit-plus-nonnegative diagonal and
non-positive off-diagonal entries, so solutions with positive right-hand
sides stay strictly positive for every step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .linalg import PositivityError, lu_solve, patankar_matrix
from .pdrs import Exchange, PdrsSystem, RateSet

MPRK22 = "mprk22"
MPRK43I = "mprk43i"
MPSSPRK2 = "mpssprk2"

SCHEME_KINDS = (MPRK22, MPRK43I, MPSSPRK2)

SIGMA_FROZEN = "frozen"
SIGMA_DENSE = "dense"
SIGMA_BOOTSTRAP = "bootstrap"

# the valid sigma modes of each scheme kind, default first: MPRK22 keeps
# sigma frozen (the usual default); MPSSPRK2 carries the gamma exponent in
# its denominator; MPRK43I needs bootstrapping for third order at the
# relaxation root
SIGMA_MODES = {MPRK22: (SIGMA_FROZEN, SIGMA_DENSE),
               MPRK43I: (SIGMA_BOOTSTRAP, SIGMA_FROZEN),
               MPSSPRK2: (SIGMA_DENSE, SIGMA_FROZEN)}


class SchemeParameterError(ValueError):
    pass


class UnsupportedSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class MpScheme:
    """Validated scheme identity with all derived constants.

    ``a``, ``b``, ``c`` is the underlying explicit Butcher tableau.
    ``update_w`` are the weights used to assemble the Patankar update
    matrix (equal to ``b`` except for MPSSPRK2, where they are
    (beta20, beta21)).  ``sigma_mode`` (see ``SIGMA_MODES``) is how the
    denominators sbar(gamma) of u^{n+gamma} move with gamma, and
    ``sigma_exp`` the exponent e of the geometric mean u2**e u_n**(1-e)
    that gives sigma, or MPRK43I's tau.  ``p_exp`` is the third-stage
    denominator exponent of MPRK43I and ``sigma_w`` the weights of its
    sigma system.
    """

    kind: str
    alpha: float
    beta: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int
    update_w: np.ndarray
    sigma_mode: str
    sigma_exp: float
    p_exp: Optional[float] = None
    sigma_w: Optional[np.ndarray] = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemeParameterError(msg)


def build_scheme(kind: str, alpha: float, beta: float = None, *,
                 sigma_mode: Optional[str] = None) -> MpScheme:
    """Construct and validate a scheme from its free parameters and its
    sigma mode, the kind's default (first in ``SIGMA_MODES``) if None."""
    kind = kind.lower()
    if kind not in SCHEME_KINDS:
        raise SchemeParameterError(
            f"unknown scheme kind {kind!r}; known: {SCHEME_KINDS}")
    mode = sigma_mode or SIGMA_MODES[kind][0]
    if mode not in SIGMA_MODES[kind]:
        raise UnsupportedSchemeError(
            f"sigma mode {mode!r} is not defined for {kind.upper()}; "
            f"valid: {', '.join(SIGMA_MODES[kind])}")
    if kind == MPRK22:
        _require(beta is None, f"MPRK22 takes no beta, got beta = {beta!r}")
        _require(alpha >= 0.5, f"MPRK22 requires alpha >= 1/2, got alpha = {alpha}")
        b2 = 1.0 / (2.0 * alpha)
        a = np.array([[0.0, 0.0], [alpha, 0.0]])
        b = np.array([1.0 - b2, b2])
        c = np.array([0.0, alpha])
        return MpScheme(kind, alpha, float("nan"), a, b, c, order=2, update_w=b,
                        sigma_mode=mode, sigma_exp=1.0 / alpha)

    if kind == MPRK43I:
        _require(beta is not None, "MPRK43I needs two parameters (alpha, beta)")
        _require(alpha > 0.0, f"MPRK43I requires alpha > 0, got {alpha}")
        _require(beta > 0.0, f"MPRK43I requires beta > 0, got {beta}")
        _require(abs(2.0 - 3.0 * alpha) > 1e-14, "MPRK43I requires alpha != 2/3")
        _require(abs(beta - alpha) > 1e-14, "MPRK43I requires beta != alpha")
        a21 = alpha
        a31 = (3.0 * alpha * beta * (1.0 - alpha) - beta**2) / (alpha * (2.0 - 3.0 * alpha))
        a32 = beta * (beta - alpha) / (alpha * (2.0 - 3.0 * alpha))
        b1 = 1.0 + (2.0 - 3.0 * (alpha + beta)) / (6.0 * alpha * beta)
        b2 = (3.0 * beta - 2.0) / (6.0 * alpha * (beta - alpha))
        b3 = (2.0 - 3.0 * alpha) / (6.0 * beta * (beta - alpha))
        for name, val in (("a31", a31), ("a32", a32), ("b1", b1), ("b2", b2), ("b3", b3)):
            _require(val >= -1e-14, f"MPRK43I Butcher entry {name} = {val} < 0")
        p_exp = 3.0 * a21 * (a31 + a32) * b3
        _require(p_exp > 0.0, f"MPRK43I stage-3 exponent p = {p_exp} must be positive")
        a = np.array([[0.0, 0.0, 0.0], [a21, 0.0, 0.0], [a31, a32, 0.0]])
        b = np.array([b1, b2, b3])
        c = np.array([0.0, alpha, beta])
        beta2 = 1.0 / (2.0 * a21)
        sigma_w = np.array([1.0 - beta2, beta2])
        return MpScheme(kind, alpha, beta, a, b, c, order=3, update_w=b,
                        sigma_mode=mode, sigma_exp=1.0 / alpha, p_exp=p_exp,
                        sigma_w=sigma_w)

    # MPSSPRK2
    _require(beta is not None, "MPSSPRK2 needs two parameters (alpha, beta)")
    _require(0.0 <= alpha <= 1.0, f"MPSSPRK2 requires 0 <= alpha <= 1, got {alpha}")
    _require(beta > 0.0, f"MPSSPRK2 requires beta > 0, got {beta}")
    _require(alpha * beta + 1.0 / (2.0 * beta) <= 1.0 + 1e-14,
             f"MPSSPRK2 requires alpha*beta + 1/(2*beta) <= 1, "
             f"got {alpha * beta + 1.0 / (2.0 * beta)}")
    b21 = 1.0 / (2.0 * beta)
    b20 = 1.0 - b21 - alpha * beta
    sigma_exp = (1.0 - alpha * beta + alpha * beta**2) / (beta * (1.0 - alpha * beta))
    a = np.array([[0.0, 0.0], [beta, 0.0]])
    b = np.array([alpha * beta + b20, b21])
    c = np.array([0.0, beta])
    return MpScheme(kind, alpha, beta, a, b, c, order=2,
                    update_w=np.array([max(b20, 0.0), b21]),
                    sigma_mode=mode, sigma_exp=sigma_exp)


_TINY = np.finfo(float).tiny


def _floored_log(u) -> np.ndarray:
    """log(max(u, tiny)), finite for every non-negative finite u."""
    return np.log(np.maximum(np.asarray(u, float), _TINY))


class _StageLogs:
    """log(max(u, tiny)) of a step's u_n and u^(2), each taken on first
    use and kept, and the geometric-mean denominators they give; apart
    from them, the log-ratio of the unfloored states that every sbar'
    of the step reads."""

    __slots__ = ("u_n", "u2", "log_n", "log_2", "ratio")

    def __init__(self, u_n: np.ndarray, u2: np.ndarray):
        self.u_n, self.u2 = u_n, u2
        self.log_n = self.log_2 = self.ratio = None

    def log_ratio(self) -> np.ndarray:
        """log(u^(2)) - log(u_n), unfloored, taken once."""
        if self.ratio is None:
            self.ratio = np.log(self.u2) - np.log(self.u_n)
        return self.ratio

    def geo_mean(self, e) -> np.ndarray:
        """Patankar denominator u2**e * u_n**(1 - e), a geometric mean,
        as exp(e log u2) * exp((1 - e) log u_n) on the kept logarithms."""
        if self.log_2 is None:
            self.log_2 = _floored_log(self.u2)
        out = np.exp(e * self.log_2)
        if e == 1.0:  # u_n**0 is exactly 1.0 for every positive finite u_n
            return out
        if self.log_n is None:
            self.log_n = _floored_log(self.u_n)
        return out * np.exp((1.0 - e) * self.log_n)


class _System(NamedTuple):
    """A Patankar system M_gamma x = u_n + gamma g of a step, with
    M_gamma = I + gamma dt (diag(loss/d) - P/d) on positive denominators
    d: the weighted exchange ``P`` and ``loss``, the gamma-linear part
    ``g`` of the right-hand side and ``M``, the matrix at gamma = 1 with
    the factor its solve left on it."""

    P: Exchange
    loss: np.ndarray
    g: np.ndarray
    M: object


def _solve(M, u_n: np.ndarray, gamma: float, g, what: str) -> np.ndarray:
    """The solution of M x = u_n + gamma g, checked positive; ``M`` is
    the system's M_gamma."""
    # 1.0 * g is g bit for bit, so gamma = 1 skips the multiply
    rhs = u_n + g if gamma == 1.0 else u_n + gamma * g
    return _check_positive(lu_solve(M, rhs), what)


def _tangent(M, x: np.ndarray, u_n: np.ndarray, gamma: float, v):
    """dx/dgamma of the solution x of M x = u_n + gamma g, M = M_gamma:
    M x' = (x - u_n)/gamma + (M - I) v with v = x d'/d, d the
    denominators, solved as x' = v + M^-1 ((x - u_n)/gamma - v), one
    solve with no product M v; ``v`` is None for a frozen d."""
    rhs = (x - u_n) / gamma
    if v is None:
        return lu_solve(M, rhs)
    return v + lu_solve(M, rhs - v)


@dataclass(frozen=True)
class StepRecord:
    """One MPRK step and everything needed to evaluate u^{n+gamma} and its
    gamma-derivative from it.

    ``stages`` are the full stage states, u_n first, ``rate_sets`` their
    rates and ``u_next`` the full new state; the stage right-hand sides
    ``stage_rhs`` are built from the rates only when read.  ``dm`` is the
    explicit block's increment over the step (None without one).  The
    Patankar part of u_n is ``logs.u_n``.  ``upd`` is the update's
    system, so u^{n+gamma} solves its M_gamma u = u_n + gamma g on the
    denominators sbar(gamma); for MPRK43I, ``sig`` is the embedded sigma
    system that bootstrapping solves for sbar(gamma) (None otherwise).

    ``step`` also leaves what the gamma-search would otherwise recompute
    on every probe: ``logs`` keeps log(max(u_n, tiny)) and log(max(u^(2),
    tiny)), each taken once, when a geometric-mean denominator first
    needs it (MPRK43I's pi3 and tau, a dense or bootstrap sbar(gamma)),
    and the unfloored log(u^(2)) - log(u_n) of every sbar'(gamma); each
    system keeps its matrix M_1 with the factor its solve left on it.
    At gamma = 1 every factor gamma multiplies is 1.0, so sbar(1) is
    ``sigma`` and these are the matrices a probe there would assemble,
    bit for bit.
    """

    scheme: MpScheme
    t_n: float
    dt: float
    stages: tuple
    rate_sets: tuple
    u_next: np.ndarray
    sigma: np.ndarray
    upd: _System
    sig: Optional[_System] = None
    logs: Optional[_StageLogs] = None
    dm: Optional[np.ndarray] = None
    # (gamma, (sbar, sigma matrix, M_gamma)) of the last gamma
    # assembled; see _gamma_matrix
    _last: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    u_n = property(lambda self: self.stages[0])

    @property
    def stage_rhs(self) -> tuple:
        return tuple(r.rhs for r in self.rate_sets)


def _check_positive(u: np.ndarray, what: str) -> np.ndarray:
    # components whose true value lies below the representable range
    # underflow to zero or denormals; floor them at the smallest normal
    # number so later divisions by sigma stay finite
    small = u < _TINY
    if small.any():
        if (u < 0.0).any():
            bad = np.flatnonzero(u < 0.0)
            raise PositivityError(f"{what} lost positivity at component {bad[0]}")
        u = np.where(small, _TINY, u)
    return u


def _weighted(rate_sets, weights):
    """The weighted sums of the rate sets' exchanges (on their common
    pattern), losses and production rest terms."""
    # start from 0: 0 + (-0.0) is +0.0, so no sum holds a negative zero
    vals = loss = rP = 0
    for w, r in zip(weights, rate_sets):
        vals = vals + w * r.P.vals
        loss = loss + w * r.loss
        rP = rP + w * r.rest_prod
    return Exchange(rate_sets[0].P.pattern, vals), loss, rP


def _full_state(u, m_n, rate_sets, weights, dt):
    """The Patankar part ``u`` joined with the explicit block's
    m_n + dt * sum_j w_j g_j; ``u`` itself when there is no block
    (``m_n`` None)."""
    if m_n is None:
        return u
    return np.concatenate([u, m_n + dt * _explicit_sum(rate_sets, weights)])


def _explicit_sum(rate_sets, weights):
    """sum_j w_j g_j over the rate sets' explicit right-hand sides."""
    acc = None
    for w, r in zip(weights, rate_sets):
        acc = w * r.explicit if acc is None else acc + w * r.explicit
    return acc


def _check_no_rest(r: RateSet) -> None:
    # the MPSSPRK2 update has no place for rest terms; it would drop them
    if np.any(r.rest_prod) or np.any(r.rest_dest):
        raise UnsupportedSchemeError(
            "MPSSPRK2 supports conservative PDS only (no rest terms)")


def step(sys: PdrsSystem, scheme: MpScheme, t_n: float, z_n: np.ndarray,
         dt: float) -> StepRecord:
    """Advance one step of the chosen MP scheme from (t_n, z_n): the
    Patankar part u by the MP scheme, an explicit block m by the
    scheme's Butcher tableau.  Every stage, MPRK43I's sigma and the
    update solve a Patankar system at gamma = 1 (MPSSPRK2's stage the
    one with g = 0 and factor beta dt)."""
    z_n = sys.check_state(z_n)
    if dt <= 0.0:
        raise ValueError(f"step size must be positive, got {dt}")
    if sys.explicit_dim:
        u_n, m_n = z_n[:sys.dim], z_n[sys.dim:]
    else:
        u_n, m_n = z_n, None

    # c_1 = 0, and z_n is checked: no second check_state through sys.rates
    rates = [RateSet(*sys.matrix_rates(t_n, z_n))]
    stages = [z_n]
    sig = None

    if scheme.kind in (MPRK22, MPRK43I):
        P, loss, rP = _weighted(rates, [scheme.a[1, 0]])
        u2 = _solve(patankar_matrix(P, loss, u_n, dt), u_n, 1.0, dt * rP,
                    "stage")
        stages.append(_full_state(u2, m_n, rates, scheme.a[1], dt))
        rates.append(sys.rates(t_n + scheme.c[1] * dt, stages[1]))
        logs = _StageLogs(u_n, u2)
        if scheme.kind == MPRK43I:
            pi3 = logs.geo_mean(1.0 / scheme.p_exp)
            P, loss, rP = _weighted(rates, scheme.a[2, :2])
            u3 = _solve(patankar_matrix(P, loss, pi3, dt), u_n, 1.0, dt * rP,
                        "stage")
            stages.append(_full_state(u3, m_n, rates, scheme.a[2], dt))
            rates.append(sys.rates(t_n + scheme.c[2] * dt, stages[2]))
            tau = logs.geo_mean(scheme.sigma_exp)
            P, loss, rP = _weighted(rates[:2], scheme.sigma_w)
            sig = _System(P, loss, dt * rP, patankar_matrix(P, loss, tau, dt))
            sigma = _solve(sig.M, u_n, 1.0, sig.g, "sigma")
        else:
            sigma = logs.geo_mean(scheme.sigma_exp)
        P, loss, rP = _weighted(rates, scheme.b)
        g = dt * rP
    else:  # MPSSPRK2
        _check_no_rest(rates[0])
        r = rates[0]
        u2 = _solve(patankar_matrix(r.P, r.loss, u_n, scheme.beta * dt), u_n,
                    1.0, 0.0, "stage")
        stages.append(_full_state(u2, m_n, rates, scheme.a[1], dt))
        rates.append(sys.rates(t_n + scheme.c[1] * dt, stages[1]))
        _check_no_rest(rates[1])
        logs = _StageLogs(u_n, u2)
        sigma = logs.geo_mean(scheme.sigma_exp)
        P, loss, _ = _weighted(rates, scheme.update_w)
        g = scheme.alpha * (u2 - u_n)

    upd = _System(P, loss, g, patankar_matrix(P, loss, sigma, dt))
    u_next = _solve(upd.M, u_n, 1.0, g, "update")
    dm = None
    if m_n is not None:
        dm = dt * _explicit_sum(rates, scheme.b)
        u_next = np.concatenate([u_next, m_n + dm])
    return StepRecord(scheme, t_n, dt, tuple(stages), tuple(rates), u_next,
                      sigma, upd, sig, logs, dm)


def _sigma_bar_value(rec: StepRecord, gamma: float):
    """sbar(gamma) in the scheme's sigma mode, without its derivative.

    Returns ``(sbar, M)``: ``M`` is the bootstrap sigma matrix at gamma
    (None otherwise), which ``_sigma_bar_prime`` reuses.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    mode = rec.scheme.sigma_mode
    # bootstrap (MPRK43I) solves the sigma system at gamma for sbar
    sig = rec.sig if mode == SIGMA_BOOTSTRAP else None
    # frozen, and any mode at gamma = 1, is the step's sigma (see StepRecord)
    if mode == SIGMA_FROZEN or gamma == 1.0:
        return rec.sigma, sig and sig.M
    # else sbar rests on the geometric mean of exponent gamma * sigma_exp
    mean = rec.logs.geo_mean(gamma * rec.scheme.sigma_exp)
    if sig is None:  # dense, MPRK22 or MPSSPRK2
        return mean, None
    M = patankar_matrix(sig.P, sig.loss, mean, gamma * rec.dt)
    return _solve(M, rec.logs.u_n, gamma, sig.g, "sigma_bar"), M


def _sigma_bar_prime(rec: StepRecord, gamma: float, sbar, M):
    """d sbar / d gamma from the pieces ``_sigma_bar_value`` returns."""
    if rec.scheme.sigma_mode == SIGMA_FROZEN:
        return np.zeros_like(sbar)
    v = sbar * rec.scheme.sigma_exp * rec.logs.log_ratio()
    if M is None:
        return v
    return _tangent(M, sbar, rec.logs.u_n, gamma, v)


def sigma_bar(rec: StepRecord, gamma: float):
    """Gamma-dependent denominator vector and its gamma-derivative, in
    the scheme's sigma mode; returns ``(sbar, sbar_prime)``."""
    sbar, M = _sigma_bar_value(rec, gamma)
    return sbar, _sigma_bar_prime(rec, gamma, sbar, M)


def _gamma_matrix(rec: StepRecord, gamma: float):
    """``(sbar, sigma matrix, M_gamma)`` at gamma.

    The relaxation solvers call ``gamma_update`` and then
    ``gamma_update_derivative`` at the same gamma, so the last result is
    kept on ``rec`` and the derivative does not assemble M_gamma again.
    At gamma = 1 the matrices are the step's own (see StepRecord).
    """
    last = rec._last
    if last is not None and last[0] == gamma:
        return last[1]
    sbar, M_sig = _sigma_bar_value(rec, gamma)
    upd = rec.upd
    if gamma == 1.0:
        M = upd.M
    else:
        M = patankar_matrix(upd.P, upd.loss, sbar, gamma * rec.dt)
    parts = (sbar, M_sig, M)
    object.__setattr__(rec, "_last", (gamma, parts))
    return parts


def gamma_update(rec: StepRecord, gamma: float) -> np.ndarray:
    """Positivity-preserving gamma-parameterized update u^{n+gamma}.

    Solves M_gamma u = u_n + gamma*g and appends m_n + gamma*dm for an
    explicit block; reproduces u^{n+1} bit for bit at gamma = 1 in every
    sigma mode (every factor gamma multiplies is then 1.0) and keeps the
    Patankar part positive for every gamma > 0.
    """
    M = _gamma_matrix(rec, gamma)[2]
    u_n = rec.logs.u_n
    u = _solve(M, u_n, gamma, rec.upd.g, "gamma update")
    if rec.dm is None:
        return u
    return np.concatenate([u, rec.u_n[u_n.size:] + gamma * rec.dm])


def gamma_update_derivative(rec: StepRecord, gamma: float,
                            u_gamma: np.ndarray) -> np.ndarray:
    """d u^{n+gamma} / d gamma, consistent with ``gamma_update``."""
    sbar, M_sig, M = _gamma_matrix(rec, gamma)
    u_n = rec.logs.u_n
    if rec.dm is not None:
        u_gamma = u_gamma[:u_n.size]
    v = None  # frozen sigma has sbar' = 0
    if rec.scheme.sigma_mode != SIGMA_FROZEN:
        v = u_gamma * _sigma_bar_prime(rec, gamma, sbar, M_sig) / sbar
    du = _tangent(M, u_gamma, u_n, gamma, v)
    if rec.dm is None:
        return du
    return np.concatenate([du, rec.dm])


class MpStepper:
    """Binds a PDRS (with or without an explicit block) and a scheme,
    whose sigma mode sets the curve u^{n+gamma}, into the stepper
    protocol consumed by the relaxation and step-control layers.

    A stepper provides ``step``, ``gamma_state``, ``gamma_state_derivative``,
    ``entropy_quadrature``, ``error_estimate`` and ``linear_invariants``.
    Contract: ``gamma_state(record, 1.0)`` is ``record.u_next`` bit for
    bit, so the relaxation takes u^{n+1} from the record instead of
    asking for the state at gamma = 1.
    """

    def __init__(self, sys: PdrsSystem, scheme: MpScheme):
        self.sys = sys
        self.scheme = scheme

    @property
    def linear_invariants(self):
        return self.sys.linear_invariants

    def step(self, t: float, u: np.ndarray, dt: float) -> StepRecord:
        return step(self.sys, self.scheme, t, u, dt)

    def gamma_state(self, record: StepRecord, gamma: float) -> np.ndarray:
        return gamma_update(record, gamma)

    def gamma_state_derivative(self, record: StepRecord, gamma: float,
                               u_gamma: np.ndarray) -> np.ndarray:
        return gamma_update_derivative(record, gamma, u_gamma)

    def entropy_quadrature(self, eta, record: StepRecord) -> float:
        """dt * sum_j b_j eta'(u^(j)) . f(u^(j)) over the stages."""
        acc = 0.0
        for bj, uj, fj in zip(self.scheme.b, record.stages, record.stage_rhs):
            acc += bj * float(eta.grad(uj) @ fj)
        return record.dt * acc

    def error_estimate(self, record: StepRecord, atol: float, rtol: float):
        """Scaled error of the step: against the aligned second stage, or
        by step doubling for MPRK43I, which has none."""
        w = atol + rtol * np.abs(record.u_n)
        if self.scheme.kind == MPRK43I:
            t, dt = record.t_n, record.dt
            half = self.step(t, record.u_n, 0.5 * dt)
            two = self.step(t + 0.5 * dt, half.u_next, 0.5 * dt)
            diff = (record.u_next - two.u_next) / w
            return (float(np.sqrt(np.mean(diff**2)))
                    / (2.0**self.scheme.order - 1.0))
        diff = (record.u_next - record.stages[1]) / w
        # the sum np.mean takes, without its dispatch
        return float(np.sqrt(np.add.reduce(diff**2) / diff.size))
