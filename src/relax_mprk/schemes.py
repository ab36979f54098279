"""Modified Patankar Runge-Kutta one-step maps.

Implements the one-step maps of MPRK22(alpha), MPRK43I(alpha, beta) and
MPSSPRK2(alpha, beta) for production-destruction-rest systems, each
stage, sigma and update in the step form of ``patankar_matrix``, and the
curve u^{n+gamma} the relaxation solver searches, which is the step's
record itself (``StepRecord.at`` and ``tangent``): one probe per gamma
solves for sigma_bar(gamma) and u^{n+gamma} with the step's kept systems
and keeps, on the record, both states and the latest probe's solutions
and factors, from which u'(gamma) and sigma_bar' are one substitution
each.  The explicit block of a partitioned system (see ``pdrs``) takes
the scheme's Butcher tableau, m^(i) = m_n + dt sum_j a_ij g_j, and moves
affinely in gamma: m^{n+gamma} = m_n + gamma dm.

The key structural fact used throughout: every stage and update is a
linear system whose matrix has unit-plus-nonnegative diagonal and
non-positive off-diagonal entries, so solutions with positive right-hand
sides stay strictly positive for every step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _TINY, PatankarSystem, lu_solve, patankar_matrix
from .pdrs import PdrsSystem, RateSet, _kept

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
        _require(0.5 <= alpha < np.inf,
                 f"MPRK22 requires finite alpha >= 1/2, got alpha = {alpha}")
        b2 = 1.0 / (2.0 * alpha)
        a = np.array([[0.0, 0.0], [alpha, 0.0]])
        b = np.array([1.0 - b2, b2])
        c = np.array([0.0, alpha])
        return MpScheme(kind, alpha, float("nan"), a, b, c, order=2, update_w=b,
                        sigma_mode=mode, sigma_exp=1.0 / alpha)

    if kind == MPRK43I:
        _require(beta is not None, "MPRK43I needs two parameters (alpha, beta)")
        _require(0.0 < alpha < np.inf and 0.0 < beta < np.inf,
                 f"MPRK43I requires finite alpha, beta > 0, got {alpha}, {beta}")
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


def _floored_log(u: np.ndarray) -> np.ndarray:
    """log(max(u, tiny)), finite for every non-negative finite u."""
    return np.log(np.maximum(u, _TINY))


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
        as one exponential exp(e log u2 + (1 - e) log u_n) on the kept
        logarithms: it underflows only where the mean itself does, as a
        product of two powers does where one power alone leaves the
        range (u2**2 for u2 < 1e-162 at e = 2)."""
        if self.log_2 is None:
            self.log_2 = _floored_log(self.u2)
        if e == 1.0:  # u_n**0 is exactly 1.0 for every positive finite u_n
            return np.exp(self.log_2)  # and 1.0 * x is x
        if self.log_n is None:
            self.log_n = _floored_log(self.u_n)
        return np.exp(e * self.log_2 + (1.0 - e) * self.log_n)


@dataclass
class StepRecord:
    """One MPRK step, and the curve u^{n+gamma} the relaxation searches
    along it: ``at(gamma)`` is u^{n+gamma} (``gamma_update``) and
    ``tangent(gamma, u)`` its gamma-derivative at u = u^{n+gamma}
    (``gamma_update_derivative``).

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

    Only ``step`` writes the fields (a frozen dataclass would spend more
    on its construction than a small system's Patankar solve), and it
    returns a ``FrozenRecord`` or a ``MovingRecord``, by sigma mode, whose
    ``solve(gamma)`` probes the curve and ``derivative(gamma, u)`` takes
    its tangent, so no probe dispatches on the sigma mode or the format.
    The probes stay on the record: ``by_gamma`` maps each probed gamma to
    (u^{n+gamma}, sbar(gamma)), starting from u^{n+1} and sigma at gamma
    = 1, made on first use and kept, so an unrelaxed step builds none
    and a ``dataclasses.replace`` copy starts cold.  The matrices, with
    their factors, and the solutions a tangent reads are kept for the
    latest probe only (``last``), beside the step's own at gamma = 1, so
    a regula falsi search holds two matrix sets however many gammas it
    probes; a tangent at an older gamma probes it again, to the same bits.
    """

    scheme: MpScheme
    t_n: float
    dt: float
    stages: tuple
    rate_sets: tuple
    u_next: np.ndarray
    sigma: np.ndarray
    upd: PatankarSystem
    sig: Optional[PatankarSystem] = None
    logs: Optional[_StageLogs] = None
    dm: Optional[np.ndarray] = None

    u_n = property(lambda self: self.stages[0])
    # (gamma, sigma matrix, sbar solution, M_gamma, u solution) of the
    # latest probe
    last = None

    @_kept
    def by_gamma(self) -> dict:
        return {1.0: (self.u_next, self.sigma)}

    @property
    def stage_rhs(self) -> tuple:
        return tuple(r.rhs for r in self.rate_sets)

    def at(self, gamma: float) -> np.ndarray:
        return gamma_update(self, gamma)

    def tangent(self, gamma: float, u: np.ndarray) -> np.ndarray:
        return gamma_update_derivative(self, gamma, u)

    def kept(self, gamma: float) -> tuple:
        """``(gamma, sigma matrix, sbar, M_gamma, u)`` at gamma, the
        matrices with their factors and the solutions in the systems'
        format: the latest probe's, the step's own at gamma = 1, or else
        those of gamma probed again."""
        last = self.last
        if last is not None and last[0] == gamma:
            return last
        if gamma == 1.0:
            u = self.u_next
            M, x = self.upd.one(u if self.dm is None else u[:self.sigma.size])
            if self.scheme.sigma_mode != SIGMA_BOOTSTRAP:
                return 1.0, None, None, M, x
            return (1.0, *self.sig.one(self.sigma), M, x)
        self.solve(gamma)
        return self.last

    def _joined(self, u: np.ndarray, gamma: float) -> np.ndarray:
        """The Patankar part ``u`` of u^{n+gamma} with the explicit
        block's m_n + gamma dm appended; ``u`` itself without a block."""
        if self.dm is None:
            return u
        return np.concatenate([u, self.u_n[u.size:] + gamma * self.dm])


class FrozenRecord(StepRecord):
    """A ``StepRecord`` whose sbar is the step's sigma: M_gamma is
    assembled on the update system's own denominators."""

    def solve(self, gamma: float) -> np.ndarray:
        M, x, u = self.upd.solve_at(gamma, self.dt, "gamma update")
        u = self._joined(u, gamma)
        self.by_gamma[gamma] = u, self.sigma
        self.last = gamma, None, None, M, x
        return u

    def derivative(self, gamma: float, u: np.ndarray) -> np.ndarray:
        _, _, _, M, x = self.kept(gamma)
        du = self.upd.tangent(M, x, gamma)
        return du if self.dm is None else np.concatenate([du, self.dm])


class MovingRecord(StepRecord):
    """A ``StepRecord`` whose sbar(gamma) is the geometric mean of
    exponent gamma e (dense), or the sigma system's solution on it
    (bootstrap, the one mode with a ``sig``)."""

    def solve(self, gamma: float) -> np.ndarray:
        sbar = d = self.logs.geo_mean(gamma * self.scheme.sigma_exp)
        M_sig = None
        if self.sig is not None:
            M_sig, d, sbar = self.sig.solve_at(gamma, self.dt, "sigma_bar",
                                               sbar)
        M, x, u = self.upd.solve_at(gamma, self.dt, "gamma update", d)
        u = self._joined(u, gamma)
        self.by_gamma[gamma] = u, sbar
        self.last = gamma, M_sig, d, M, x
        return u

    def derivative(self, gamma: float, u: np.ndarray) -> np.ndarray:
        _, _, _, M, x = self.kept(gamma)
        sbar, dsbar = sigma_bar(self, gamma)
        v = u[:sbar.size] * dsbar / sbar
        du = self.upd.tangent(M, x, gamma, v)
        return du if self.dm is None else np.concatenate([du, self.dm])


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
    unweighted one at factor beta dt)."""
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
        stage, rhs = patankar_matrix(rates, scheme.a[1, :1], u_n, dt, u_n)
        u2 = lu_solve(stage.M, rhs, "stage")
        stages.append(_full_state(u2, m_n, rates, scheme.a[1], dt))
        rates.append(sys.rates(t_n + scheme.c[1] * dt, stages[1]))
        logs = _StageLogs(u_n, u2)
        if scheme.kind == MPRK43I:
            pi3 = logs.geo_mean(1.0 / scheme.p_exp)
            stage, rhs = patankar_matrix(rates, scheme.a[2, :2], pi3, dt, u_n)
            u3 = lu_solve(stage.M, rhs, "stage")
            stages.append(_full_state(u3, m_n, rates, scheme.a[2], dt))
            rates.append(sys.rates(t_n + scheme.c[2] * dt, stages[2]))
            tau = logs.geo_mean(scheme.sigma_exp)
            sig, rhs = patankar_matrix(rates[:2], scheme.sigma_w, tau, dt, u_n)
            sigma = lu_solve(sig.M, rhs, "sigma")
        else:
            sigma = logs.geo_mean(scheme.sigma_exp)
        upd, rhs = patankar_matrix(rates, scheme.b, sigma, dt, u_n)
        u_next = lu_solve(upd.M, rhs, "update")
    else:  # MPSSPRK2
        _check_no_rest(rates[0])
        stage, rhs = patankar_matrix(rates, [1.0], u_n, scheme.beta * dt,
                                     u_n)
        u2 = lu_solve(stage.M, rhs, "stage")
        stages.append(_full_state(u2, m_n, rates, scheme.a[1], dt))
        rates.append(sys.rates(t_n + scheme.c[1] * dt, stages[1]))
        _check_no_rest(rates[1])
        logs = _StageLogs(u_n, u2)
        sigma = logs.geo_mean(scheme.sigma_exp)
        upd, _ = patankar_matrix(rates, scheme.update_w, sigma, dt, u_n)
        upd = upd._replace(g=scheme.alpha * (u2 - u_n))
        u_next = lu_solve(upd.M, upd.rhs(1.0), "update")
    dm = None
    if m_n is not None:
        dm = dt * _explicit_sum(rates, scheme.b)
        u_next = np.concatenate([u_next, m_n + dm])
    record = FrozenRecord if scheme.sigma_mode == SIGMA_FROZEN else MovingRecord
    return record(scheme, t_n, dt, tuple(stages), tuple(rates), u_next, sigma,
                  upd, sig, logs, dm)


def sigma_bar(rec: StepRecord, gamma: float):
    """Gamma-dependent denominator vector and its gamma-derivative, in
    the scheme's sigma mode, from the probe at gamma; returns ``(sbar,
    sbar_prime)``."""
    if gamma not in rec.by_gamma:
        gamma_update(rec, gamma)
    sbar = rec.by_gamma[gamma][1]
    if rec.scheme.sigma_mode == SIGMA_FROZEN:
        return sbar, np.zeros_like(sbar)
    v = sbar * rec.scheme.sigma_exp * rec.logs.log_ratio()
    if rec.sig is None:
        return sbar, v
    _, M_sig, x_sig, _, _ = rec.kept(gamma)
    return sbar, rec.sig.tangent(M_sig, x_sig, gamma, v)


def gamma_update(rec: StepRecord, gamma: float) -> np.ndarray:
    """Positivity-preserving gamma-parameterized update u^{n+gamma}.

    Solves M_gamma u = u_n + gamma*g and appends m_n + gamma*dm for an
    explicit block; reproduces u^{n+1} bit for bit at gamma = 1 in every
    sigma mode (every factor gamma multiplies is then 1.0) and keeps the
    Patankar part positive for every gamma > 0.

    sbar(gamma) is the step's sigma when frozen, the geometric mean of
    exponent gamma * sigma_exp when dense, and the sigma system's
    solution on that mean when bootstrapping (MPRK43I).  The probe is
    kept in ``rec.by_gamma``, so each gamma is solved once.
    """
    probe = rec.by_gamma.get(gamma)
    if probe is not None:
        return probe[0]
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return rec.solve(gamma)


def gamma_update_derivative(rec: StepRecord, gamma: float,
                            u_gamma: np.ndarray) -> np.ndarray:
    """d u^{n+gamma} / d gamma at u_gamma = u^{n+gamma}, consistent with
    ``gamma_update``: one substitution on the factor of the probe's
    M_gamma (two for a bootstrap sbar')."""
    if gamma not in rec.by_gamma:
        gamma_update(rec, gamma)
    return rec.derivative(gamma, u_gamma)


class MpStepper:
    """Binds a PDRS (with or without an explicit block) and a scheme,
    whose sigma mode sets the curve u^{n+gamma}, into the stepper
    protocol consumed by the relaxation and step-control layers.

    ``integrate`` calls ``step`` and ``error_estimate``; relaxation calls
    ``entropy_quadrature`` and searches the record's own curve, its
    ``at`` and ``tangent``.  ``gamma_state`` and ``gamma_state_derivative``
    are that curve's ``gamma_update`` and its derivative, for callers
    that hold the stepper, and ``linear_invariants`` are the system's.
    Contract: ``record.at(1.0)`` is ``record.u_next`` bit for bit, so the
    relaxation takes u^{n+1} from the record instead of asking for the
    state at gamma = 1.
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
