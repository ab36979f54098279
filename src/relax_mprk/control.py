"""Time-integration drivers: fixed-step and adaptive loops.

Adaptivity combines two mechanisms that multiply into the same dt: a PI
error controller acting on the stepper's error estimate (embedded, or step
doubling for MPRK43I), and the relaxation accept/reject rule (grow dt by
1% after a successful gamma search, shrink by 10% and retry after a
failed one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .relaxation import (MODE_GEOMETRIC, MODE_NONE, STATUS_FAILED, RelaxConfig,
                         entropy_value, relax_step)

ADAPT_FIXED = "fixed"
ADAPT_PID = "pid"
ADAPT_RELAX = "relax_only"
ADAPT_PID_RELAX = "pid_and_relax"
ADAPT_MODES = (ADAPT_FIXED, ADAPT_PID, ADAPT_RELAX, ADAPT_PID_RELAX)

GROWTH_CLAMP = (0.2, 5.0)
# the PI law's exponent weights on the current and the previous error, and
# its safety factor
PI_GAINS = (0.7, 0.4)
SAFETY = 0.9


class IntegrationError(RuntimeError):
    pass


@dataclass
class ControllerState:
    dt: float
    dt_min: float
    dt_max: float
    err_prev: Optional[float] = None

    def clamp(self, dt: float) -> float:
        return min(max(dt, self.dt_min), self.dt_max)


def pid_update(state: ControllerState, err: float, order_hat: int) -> float:
    """New dt from the PI law; keeps ``err`` as the previous error.

    dt_new = dt * clamp(SAFETY * eps_0^{b_0/order} * eps_1^{b_1/order},
    0.2, 5) with eps_k = 1/err_k over the current and the previous error
    (the second factor is left out on the first update) and (b_0, b_1) =
    ``PI_GAINS``.
    """
    if err <= 0.0:
        raise ValueError(f"scaled error must be positive, got {err}")
    factor = SAFETY * (1.0 / err) ** (PI_GAINS[0] / order_hat)
    if state.err_prev is not None:
        factor *= (1.0 / state.err_prev) ** (PI_GAINS[1] / order_hat)
    factor = min(max(factor, GROWTH_CLAMP[0]), GROWTH_CLAMP[1])
    state.err_prev = err
    state.dt = state.clamp(state.dt * factor)
    return state.dt


def relax_adapt(state: ControllerState, relax_ok: bool) -> float:
    """Grow ``state.dt`` by 1% on relaxation success, shrink it by 10% on
    failure, within its bounds; returns the new dt."""
    state.dt = state.clamp(state.dt * (1.01 if relax_ok else 0.9))
    return state.dt


@dataclass
class Trajectory:
    """Accepted steps of one integration run."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    n_rejected: int = 0

    @property
    def n_steps(self) -> int:
        # the stored row 0 is the initial state, not a step
        return max(0, len(self.dts) - 1)

    def append(self, t, u, dt, gamma, status, eta_val):
        self.times.append(float(t))
        self.states.append(np.array(u))
        self.dts.append(float(dt))
        self.gammas.append(float(gamma))
        self.statuses.append(status)
        self.etas.append(float(eta_val))


def check_run(eta, relax_cfg: Optional[RelaxConfig], t0: float,
              t_end: float, dt0: float) -> bool:
    """Whether a run relaxes; ValueError for a run ``integrate`` cannot
    make: t0 or t_end not finite, t_end <= t0, dt0 not > 0, relaxation
    without eta, or geometric relaxation on a non-monotone eta."""
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t0 and t_end must be finite, got {t0} and {t_end}")
    if not t_end > t0:
        raise ValueError(f"t_end must exceed t0 = {t0}, got {t_end}")
    if not dt0 > 0.0:
        raise ValueError(f"dt0 must be positive, got {dt0}")
    if relax_cfg is None or relax_cfg.mode == MODE_NONE:
        return False
    if eta is None:
        raise ValueError("relaxation requires an entropy functional")
    if relax_cfg.mode == MODE_GEOMETRIC and not eta.monotone_nondecreasing:
        raise ValueError("geometric relaxation requires an entropy that "
                         "is non-decreasing in each argument")
    return True


def integrate(stepper, eta, relax_cfg: Optional[RelaxConfig], t0: float,
              u0, t_end: float, dt0: float, adaptivity: str = ADAPT_FIXED,
              rtol: float = 1e-6, atol: float = 1e-6,
              max_steps: int = 2_000_000) -> Trajectory:
    """Integrate from (t0, u0) to t_end.

    Loop: base step, optional PI error test, optional relaxation.  On
    relaxation failure with relax adaptivity enabled, dt shrinks by 10%
    and the step is retried from the same state; without it the base step
    is kept and the failure is recorded.  The final step is truncated to
    land on t_end (up to the gamma time shift).  A run that has not
    reached t_end after ``max_steps`` attempted steps raises
    ``IntegrationError``; arguments ``check_run`` rejects raise
    ``ValueError``.
    """
    if adaptivity not in ADAPT_MODES:
        raise ValueError(f"unknown adaptivity mode {adaptivity!r}")
    relaxing = check_run(eta, relax_cfg, t0, t_end, dt0)
    span = t_end - t0
    use_pid = adaptivity in (ADAPT_PID, ADAPT_PID_RELAX)
    use_relax_adapt = adaptivity in (ADAPT_RELAX, ADAPT_PID_RELAX)

    ctrl = ControllerState(dt=dt0, dt_min=1e-12 * span, dt_max=span)
    t = float(t0)
    u = np.array(u0, dtype=float)
    traj = Trajectory()
    eta0 = (entropy_value(eta, u, "the initial state") if eta is not None
            else np.nan)
    traj.append(t, u, 0.0, 1.0, "initial", eta0)

    n_attempts = 0
    while t < t_end - 1e-12 * span:
        if n_attempts >= max_steps:
            raise IntegrationError(f"step budget exceeded at t = {t}")
        n_attempts += 1
        dt = min(ctrl.dt, t_end - t)
        record = stepper.step(t, u, dt)

        err = None
        if use_pid:
            err = max(stepper.error_estimate(record, atol, rtol), 1e-10)
            if err > 1.0:
                traj.n_rejected += 1
                new_dt = pid_update(ctrl, err, stepper.scheme.order)
                if new_dt <= ctrl.dt_min:
                    raise IntegrationError(
                        f"dt underflow at t = {t} (err = {err:.3e})")
                continue

        if relaxing:
            out = relax_step(eta, stepper, record, relax_cfg)
            if out.status == STATUS_FAILED and use_relax_adapt:
                # no pid_update here: a gamma-search failure must shrink
                # dt monotonically or retries would race the controller
                traj.n_rejected += 1
                if relax_adapt(ctrl, False) <= ctrl.dt_min:
                    raise IntegrationError(
                        f"dt underflow after repeated relaxation failures "
                        f"at t = {t}")
                continue
            if use_pid:
                pid_update(ctrl, err, stepper.scheme.order)
            if use_relax_adapt:
                relax_adapt(ctrl, True)
            t, u = out.t_relaxed, out.u_relaxed
            traj.append(t, u, dt, out.gamma, out.status, out.eta_after)
        else:
            if use_pid:
                pid_update(ctrl, err, stepper.scheme.order)
            t, u = record.t_n + dt, record.u_next
            eta_val = entropy_value(eta, u) if eta is not None else np.nan
            traj.append(t, u, dt, 1.0, "none", eta_val)

    return traj


def interp_state(times: np.ndarray, states: np.ndarray, t: float) -> np.ndarray:
    """Piecewise-linear interpolation of a stored trajectory at time t."""
    if t <= times[0]:
        return states[0]
    if t >= times[-1]:
        return states[-1]
    i = int(np.searchsorted(times, t)) - 1
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * states[i] + w * states[i + 1]
