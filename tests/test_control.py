import numpy as np
import pytest

from relax_mprk.control import (SAFETY, ControllerState, IntegrationError,
                                integrate, interp_state, pid_update,
                                relax_adapt)
from relax_mprk.pdrs import NonFiniteStateError
from relax_mprk.problems import cyclic3, lotka_volterra
from relax_mprk.relaxation import (EntropyFunctional, RelaxConfig,
                                   entropy_value)
from relax_mprk.schemes import MpStepper, build_scheme

from helpers import counted, dense_system, linear_exchange


def _state(dt=1.0, **kw):
    kw.setdefault("dt_min", 1e-12)
    kw.setdefault("dt_max", 1e6)
    return ControllerState(dt=dt, **kw)


# ---------------------------------------------------------------------------
# Controller primitives

def test_pid_update_err_one_empty_history():
    st = _state()
    assert pid_update(st, 1.0, 2) == pytest.approx(SAFETY * 1.0)


def test_pid_update_formula_single_error():
    st = _state()
    # eps = 1/err = 4, factor = SAFETY * 4^(0.7/2)
    assert pid_update(st, 0.25, 2) == pytest.approx(SAFETY * 4.0 ** 0.35)


def test_pid_update_growth_clamp():
    st = _state()
    assert pid_update(st, 1e-12, 2) == pytest.approx(5.0)
    st = _state()
    assert pid_update(st, 1e12, 2) == pytest.approx(0.2)


def test_pid_update_shifts_history():
    # the update keeps its error as the previous one, and the next update
    # weighs it: eps_0 = 1 and eps_1 = 1/0.25 = 4 give SAFETY * 4^(0.4/2)
    st = _state(err_prev=0.3)
    pid_update(st, 0.25, 2)
    assert st.err_prev == 0.25
    dt = st.dt
    assert pid_update(st, 1.0, 2) == pytest.approx(dt * SAFETY * 4.0 ** 0.2)


def test_pid_update_rejects_nonpositive_error():
    with pytest.raises(ValueError):
        pid_update(_state(), 0.0, 2)


def test_relax_adapt_values():
    st = _state()
    assert relax_adapt(st, True) == pytest.approx(1.01)
    assert st.dt == pytest.approx(1.01)
    assert relax_adapt(_state(), False) == pytest.approx(0.9)
    st = _state(dt_min=0.95)
    assert relax_adapt(st, False) == 0.95 and st.dt == 0.95
    st = _state(dt_max=1.0)
    assert relax_adapt(st, True) == 1.0 and st.dt == 1.0


# ---------------------------------------------------------------------------
# Fixed-step driver

def _zero_system(dim=2):
    def matrix_rates(t, u):
        return np.zeros((dim, dim)), np.zeros(dim), np.zeros(dim)

    return dense_system(matrix_rates, np.zeros((dim, dim)))


def test_integrate_zero_rates_replicates_state():
    stepper = MpStepper(_zero_system(), build_scheme("mprk22", 1.0))
    traj = integrate(stepper, None, None, 0.0, [1.0, 2.0], 5.0, 1.0)
    assert traj.n_steps == 5
    for u in traj.states:
        assert np.allclose(u, [1.0, 2.0], rtol=1e-14)
    assert all(g == 1.0 for g in traj.gammas)


def test_integrate_fixed_matches_direct_stepping():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    traj = integrate(stepper, None, None, 0.0, problem.u0, 1.0, 0.1)
    t, u = 0.0, np.array(problem.u0)
    for k in range(1, len(traj.times)):
        rec = stepper.step(t, u, min(0.1, 1.0 - t))
        t, u = t + rec.dt, rec.u_next
        assert np.array_equal(traj.states[k], u)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_integrate_truncates_final_step():
    stepper = MpStepper(_zero_system(), build_scheme("mprk22", 1.0))
    traj = integrate(stepper, None, None, 0.0, [1.0, 1.0], 1.0, 0.3)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)
    assert traj.dts[-1] == pytest.approx(0.1, abs=1e-12)


def test_integrate_validates_arguments():
    stepper = MpStepper(_zero_system(), build_scheme("mprk22", 1.0))
    with pytest.raises(ValueError):
        integrate(stepper, None, None, 0.0, [1.0, 1.0], -1.0, 0.1)
    with pytest.raises(ValueError, match="adaptivity"):
        integrate(stepper, None, None, 0.0, [1.0, 1.0], 1.0, 0.1,
                  adaptivity="auto")
    problem = cyclic3()
    with pytest.raises(ValueError, match="entropy"):
        integrate(stepper, None, RelaxConfig(mode="implicit"),
                  0.0, [1.0, 1.0], 1.0, 0.1)


@pytest.mark.parametrize("t0, t_end", [(0.0, np.inf), (0.0, np.nan),
                                        (-np.inf, 1.0), (np.nan, 1.0)])
def test_integrate_rejects_non_finite_time_span(t0, t_end):
    # t < t_end - 1e-12 * span is False for a NaN span: without the
    # check the run would end at once with no steps
    stepper = MpStepper(_zero_system(), build_scheme("mprk22", 1.0))
    with pytest.raises(ValueError, match="must be finite"):
        integrate(stepper, None, None, t0, [1.0, 1.0], t_end, 0.1)


@pytest.mark.parametrize("dt0", [0.0, -0.1, np.nan])
def test_integrate_rejects_non_positive_dt0(dt0):
    stepper = MpStepper(_zero_system(), build_scheme("mprk22", 1.0))
    calls = [0]
    stepper.step = counted(stepper.step, calls)
    with pytest.raises(ValueError, match="dt0 must be positive"):
        integrate(stepper, None, None, 0.0, [1.0, 1.0], 1.0, dt0)
    assert calls == [0]


@pytest.mark.parametrize("rtol, atol", [(0.0, 0.0), (-1e-6, 1e-6),
                                        (1e-6, -1e-6), (np.nan, 1e-6)])
def test_integrate_rejects_bad_tolerances_before_stepping(rtol, atol):
    # a zero weight atol + rtol |u| would divide by zero in the error
    # estimate, deep inside the first step
    problem = cyclic3()
    stepper = problem.stepper(build_scheme("mprk22", 1.0))
    calls = [0]
    stepper.step = counted(stepper.step, calls)
    with pytest.raises(ValueError, match="rtol and atol must be "
                                         "non-negative and not both zero"):
        integrate(stepper, problem.eta, None, 0.0, problem.u0, 1.0, 0.1,
                  adaptivity="pid", rtol=rtol, atol=atol)
    assert calls == [0]


def test_mode_none_returns_base_step():
    # mode none keeps the base step as it is, like no relaxation at all
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    traj = integrate(stepper, problem.eta, RelaxConfig(mode="none"), 0.0,
                     problem.u0, 0.1, 0.1)
    rec = stepper.step(0.0, problem.u0, 0.1)
    assert traj.n_steps == 1
    assert (traj.gammas[1], traj.statuses[1]) == (1.0, "none")
    assert np.array_equal(traj.states[1], rec.u_next)
    assert traj.times[1] == 0.1
    assert traj.etas[1] == entropy_value(problem.eta, rec.u_next)


def test_step_budget_counts_attempts():
    # a budget of k attempts runs k base steps; a run of 4 steps needs 4
    stepper = MpStepper(_zero_system(), build_scheme("mprk22", 1.0))
    steps = [0]
    stepper.step = counted(stepper.step, steps)
    with pytest.raises(IntegrationError, match="budget exceeded at t = 3.0"):
        integrate(stepper, None, None, 0.0, [1.0, 1.0], 4.0, 1.0, max_steps=3)
    assert steps == [3]
    integrate(stepper, None, None, 0.0, [1.0, 1.0], 4.0, 1.0, max_steps=4)
    assert steps == [7]


def test_integrate_relaxed_conserves_entropy():
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    traj = integrate(stepper, problem.eta, RelaxConfig(mode="implicit"),
                     0.0, problem.u0, 20.0, 1.0, adaptivity="relax_only")
    eta0 = traj.etas[0]
    drift = max(abs(e - eta0) for e in traj.etas)
    assert drift <= traj.n_steps * 1e-9
    for u in traj.states:
        assert np.all(u > 0.0)


class _DriftStepper:
    """Synthetic stepper whose relaxation residual is gamma itself.

    For any real conservative system the residual shrinks with dt, so the
    gamma search eventually succeeds at small steps.  Here the residual is
    dt-independent with its only root at the excluded trivial point, so
    every search fails and the retry path runs to completion.
    """

    scheme = build_scheme("mprk22", 1.0)

    def step(self, t, u, dt):
        from types import SimpleNamespace
        u = np.asarray(u, float)
        return SimpleNamespace(t_n=t, dt=dt, u_n=u, u_next=u + 1.0,
                               at=lambda gamma: u + gamma,
                               tangent=lambda gamma, u_gamma:
                               np.ones_like(u_gamma))

    def error_estimate(self, record, atol, rtol):
        return 1e-8


_DRIFT_ETA = EntropyFunctional(eval=lambda u: float(u[0]),
                               grad=lambda u: np.eye(len(u))[0],
                               regime="conservative")


def test_relax_failure_shrinks_dt_until_abort():
    with pytest.raises(IntegrationError, match="relaxation failures"):
        integrate(_DriftStepper(), _DRIFT_ETA,
                  RelaxConfig(mode="implicit", solver="newton"),
                  0.0, np.array([1.0, 1.0]), 10.0, 1.0,
                  adaptivity="relax_only")


def test_relax_failure_without_adaptivity_keeps_base_step():
    traj = integrate(_DriftStepper(), _DRIFT_ETA,
                     RelaxConfig(mode="implicit", solver="newton"),
                     0.0, np.array([1.0, 1.0]), 3.0, 1.0)
    assert traj.statuses[1:] == ["failed"] * 3
    assert traj.times[-1] == pytest.approx(3.0)
    assert np.allclose(traj.states[-1], [4.0, 4.0])


class _RoughStepper(_DriftStepper):
    """Synthetic stepper whose error estimate rejects every step."""

    def error_estimate(self, record, atol, rtol):
        return 1e3


def test_pid_rejections_end_in_dt_underflow():
    # every reject shrinks dt by the growth clamp's 1/5 until it reaches
    # dt_min = 1e-12 * span
    with pytest.raises(IntegrationError,
                       match=r"dt underflow at t = 0\.0 \(err = 1\.000e\+03\)"):
        integrate(_RoughStepper(), None, None, 0.0, np.array([1.0, 1.0]),
                  10.0, 1.0, adaptivity="pid")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", [None, RelaxConfig(mode="none")],
                         ids=["no_config", "mode_none"])
def test_unrelaxed_overflowing_entropy_raises_typed_error(cfg):
    # eta(1, 1) = 2 exp(450) is finite, eta(0.4, 1.6) overflows: an
    # unrelaxed step takes eta as relax_step does, so the overflow ends in
    # NonFiniteStateError, never in a numpy warning or eta = inf
    eta = EntropyFunctional(eval=lambda u: float(np.sum(np.exp(450.0 * u))),
                            grad=lambda u: 450.0 * np.exp(450.0 * u),
                            regime="conservative")
    stepper = MpStepper(linear_exchange(), build_scheme("mprk22", 1.0))
    with pytest.raises(NonFiniteStateError, match="eta of the step is not"):
        integrate(stepper, eta, cfg, 0.0, [1.0, 1.0], 2.0, 1.0)
    with pytest.raises(NonFiniteStateError,
                       match="eta of the initial state is not"):
        integrate(stepper, eta, cfg, 0.0, [1.6, 0.4], 2.0, 1.0)


def test_pid_adaptivity_grows_step_on_smooth_problem():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    traj = integrate(stepper, None, None, 0.0, problem.u0, 1.0, 1e-3,
                     adaptivity="pid", rtol=1e-5, atol=1e-5)
    assert max(traj.dts) > 5e-3
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_pid_adaptivity_step_doubling_for_three_stage_scheme():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk43i", 0.5, 0.75))
    traj = integrate(stepper, None, None, 0.0, problem.u0, 1.0, 1e-2,
                     adaptivity="pid", rtol=1e-6, atol=1e-6)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(np.all(u > 0.0) for u in traj.states)


# ---------------------------------------------------------------------------
# Trajectory utilities

def test_interp_state():
    times = np.array([0.0, 1.0, 3.0])
    states = np.array([[0.0], [2.0], [6.0]])
    assert interp_state(times, states, -1.0) == pytest.approx(0.0)
    assert interp_state(times, states, 5.0) == pytest.approx(6.0)
    assert interp_state(times, states, 2.0) == pytest.approx(4.0)
