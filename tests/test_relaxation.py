import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from relax_mprk import relaxation
from relax_mprk.control import integrate
from relax_mprk.pdrs import NonFiniteStateError
from relax_mprk.problems import (cyclic3, lotka_volterra, make_problem,
                                 porous_medium)
from relax_mprk.relaxation import (EntropyFunctional, RelaxConfig,
                                   _entropy_rate, entropy_value,
                                   geometric_state, relax_step,
                                   residual_implicit, residual_implicit_value,
                                   solve_scalar)
from relax_mprk.schemes import MpStepper, build_scheme

from helpers import (count_factorizations, count_system_solves, counted,
                     linear_exchange)

L2 = EntropyFunctional(eval=lambda u: 0.5 * float(u @ u),
                       grad=lambda u: np.asarray(u, float),
                       regime="conservative")


def _dissipative_l2():
    return EntropyFunctional(eval=L2.eval, grad=L2.grad, regime="dissipative")


def _fake_step(u_old, u_new, quadrature, t_n=0.0, dt=1.0):
    """Minimal record/stepper pair for the affine (clamped) mode."""
    record = SimpleNamespace(t_n=t_n, dt=dt, u_n=np.asarray(u_old, float),
                             u_next=np.asarray(u_new, float))
    stepper = SimpleNamespace(entropy_quadrature=lambda eta, rec: quadrature)
    return record, stepper


def _curve(mode, u_old, u_new):
    record, _ = _fake_step(u_old, u_new, quadrature=0.0)
    return relaxation._curve(record, mode)


# ---------------------------------------------------------------------------
# Residuals: r(gamma) = eta(u(gamma)) - (eta_old + gamma e) on every curve

def test_residual_classical_values():
    curve = _curve("clamped_dissipative", [1.0, 0.0], [0.0, 1.0])
    assert residual_implicit_value(L2, curve, 0.5, 0.0, 0.0) == 0.0
    assert residual_implicit_value(L2, curve, 0.5, 0.0, 1.0) == pytest.approx(0.0)
    # point (-1, 2): eta = 5/2, target 1/2
    assert residual_implicit_value(L2, curve, 0.5, 0.0, 2.0) == pytest.approx(2.0)
    # the target moves by gamma e: e = -0.25 lowers it to 0
    assert residual_implicit_value(L2, curve, 0.5, -0.25, 2.0) == pytest.approx(2.5)
    # r'(2) = (-1, 2) . (-1, 1) - e
    assert residual_implicit(L2, curve, -0.25, 2.0) == pytest.approx(3.25)


def test_residual_classical_domain_error_marks_bracket():
    # above gamma = 1.5 the residual raises FloatingPointError, as numpy
    # does under relax_step's errstate where the entropy is undefined; the
    # walk passes over its probes at 2.23, 4.95 and 10 and finds the root
    # below 1
    def fun(g):
        if g > 1.5:
            raise FloatingPointError("invalid value encountered in log")
        return g - 0.2

    gamma, _, status = solve_scalar(fun, _cfg(solver="regula_falsi"))
    assert status == "converged"
    assert gamma == pytest.approx(0.2, abs=1e-9)
    # an affine point outside the log domain is an excluded probe
    eta = EntropyFunctional(eval=lambda u: float(np.sum(np.log(u))),
                            grad=lambda u: 1.0 / u, regime="conservative")
    curve = _curve("clamped_dissipative", [1.0, 1.0], [0.5, 1.5])
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        # gamma = 3 puts the first component at -0.5
        assert relaxation._probe(
            lambda g: residual_implicit_value(eta, curve, 0.0, 0.0, g),
            3.0) is None


def test_residual_geometric_values():
    u_old = np.array([1.0, 4.0])
    u_new = np.array([4.0, 1.0])
    assert np.allclose(geometric_state(u_old, u_new, 0.5), [2.0, 2.0])
    eta = EntropyFunctional(eval=L2.eval, grad=L2.grad, regime="conservative",
                            monotone_nondecreasing=True)
    curve = _curve("geometric", u_old, u_new)
    eta_old = L2.eval(u_old)
    assert residual_implicit_value(eta, curve, eta_old, 0.0, 0.0) == pytest.approx(0.0)
    r1 = residual_implicit_value(eta, curve, eta_old, 0.0, 1.0)
    assert r1 == L2.eval(u_new) - eta_old
    assert curve.states[1.0] is curve.at(1.0)


@pytest.mark.parametrize("mode", ["clamped_dissipative", "geometric",
                                  "implicit"])
def test_residual_derivative_matches_difference_quotient(mode):
    # one derivative, eta'(u(gamma)) . u'(gamma) - e, for every curve
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.5)
    eta = EntropyFunctional(eval=problem.eta.eval, grad=problem.eta.grad,
                            regime="conservative",
                            monotone_nondecreasing=True)
    curve = relaxation._curve(rec, mode)
    eta_old, rate, h = eta.eval(rec.u_n), -0.01, 1e-6
    for g in (0.5, 0.9, 1.3):
        fd = (residual_implicit_value(eta, curve, eta_old, rate, g + h)
              - residual_implicit_value(eta, curve, eta_old, rate, g - h)) / (2 * h)
        assert residual_implicit(eta, curve, rate, g) == pytest.approx(fd, rel=1e-6)


def test_geometric_state_positive_for_any_gamma():
    u_old = np.array([0.5, 3.0])
    u_new = np.array([2.0, 0.1])
    for gamma in (-2.0, 0.0, 0.5, 1.0, 5.0):
        assert np.all(geometric_state(u_old, u_new, gamma) > 0.0)


def test_residual_implicit_hand_values():
    sys = linear_exchange()
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    curve = relaxation._curve(rec, "implicit")
    # u^{n+2} = (0.25, 1.75): eta = 0.03125 + 1.53125, target 1
    r = residual_implicit_value(L2, curve, 1.0, 0.0, 2.0)
    assert r == pytest.approx(0.5625, rel=1e-13)
    assert residual_implicit(L2, curve, 0.0, 2.0) == pytest.approx(0.140625, rel=1e-13)


# ---------------------------------------------------------------------------
# Entropy estimate

def test_entropy_estimate_conservative_is_eta_old():
    # a conservative eta's target is eta(u^n): its rate is 0
    sys = linear_exchange()
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    assert _entropy_rate(L2, stepper, rec) == 0.0


def test_entropy_estimate_dissipative_adds_quadrature():
    from relax_mprk.problems import porous_medium
    problem = porous_medium(N=10, m=3.0)
    stepper = MpStepper(problem.sys, build_scheme("mpssprk2", 0.5, 1.0))
    rec = stepper.step(1.0, problem.u0, 0.1)
    eta = problem.eta
    rate = _entropy_rate(eta, stepper, rec)
    assert rate == stepper.entropy_quadrature(eta, rec)
    # all b_j >= 0 and eta' . f <= 0 for this semidiscretization
    assert rate <= 0.0


# ---------------------------------------------------------------------------
# Scalar solvers

def _cfg(**kw):
    return RelaxConfig(**kw)


def test_newton_immediate_root_at_one():
    gamma, iters, status = solve_scalar(lambda g: g - 1.0,
                                        _cfg(mode="implicit", solver="newton"),
                                        derivative=lambda g: 1.0)
    assert (gamma, status) == (1.0, "converged")
    assert iters == 1


def test_newton_requires_derivative():
    with pytest.raises(ValueError):
        solve_scalar(lambda g: g - 1.0, _cfg(solver="newton"))


@pytest.mark.parametrize("solver", ["regula_falsi"])
def test_bracketing_solvers_find_shifted_root(solver):
    # root at 1.3, away from the instant-accept probe at gamma = 1
    fun = lambda g: g * g - 1.69
    gamma, _, status = solve_scalar(fun, _cfg(solver=solver))
    assert status == "converged"
    assert abs(fun(gamma)) <= 1e-10


def test_newton_tiny_root_rejected_by_gamma_bounds():
    # residual with its only root far below gamma_min: Newton jumps out of
    # the admissible window and must report failure, not a spurious gamma
    fun = lambda g: g - 1e-12
    gamma, _, status = solve_scalar(fun, _cfg(solver="newton"),
                                    derivative=lambda g: 1.0)
    assert status == "failed"


def test_bracketing_no_sign_change_fails():
    gamma, _, status = solve_scalar(lambda g: 1.0 + g,
                                    _cfg(solver="regula_falsi"))
    assert status == "failed"


def _walk(gamma_min, gamma_max):
    """The outward walk's probes, nearest gamma = 1 first: log gamma =
    -0.1, 0.1, -0.2, 0.2, ... (the offset doubles, below 1 first), each
    side ending exactly on its bound."""
    out, offset = [], 0.1
    below = above = True
    while below or above:
        if below:
            below = math.exp(-offset) > gamma_min
            out.append(math.exp(-offset) if below else gamma_min)
        if above:
            above = math.exp(offset) < gamma_max
            out.append(math.exp(offset) if above else gamma_max)
        offset *= 2.0
    return out


@pytest.mark.parametrize("window, probes", [
    ((1e-6, 10.0), 15), ((0.1, 10.0), 12), ((1e-3, 2.0), 12),
    ((0.5, 1.5), 8), ((1e-9, 100.0), 16)])
def test_bracket_walk_probes_outward_to_the_bounds(window, probes):
    # a residual with no sign change makes the whole walk after r(1): its
    # length is the search's probe budget, each side's last probe is its
    # bound exactly, and at each distance the probe below 1 comes first
    seen = []

    def fun(g):
        seen.append(g)
        return 1.0 + g

    cfg = _cfg(solver="regula_falsi", gamma_min=window[0],
               gamma_max=window[1])
    assert solve_scalar(fun, cfg) == (1.0, 0, "failed")
    assert seen[0] == 1.0 and len(seen) == 1 + probes
    assert seen[1:] == _walk(*window)
    assert [g for g in seen if g < 1.0][-1] == window[0]
    assert [g for g in seen if g > 1.0][-1] == window[1]
    assert seen[1:5] == [math.exp(-0.1), math.exp(0.1),
                         math.exp(-0.2), math.exp(0.2)]


def test_bracket_walk_stops_at_the_nearest_sign_change():
    # roots at 0.3 and 1.15: the walk meets the sign change above 1 at its
    # fourth probe, and never probes below 0.8
    seen = []

    def fun(g):
        seen.append(g)
        return (g - 0.3) * (g - 1.15)

    gamma, _, status = solve_scalar(fun, _cfg(solver="regula_falsi"))
    assert status == "converged"
    assert gamma == pytest.approx(1.15, abs=1e-9)
    assert seen[1:5] == _walk(1e-6, 10.0)[:4]
    assert min(seen) > 0.8


def test_config_validation():
    with pytest.raises(ValueError):
        RelaxConfig(mode="affine")
    with pytest.raises(ValueError):
        RelaxConfig(solver="brent")
    with pytest.raises(ValueError):
        RelaxConfig(gamma_min=2.0)
    # the walk takes logs of both bounds and must reach them
    with pytest.raises(ValueError, match="0 < gamma_min"):
        RelaxConfig(gamma_min=0.0)
    with pytest.raises(ValueError, match="gamma_max < inf"):
        RelaxConfig(gamma_max=math.inf)
    with pytest.raises(ValueError):
        RelaxConfig(gamma_tol=0.0)
    # NaN fails every comparison, so it must not pass as a bound; an
    # infinite tolerance would accept gamma = 1 on every step as converged
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma_tol must be positive"):
            RelaxConfig(gamma_tol=bad)
    for bad in (0, math.nan, 2.5, 3.0, "10"):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RelaxConfig(max_iters=bad)
    assert RelaxConfig(max_iters=np.int64(3)).max_iters == 3


# ---------------------------------------------------------------------------
# Failure exits of the scalar solvers: each case pins today's
# (gamma, iterations, status).  On the default window (1e-6, 10] the
# walk's probes below 1 are exp(-0.1), exp(-0.2), exp(-0.4) = 0.670 and
# exp(-0.8) = 0.449, so a residual rising through 0.5 is bracketed on
# (0.449, 0.670).

_LO = math.exp(-0.4)


def _excluded(lo, hi, fun):
    """``fun`` with every probe in (lo, hi) raising, as an overflow would."""
    def probe(g):
        if lo < g < hi:
            raise FloatingPointError("excluded probe")
        return fun(g)
    return probe


def _rise(g):
    return g - 0.5


def _cube(g):
    return g**3 - 0.125


@pytest.mark.parametrize("solver, fun, kw, expected", [
    ("regula_falsi", _excluded(0.45, 0.6, _rise), {},
     (0.5, 1, "failed")),                           # excluded probe
    ("regula_falsi", _cube, dict(max_iters=2),
     (0.4959031732854459, 2, "failed")),            # max_iters
    ("regula_falsi", _excluded(0.4, 0.6, _rise), {},
     (1.0, 0, "failed")),                           # excluded walk probe
    ("regula_falsi", lambda g: g - _LO, {},
     (_LO, 1, "converged")),                        # left end is the root
    ("regula_falsi", lambda g: g - (_LO - 1e-12), {},
     (_LO, 1, "converged")),                        # right end within tol
    ("regula_falsi", lambda g: g - 1e-6, {},
     (1e-6, 1, "failed")),                          # root at gamma_min
], ids=["regula-falsi-excluded", "regula-falsi-max-iters", "walk-excluded",
        "bracket-left-end", "bracket-right-end", "root-outside-window"])
def test_bracketing_failure_exits(solver, fun, kw, expected):
    assert solve_scalar(fun, _cfg(solver=solver, **kw)) == expected


@pytest.mark.parametrize("derivative", [
    lambda g: 0.0, _excluded(0.0, 9.0, lambda g: 1.0)],
    ids=["zero", "excluded"])
def test_newton_fails_on_zero_or_excluded_derivative(derivative):
    assert solve_scalar(lambda g: g - 2.0, _cfg(solver="newton"),
                        derivative) == (1.0, 1, "failed")


# ---------------------------------------------------------------------------
# relax_step: clamped mode on a fabricated affine step

def test_clamped_root_below_one_is_taken():
    # eta = |u|^2/2, u_old=(1,1), u_new=(2,1): r(g) = g (1 + g/2 - 1.25),
    # root at g = 0.5
    eta = _dissipative_l2()
    record, stepper = _fake_step([1.0, 1.0], [2.0, 1.0], quadrature=1.25)
    out = relax_step(eta, stepper, record, _cfg(mode="clamped_dissipative",
                                                solver="newton"))
    assert out.status == "converged"
    assert out.gamma == pytest.approx(0.5, rel=1e-9)
    assert np.allclose(out.u_relaxed, [1.5, 1.0], rtol=1e-9)
    assert out.t_relaxed == pytest.approx(0.5, rel=1e-9)
    assert out.eta_after == pytest.approx(1.625, rel=1e-9)


def test_clamped_root_above_one_clamps():
    # same family with the root at g = 1.7: r(1) < 0 already meets the
    # estimated dissipation, the full step is kept
    eta = _dissipative_l2()
    record, stepper = _fake_step([1.0, 1.0], [2.0, 1.0], quadrature=1.85)
    out = relax_step(eta, stepper, record, _cfg(mode="clamped_dissipative",
                                                solver="newton"))
    assert out.status == "clamped_to_one"
    assert out.gamma == 1.0
    assert np.allclose(out.u_relaxed, record.u_next)
    assert out.t_relaxed == 1.0


def test_clamped_search_root_above_one_clamps():
    # eta = -(u - 1.5)^2 from u_old = 1 to u_new = 1.5: r(g) = (1 - (g-1)^2)/4
    # is positive at g = 1, so the search runs and finds the root g = 2;
    # the clamp then keeps the full step
    eta = EntropyFunctional(eval=lambda u: float(-(u[0] - 1.5) ** 2),
                            grad=lambda u: -2.0 * (u - 1.5),
                            regime="conservative")
    record, stepper = _fake_step([1.0], [1.5], quadrature=0.0, dt=0.1)
    out = relax_step(eta, stepper, record, _cfg(mode="clamped_dissipative",
                                                solver="regula_falsi"))
    assert (out.gamma, out.iterations, out.status) == (1.0, 7, "clamped_to_one")
    assert out.u_relaxed is record.u_next
    assert out.t_relaxed == 0.1


def test_clamped_state_is_convex_combination():
    eta = _dissipative_l2()
    record, stepper = _fake_step([1.0, 1.0], [2.0, 1.0], quadrature=1.25)
    out = relax_step(eta, stepper, record, _cfg(mode="clamped_dissipative",
                                                solver="regula_falsi"))
    assert 0.0 < out.gamma <= 1.0
    lo = np.minimum(record.u_n, record.u_next)
    hi = np.maximum(record.u_n, record.u_next)
    assert np.all(out.u_relaxed >= lo - 1e-14)
    assert np.all(out.u_relaxed <= hi + 1e-14)


# ---------------------------------------------------------------------------
# relax_step: geometric and implicit modes on real steps

def test_geometric_mode_requires_monotone_entropy():
    # integrate checks the entropy once per run, before the first step
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    calls = [0]
    stepper.step = counted(stepper.step, calls)
    with pytest.raises(ValueError, match="non-decreasing"):
        integrate(stepper, problem.eta, _cfg(mode="geometric",
                                             solver="newton"),
                  0.0, problem.u0, 1.0, 0.1)
    assert calls == [0]


def test_geometric_mode_with_override_finds_root():
    # |u|^2/2 is non-decreasing in each argument on the positive orthant,
    # where every geometric state lies; along the exchange step (1,1) ->
    # (0.4,1.6) the geometric residual has a genuine root inside (0, 1)
    eta = EntropyFunctional(eval=L2.eval, grad=L2.grad, regime="conservative",
                            monotone_nondecreasing=True)
    sys = linear_exchange()
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    out = relax_step(eta, stepper, rec, _cfg(mode="geometric", solver="newton"))
    assert out.status == "converged"
    assert 0.0 < out.gamma < 1.0
    assert np.all(out.u_relaxed > 0.0)
    assert out.eta_after == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_geometric_newton_leaving_window_fails_without_overflow():
    # eta = w . u with u_old = (1, 1), u_new = (2, 1/2): r(1) is about -0.2
    # and r'(1) about 7e-8, so the first Newton update lands near gamma =
    # 3e6, far above gamma_max, where (u_new)^gamma overflows
    eta = EntropyFunctional(eval=lambda u: float(u[0] + (4.0 - 1e-6) * u[1]),
                            grad=lambda u: np.array([1.0, 4.0 - 1e-6]),
                            regime="conservative",
                            monotone_nondecreasing=True)
    record, stepper = _fake_step([1.0, 1.0], [2.0, 0.5], quadrature=0.0)
    out = relax_step(eta, stepper, record, _cfg(mode="geometric",
                                                solver="newton"))
    assert out.status == "failed"
    assert out.gamma == 1.0
    assert np.array_equal(out.u_relaxed, record.u_next)


def test_geometric_mode_cannot_move_log_entropies():
    # for eta = sum(log u), non-decreasing in each argument, the geometric
    # state interpolates eta affinely, so the residual is linear in gamma
    # with its only root at 0: the solver must report failure rather than
    # a spurious tiny gamma
    eta = EntropyFunctional(eval=lambda u: float(np.sum(np.log(u))),
                            grad=lambda u: 1.0 / u, regime="conservative",
                            monotone_nondecreasing=True)
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    assert eta.eval(rec.u_next) != eta.eval(rec.u_n)
    out = relax_step(eta, stepper, rec, _cfg(mode="geometric",
                                             solver="regula_falsi"))
    assert out.status == "failed"


def test_implicit_mode_conserves_entropy_lotka_volterra():
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    eta0 = problem.eta.eval(problem.u0)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver="newton"))
    assert out.status == "converged"
    assert abs(out.eta_after - eta0) <= 1e-9
    assert np.all(out.u_relaxed > 0.0)
    assert out.t_relaxed == pytest.approx(out.gamma * rec.dt)


@pytest.mark.parametrize("solver", ["newton", "regula_falsi"])
def test_all_solvers_agree_on_implicit_gamma(solver):
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver=solver))
    assert out.status == "converged"
    assert out.gamma == pytest.approx(0.7548633, rel=1e-6)
    assert abs(out.eta_after - problem.eta.eval(problem.u0)) <= 1e-9


@pytest.mark.parametrize("solver", ["newton", "regula_falsi"])
def test_eta_values_belong_to_one_search(solver):
    # the record keeps its probes for every search on it, but the entropy
    # values stay with the search that took them: a second search with
    # 2 eta returns its own eta_after and gamma, the bits of the same
    # search on a fresh copy of the record
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    eta = problem.eta
    twice = EntropyFunctional(eval=lambda u: 2.0 * eta.eval(u),
                              grad=lambda u: 2.0 * eta.grad(u),
                              regime=eta.regime)
    cfg = _cfg(mode="implicit", solver=solver)
    outs = []
    for f in (eta, twice):
        out = relax_step(f, stepper, rec, cfg)
        fresh = relax_step(f, stepper, replace(rec), cfg)
        assert out.status == fresh.status == "converged"
        assert out.gamma.hex() == fresh.gamma.hex()
        assert out.eta_after.hex() == fresh.eta_after.hex()
        assert out.u_relaxed.tobytes() == fresh.u_relaxed.tobytes()
        outs.append(out)
    assert outs[1].eta_after == pytest.approx(2.0 * outs[0].eta_after,
                                              rel=1e-9)


def test_implicit_mode_preserves_linear_invariant():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk43i", 0.5, 0.75))
    rec = stepper.step(0.0, problem.u0, 0.2)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver="regula_falsi"))
    assert out.status == "converged"
    assert out.u_relaxed.sum() == pytest.approx(problem.u0.sum(), rel=1e-12)


def test_relax_step_rejects_mode_none():
    # mode none keeps the base step in integrate; relax_step has no curve
    # for it and must not fall through to the implicit one
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    with pytest.raises(ValueError, match="'none'"):
        relax_step(problem.eta, stepper, rec, _cfg(mode="none"))


def test_failed_relaxation_reports_base_step():
    # entropy u_1 alone is strictly decreasing along the exchange flow, so
    # the conservative residual has no root above gamma_min
    sys = linear_exchange()
    eta = EntropyFunctional(eval=lambda u: float(u[0]),
                            grad=lambda u: np.array([1.0, 0.0]),
                            regime="conservative")
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    out = relax_step(eta, stepper, rec, _cfg(mode="implicit", solver="newton"))
    assert out.status == "failed"
    assert out.gamma == 1.0
    assert np.array_equal(out.u_relaxed, rec.u_next)


_SQUARES = EntropyFunctional(eval=lambda u: float(np.sum(u**2)),
                             grad=lambda u: 2.0 * u, regime="dissipative")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode, u_old, u_new, quadrature, what", [
    # the search fails at every probe, so the base step is kept, and its
    # entropy overflows
    ("clamped_dissipative", [1.0], [1e200], 0.0, "the relaxed state"),
    # integrate keeps an unrelaxed step itself and takes its eta through
    # entropy_value
    ("none", [1.0], [1e200], 0.0, "the step"),
    ("clamped_dissipative", [1e200], [1.0], 0.0, "the step's start"),
    ("clamped_dissipative", [1.0], [2.0], 1e308, "the step's estimate"),
], ids=["relaxed", "none", "start", "estimate"])
def test_overflowing_entropy_raises_typed_error(mode, u_old, u_new,
                                                quadrature, what):
    # an overflow in eta ends in NonFiniteStateError, never in a numpy
    # warning or eta = inf
    record, _ = _fake_step(u_old, u_new, quadrature)
    stepper = SimpleNamespace(
        entropy_quadrature=lambda eta, rec: np.float64(quadrature) * 10.0)
    with pytest.raises(NonFiniteStateError, match=f"eta of {what} is not"):
        if mode == "none":
            entropy_value(_SQUARES, record.u_next)
        else:
            relax_step(_SQUARES, stepper, record,
                       _cfg(mode=mode, solver="newton"))


def test_entropy_value_raises_typed_errors_without_an_errstate():
    # under the suite's error::RuntimeWarning filter, with no errstate of
    # its own: a finite eta keeps the bits of the plain call, one that
    # overflows or is NaN ends in NonFiniteStateError
    problem = make_problem("stratospheric")
    u = problem.u0 * np.exp(np.linspace(-1.0, 1.0, 6))
    assert (np.float64(entropy_value(problem.eta, u)).tobytes()
            == np.float64(float(problem.eta.eval(u))).tobytes())
    overflowing = EntropyFunctional(
        eval=lambda u: float(np.sum(np.exp(450.0 * u))),
        grad=lambda u: 450.0 * np.exp(450.0 * u), regime="conservative")
    undefined = EntropyFunctional(eval=lambda u: float(np.sum(np.log(-u))),
                                  grad=lambda u: 1.0 / u,
                                  regime="conservative")
    nan = EntropyFunctional(eval=lambda u: math.nan, grad=lambda u: u,
                            regime="conservative")
    for eta, what in ((overflowing, "the step"), (undefined, "the start"),
                      (nan, "the end")):
        with pytest.raises(NonFiniteStateError,
                           match=f"^entropy eta of {what} is not finite$"):
            entropy_value(eta, np.array([1.6, 0.4]), what)
    assert np.geterr()["over"] == "warn"


def test_relax_step_evaluates_eta_once_at_the_start():
    # eta(u^n) serves both the target and the residual scale
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.2)
    at_start = []

    def counting_eval(u):
        at_start.append(np.array_equal(u, rec.u_n))
        return problem.eta.eval(u)

    eta = EntropyFunctional(eval=counting_eval, grad=problem.eta.grad,
                            regime=problem.eta.regime)
    out = relax_step(eta, stepper, rec, _cfg(mode="implicit", solver="newton"))
    assert out.status == "converged"
    assert at_start.count(True) == 1 and len(at_start) > 2


@pytest.mark.parametrize("kind, params, solver, base_solves", [
    # MPRK43I: two stages, the sigma system and the update, each assembled
    # and solved once; each bootstrap probe but the one at gamma = 1
    # assembles and solves for sigma_bar and for u^{n+gamma}
    ("mprk43i", (0.5, 0.75), "regula_falsi", 4),
    # MPRK22 (frozen sigma): stage and update; each Newton iteration
    # assembles M_gamma once (except at gamma = 1, whose M_1 is the
    # step's update matrix) and solves for u^{n+gamma} (except at
    # gamma = 1, which is u^{n+1}) and, while the residual is above the
    # tolerance, for its derivative
    ("mprk22", (1.0,), "newton", 2),
])
def test_relaxed_step_solve_count(monkeypatch, kind, params, solver, base_solves):
    # assemblies and solves of the step's systems and of each probe's
    # (PatankarSystem.solve_at) and tangent's (PatankarSystem.tangent),
    # and every assembled matrix factored once
    from relax_mprk import relaxation, schemes

    counts = {"solves": 0, "assemblies": 0, "factors": 0}
    count_system_solves(monkeypatch, counts)
    count_factorizations(monkeypatch, counts)
    values, derivatives = [0], [0]
    for name, calls in [("residual_implicit", derivatives),
                        ("residual_implicit_value", values)]:
        monkeypatch.setattr(relaxation, name,
                            counted(getattr(relaxation, name), calls))
    problem = lotka_volterra() if kind == "mprk22" else cyclic3()
    stepper = MpStepper(problem.sys, build_scheme(kind, *params))
    rec = stepper.step(0.0, problem.u0, 0.2)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver=solver))
    assert out.status == "converged"
    assert values[0] >= 2
    assert counts["factors"] == counts["assemblies"]
    solves, assemblies = counts["solves"], counts["assemblies"]
    if solver == "newton":
        assert values[0] == out.iterations
        assert derivatives[0] == out.iterations - 1
        assert solves == base_solves + 2 * (out.iterations - 1)
        assert assemblies == base_solves + out.iterations - 1
    else:
        assert derivatives[0] == 0
        assert solves == base_solves + 2 * (values[0] - 1)
        assert assemblies == base_solves + 2 * (values[0] - 1)
    u_check = schemes.gamma_update(rec, out.gamma)
    assert out.u_relaxed.tobytes() == u_check.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [3.0, 5.0])
@pytest.mark.parametrize("mode, solver", [
    ("clamped_dissipative", "newton"), ("geometric", "newton"),
    ("geometric", "regula_falsi"), ("implicit", "newton")])
def test_dissipative_target_scales_with_gamma(m, mode, solver):
    # time advances by gamma dt, so every mode must meet the dissipation
    # estimate of that time, eta_old + gamma e, not the whole step's
    # eta_old + e; the geometric regula falsi brackets its root between 1
    # and the walk's first probe, exp(-0.1)
    problem = porous_medium(N=160, m=m)
    stepper = MpStepper(problem.sys, build_scheme(*problem.defaults["method"]))
    rec = stepper.step(1.0, problem.u0, problem.mesh["dx"])
    eta_old = problem.eta.eval(rec.u_n)
    e = _entropy_rate(problem.eta, stepper, rec)
    cfg = _cfg(mode=mode, solver=solver)
    out = relax_step(problem.eta, stepper, rec, cfg)
    assert out.status == "converged"
    assert out.gamma != 1.0
    assert (abs(out.eta_after - eta_old - out.gamma * e)
            <= cfg.gamma_tol * max(1.0, abs(eta_old)))


@pytest.mark.parametrize("m, expected", [(3.0, 0.86353), (5.0, 0.95972)])
def test_regula_falsi_finds_the_pme_first_step_root(m, expected):
    # the implicit residual of the first step at dt = dx is negative only
    # on about (0.5, 0.87) for m = 3 and (0.49, 0.96) for m = 5, an
    # interval the walk reaches at exp(-0.2) = 0.82 and exp(-0.1) = 0.90;
    # regula falsi converges to Newton's root, to within the gamma that
    # the residual tolerance resolves at the root's slope
    problem = porous_medium(N=160, m=m)
    stepper = MpStepper(problem.sys, build_scheme(*problem.defaults["method"]))
    rec = stepper.step(1.0, problem.u0, problem.mesh["dx"])
    cfg = _cfg(mode="implicit", solver="regula_falsi")
    newton = relax_step(problem.eta, stepper, rec,
                        _cfg(mode="implicit", solver="newton"))
    out = relax_step(problem.eta, stepper, rec, cfg)
    assert (newton.status, out.status) == ("converged", "converged")
    assert out.gamma == pytest.approx(expected, abs=1e-5)
    eta_old = problem.eta.eval(rec.u_n)
    rate = _entropy_rate(problem.eta, stepper, rec)
    curve = relaxation._curve(rec, "implicit")
    slope = (residual_implicit(problem.eta, curve, rate, newton.gamma)
             / max(1.0, abs(eta_old)))
    assert abs(out.gamma - newton.gamma) <= 2.0 * cfg.gamma_tol / abs(slope)


@pytest.mark.parametrize("solver", ["newton", "regula_falsi"])
def test_clamped_search_probes_gamma_one_once(monkeypatch, solver):
    # relax_step probes r(1) to see whether the clamp applies; the search
    # reads that value again instead of taking eta(u^{n+1}) twice, and
    # eta of the relaxed state is the value of the probe that converged
    problem = porous_medium(N=160, m=3.0)
    stepper = MpStepper(problem.sys, build_scheme(*problem.defaults["method"]))
    rec = stepper.step(1.0, problem.u0, problem.mesh["dx"])
    probes, evals = [], [0]
    value = relaxation.residual_implicit_value

    def counted(eta, curve, eta_old, rate, gamma):
        probes.append(gamma)
        return value(eta, curve, eta_old, rate, gamma)

    def counting_eval(u):
        evals[0] += 1
        return problem.eta.eval(u)

    monkeypatch.setattr(relaxation, "residual_implicit_value", counted)
    eta = EntropyFunctional(eval=counting_eval, grad=problem.eta.grad,
                            regime=problem.eta.regime)
    out = relax_step(eta, stepper, rec, _cfg(mode="clamped_dissipative",
                                             solver=solver))
    assert out.status == "converged" and out.gamma < 1.0
    assert probes[0] == 1.0 and len(set(probes)) == len(probes)
    # eta(u^n) and one per probe
    assert evals[0] == len(probes) + 1
