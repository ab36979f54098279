from types import SimpleNamespace

import numpy as np
import pytest

from relax_mprk.problems import cyclic3, lotka_volterra
from relax_mprk.relaxation import (EntropyFunctional, RelaxConfig,
                                   entropy_estimate, geometric_state,
                                   relax_step, residual_classical,
                                   residual_geometric, residual_implicit,
                                   solve_scalar)
from relax_mprk.schemes import MpStepper, build_scheme

from helpers import linear_exchange

L2 = EntropyFunctional(eval=lambda u: 0.5 * float(u @ u),
                       grad=lambda u: np.asarray(u, float),
                       regime="conservative", name="half_norm_sq")


def _dissipative_l2():
    return EntropyFunctional(eval=L2.eval, grad=L2.grad,
                             regime="dissipative", name="half_norm_sq")


def _fake_step(u_old, u_new, quadrature, t_n=0.0, dt=1.0):
    """Minimal record/stepper pair for the affine (clamped) mode."""
    record = SimpleNamespace(t_n=t_n, dt=dt, u_n=np.asarray(u_old, float),
                             u_next=np.asarray(u_new, float))
    stepper = SimpleNamespace(entropy_quadrature=lambda eta, rec: quadrature)
    return record, stepper


# ---------------------------------------------------------------------------
# Residuals

def test_residual_classical_values():
    u_old = np.array([1.0, 0.0])
    u_new = np.array([0.0, 1.0])
    assert residual_classical(L2, u_old, u_new, 0.5, 0.5, 0.0) == 0.0
    assert residual_classical(L2, u_old, u_new, 0.5, 0.5, 1.0) == pytest.approx(0.0)
    # point (-1, 2): eta = 5/2, interpolated target 1/2
    assert residual_classical(L2, u_old, u_new, 0.5, 0.5, 2.0) == pytest.approx(2.0)


def test_residual_classical_domain_error_marks_bracket():
    from relax_mprk.relaxation import ResidualDomainError
    eta = EntropyFunctional(eval=lambda u: float(np.sum(np.log(u))),
                            grad=lambda u: 1.0 / u, regime="conservative")
    u_old = np.array([1.0, 1.0])
    u_new = np.array([0.5, 1.5])
    # gamma = 3 puts the first component at -0.5, outside the log domain
    with pytest.raises(ResidualDomainError):
        residual_classical(eta, u_old, u_new, 0.0, 0.0, 3.0)


def test_residual_geometric_values():
    u_old = np.array([1.0, 4.0])
    u_new = np.array([4.0, 1.0])
    assert np.allclose(geometric_state(u_old, u_new, 0.5), [2.0, 2.0])
    assert residual_geometric(L2, u_old, u_new, L2.eval(u_old), 0.0) == pytest.approx(0.0)
    r1 = residual_geometric(L2, u_old, u_new, L2.eval(u_old), 1.0)
    assert r1 == pytest.approx(L2.eval(u_new) - L2.eval(u_old))


def test_geometric_state_positive_for_any_gamma():
    u_old = np.array([0.5, 3.0])
    u_new = np.array([2.0, 0.1])
    for gamma in (-2.0, 0.0, 0.5, 1.0, 5.0):
        assert np.all(geometric_state(u_old, u_new, gamma) > 0.0)


def test_residual_implicit_hand_values():
    sys = linear_exchange()
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0), "frozen")
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    # u^{n+2} = (0.25, 1.75): eta = 0.03125 + 1.53125, target 1
    r, dr = residual_implicit(L2, stepper, rec, 1.0, 2.0)
    assert r == pytest.approx(0.5625, rel=1e-13)
    assert dr == pytest.approx(0.140625, rel=1e-13)


# ---------------------------------------------------------------------------
# Entropy estimate

def test_entropy_estimate_conservative_is_eta_old():
    sys = linear_exchange()
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    assert entropy_estimate(L2, stepper, rec) == L2.eval(rec.u_n)


def test_entropy_estimate_dissipative_adds_quadrature():
    from relax_mprk.problems import porous_medium
    problem = porous_medium(N=10, m=3.0)
    stepper = MpStepper(problem.sys, build_scheme("mpssprk2", 0.5, 1.0))
    rec = stepper.step(1.0, problem.u0, 0.1)
    eta = problem.eta
    est = entropy_estimate(eta, stepper, rec)
    # all b_j >= 0 and eta' . f <= 0 for this semidiscretization
    assert est <= eta.eval(rec.u_n) + 1e-15


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


@pytest.mark.parametrize("solver", ["bisection", "regula_falsi", "secant"])
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
    gamma, _, status = solve_scalar(lambda g: 1.0 + g, _cfg(solver="bisection"))
    assert status == "failed"


def test_config_validation():
    with pytest.raises(ValueError):
        RelaxConfig(mode="affine")
    with pytest.raises(ValueError):
        RelaxConfig(solver="brent")
    with pytest.raises(ValueError):
        RelaxConfig(gamma_min=2.0)
    with pytest.raises(ValueError):
        RelaxConfig(gamma_tol=0.0)


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


def test_clamped_state_is_convex_combination():
    eta = _dissipative_l2()
    record, stepper = _fake_step([1.0, 1.0], [2.0, 1.0], quadrature=1.25)
    out = relax_step(eta, stepper, record, _cfg(mode="clamped_dissipative",
                                                solver="bisection"))
    assert 0.0 < out.gamma <= 1.0
    lo = np.minimum(record.u_n, record.u_next)
    hi = np.maximum(record.u_n, record.u_next)
    assert np.all(out.u_relaxed >= lo - 1e-14)
    assert np.all(out.u_relaxed <= hi + 1e-14)


# ---------------------------------------------------------------------------
# relax_step: geometric and implicit modes on real steps

def test_geometric_mode_requires_monotone_entropy():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    with pytest.raises(ValueError, match="non-decreasing"):
        relax_step(problem.eta, stepper, rec, _cfg(mode="geometric",
                                                   solver="newton"))


def test_geometric_mode_with_override_finds_root():
    # |u|^2/2 is not monotone in each argument, so the override is needed;
    # along the exchange step (1,1) -> (0.4,1.6) the geometric residual has
    # a genuine root inside (0, 1)
    sys = linear_exchange()
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, np.array([1.0, 1.0]), 1.0)
    out = relax_step(L2, stepper, rec,
                     _cfg(mode="geometric", solver="newton",
                          geometric_override=True))
    assert out.status == "converged"
    assert 0.0 < out.gamma < 1.0
    assert np.all(out.u_relaxed > 0.0)
    assert out.eta_after == pytest.approx(1.0, abs=1e-9)


def test_geometric_mode_cannot_move_log_entropies():
    # for eta = -sum(log u) the geometric state interpolates eta affinely,
    # so the residual is linear in gamma with its only root at 0: the
    # solver must report failure rather than a spurious tiny gamma
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    out = relax_step(problem.eta, stepper, rec,
                     _cfg(mode="geometric", solver="bisection",
                          geometric_override=True))
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


@pytest.mark.parametrize("solver", ["newton", "regula_falsi", "bisection",
                                    "secant"])
def test_all_solvers_agree_on_implicit_gamma(solver):
    problem = lotka_volterra()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver=solver))
    assert out.status == "converged"
    assert out.gamma == pytest.approx(0.7548633, rel=1e-6)
    assert abs(out.eta_after - problem.eta.eval(problem.u0)) <= 1e-9


def test_implicit_mode_preserves_linear_invariant():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk43i", 0.5, 0.75))
    rec = stepper.step(0.0, problem.u0, 0.2)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver="regula_falsi"))
    assert out.status == "converged"
    assert out.u_relaxed.sum() == pytest.approx(problem.u0.sum(), rel=1e-12)


def test_mode_none_returns_base_step():
    problem = cyclic3()
    stepper = MpStepper(problem.sys, build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, 0.1)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="none"))
    assert out.gamma == 1.0
    assert np.array_equal(out.u_relaxed, rec.u_next)
    assert out.t_relaxed == 0.1


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


@pytest.mark.parametrize("kind, params, solver, base_solves", [
    # MPRK43I: two stages, the sigma system and the update; each bootstrap
    # probe solves for sigma_bar and for u^{n+gamma}
    ("mprk43i", (0.5, 0.75), "regula_falsi", 4),
    # MPRK22 (frozen sigma): stage and update; each Newton iteration solves
    # for u^{n+gamma} and its derivative
    ("mprk22", (1.0,), "newton", 2),
])
def test_relaxed_step_solve_count(monkeypatch, kind, params, solver, base_solves):
    from relax_mprk import relaxation, schemes

    solves, probes = [0], [0]
    lu_solve = schemes.lu_solve

    def counting_solve(A, b):
        solves[0] += 1
        return lu_solve(A, b)

    def counted(fn):
        def wrapper(*args):
            probes[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(schemes, "lu_solve", counting_solve)
    monkeypatch.setattr(relaxation, "residual_implicit",
                        counted(relaxation.residual_implicit))
    monkeypatch.setattr(relaxation, "residual_implicit_value",
                        counted(relaxation.residual_implicit_value))
    problem = lotka_volterra() if kind == "mprk22" else cyclic3()
    stepper = MpStepper(problem.sys, build_scheme(kind, *params))
    rec = stepper.step(0.0, problem.u0, 0.2)
    out = relax_step(problem.eta, stepper, rec, _cfg(mode="implicit",
                                                     solver=solver))
    assert out.status == "converged"
    assert probes[0] >= 2
    assert solves[0] == base_solves + 2 * probes[0]
    u_check = schemes.gamma_update(rec, out.gamma, stepper.sigma_mode)
    assert out.u_relaxed.tobytes() == u_check.tobytes()
