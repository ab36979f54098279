import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relax_mprk import schemes
from relax_mprk.linalg import CyclicTridiagonal, SingularMatrixError, lu_solve
from relax_mprk.pdrs import PositivityError
from relax_mprk.problems import PROBLEM_FACTORIES, make_problem
from relax_mprk.schemes import (SIGMA_MODES, MpStepper, SchemeParameterError,
                                UnsupportedSchemeError, _StageLogs,
                                build_scheme, gamma_update,
                                gamma_update_derivative, patankar_matrix,
                                sigma_bar, step)

from helpers import (count_factorizations, count_system_solves, counted,
                     dense_system, gamma_one_matches_assembly,
                     linear_exchange, random_conservative_system)

ALL_SCHEMES = [("mprk22", 1.0, None), ("mprk43i", 0.5, 0.75),
               ("mpssprk2", 0.5, 1.0)]


# ---------------------------------------------------------------------------
# Scheme construction

def test_build_mprk22():
    sch = build_scheme("mprk22", 1.0)
    assert np.allclose(sch.b, [0.5, 0.5])
    assert np.allclose(sch.c, [0.0, 1.0])
    assert sch.order == 2


def test_build_mprk43i():
    sch = build_scheme("mprk43i", 0.5, 0.75)
    assert sch.a[1, 0] == pytest.approx(0.5)
    assert sch.a[2, 0] == pytest.approx(0.0, abs=1e-15)
    assert sch.a[2, 1] == pytest.approx(0.75)
    assert np.allclose(sch.b, [2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0])
    assert sch.b.sum() == pytest.approx(1.0)
    assert sch.p_exp == pytest.approx(0.5)
    assert sch.order == 3


def test_build_mpssprk2():
    sch = build_scheme("mpssprk2", 0.5, 1.0)
    # beta20 = 1 - 1/(2 beta) - alpha beta = 0, beta21 = 0.5
    assert np.allclose(sch.update_w, [0.0, 0.5])
    assert sch.sigma_exp == pytest.approx(2.0)
    assert sch.order == 2


def test_build_scheme_parameter_validation():
    with pytest.raises(SchemeParameterError, match="alpha >= 1/2"):
        build_scheme("mprk22", 0.4)
    # non-finite parameters, which would give a non-finite tableau
    for args in (("mprk22", np.inf), ("mprk22", np.nan),
                 ("mprk43i", np.inf, 0.75), ("mprk43i", 0.5, np.inf),
                 ("mprk43i", 0.5, np.nan), ("mpssprk2", 0.5, np.inf)):
        with pytest.raises(SchemeParameterError):
            build_scheme(*args)
    with pytest.raises(SchemeParameterError):
        build_scheme("mpssprk2", 1.0, 1.0)  # alpha*beta + 1/(2 beta) = 1.5
    with pytest.raises(SchemeParameterError, match="alpha != 2/3"):
        build_scheme("mprk43i", 2.0 / 3.0, 0.75)
    with pytest.raises(SchemeParameterError):
        build_scheme("mprk43i", 0.5, None)
    with pytest.raises(SchemeParameterError, match="unknown"):
        build_scheme("rk4", 1.0)
    # MPRK22 has no beta to drop, nor a positional sigma mode
    for beta in (0.3, "dense"):
        with pytest.raises(SchemeParameterError, match="no beta"):
            build_scheme("mprk22", 1.0, beta)


# ---------------------------------------------------------------------------
# Update matrix and one-step map on the hand-worked exchange system

def _update_matrix(dt):
    # MPRK22(1) from (1, 1): stage (0.5, 1.5) is also sigma, the update
    # weights are (1/2, 1/2), and the step's own arrays build M
    gd = step(linear_exchange(), build_scheme("mprk22", 1.0), 0.0,
              np.array([1.0, 1.0]), 1.0)
    assert np.allclose(gd.sigma, [0.5, 1.5], rtol=1e-14)
    return patankar_matrix(gd.upd, gd.upd.loss, gd.sigma, dt).toarray()


def test_update_matrix_hand_values():
    M = _update_matrix(1.0)
    assert np.allclose(M, [[2.5, 0.0], [-1.5, 1.0]], rtol=1e-14)


def test_update_matrix_dt_zero_is_identity():
    assert np.allclose(_update_matrix(0.0), np.eye(2))


def test_step_linear_exchange_hand_values():
    sys = linear_exchange()
    sch = build_scheme("mprk22", 1.0)
    rec = step(sys, sch, 0.0, np.array([1.0, 1.0]), 1.0)
    assert np.allclose(rec.stages[1], [0.5, 1.5], rtol=1e-14)
    assert np.allclose(rec.u_next, [0.4, 1.6], rtol=1e-14)
    assert rec.u_next.sum() == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("kind,alpha,beta", ALL_SCHEMES)
def test_step_zero_rates_is_identity(kind, alpha, beta):
    def matrix_rates(t, u):
        return np.zeros((3, 3)), np.zeros(3), np.zeros(3)

    sys = dense_system(matrix_rates, np.zeros((3, 3)))
    sch = build_scheme(kind, alpha, beta)
    u0 = np.array([0.3, 1.0, 2.5])
    rec = step(sys, sch, 0.0, u0, 7.0)
    assert np.allclose(rec.u_next, u0, rtol=1e-14)


def test_mpssprk2_rejects_rest_terms():
    from relax_mprk.problems import lotka_volterra
    sys = lotka_volterra().sys
    sch = build_scheme("mpssprk2", 0.5, 1.0)
    with pytest.raises(UnsupportedSchemeError):
        step(sys, sch, 0.0, np.array([2.0, 2.0]), 0.1)


@pytest.mark.parametrize("t_on,n_calls", [(0.0, 1), (0.05, 2)])
def test_mpssprk2_rejects_rest_terms_of_a_conservative_system(t_on, n_calls):
    # an exchange plus an inflow from t_on on; MPSSPRK2 must not drop rP,
    # and an inflow at t_n is rejected before the stage is solved
    calls = []

    def matrix_rates(t, u):
        calls.append(t)
        P = np.zeros((2, 2))
        P[1, 0] = u[0]
        return P, np.array([0.1 if t >= t_on else 0.0, 0.0]), np.zeros(2)

    sys = dense_system(matrix_rates, [[0, 0], [1, 0]], (np.ones(2),))
    sch = build_scheme("mpssprk2", 0.5, 1.0)
    with pytest.raises(UnsupportedSchemeError, match="rest terms"):
        step(sys, sch, 0.0, np.array([1.0, 1.0]), 0.1)
    assert len(calls) == n_calls


@pytest.mark.parametrize("kind,alpha,beta,mode", [
    ("mprk22", 1.0, None, "bootstrap"), ("mprk22", 1.0, None, "bogus"),
    ("mprk43i", 0.5, 0.75, "dense"), ("mpssprk2", 0.5, 1.0, "bootstrap")])
def test_stepper_rejects_invalid_sigma_mode(kind, alpha, beta, mode):
    # the scheme carries the mode, so no stepper is built in an invalid one
    with pytest.raises(UnsupportedSchemeError, match="sigma mode"):
        build_scheme(kind, alpha, beta, sigma_mode=mode)


def test_step_rejects_nonpositive_dt():
    sys = linear_exchange()
    sch = build_scheme("mprk22", 1.0)
    with pytest.raises(ValueError):
        step(sys, sch, 0.0, np.ones(2), 0.0)


# ---------------------------------------------------------------------------
# Gamma-parameterized denominators and update

def _exchange_record(sigma_mode=None):
    sys = linear_exchange()
    sch = build_scheme("mprk22", 1.0, sigma_mode=sigma_mode)
    return sys, sch, step(sys, sch, 0.0, np.array([1.0, 1.0]), 1.0)


def _records(kind, alpha, beta, sys, u0, dt):
    """One record of the step from u0 per sigma mode of ``kind``."""
    return [step(sys, build_scheme(kind, alpha, beta, sigma_mode=mode), 0.0,
                 u0, dt) for mode in SIGMA_MODES[kind]]


def test_sigma_bar_frozen():
    _, sch, rec = _exchange_record()
    sbar, sprime = sigma_bar(rec, 2.0)
    assert np.array_equal(sbar, rec.sigma)
    assert np.array_equal(sprime, np.zeros(2))


def test_sigma_bar_dense_hand_values():
    _, sch, rec = _exchange_record("dense")
    sbar, sprime = sigma_bar(rec, 2.0)
    assert np.allclose(sbar, [0.25, 2.25], rtol=1e-14)
    expected = [0.25 * np.log(0.5), 2.25 * np.log(1.5)]
    assert np.allclose(sprime, expected, rtol=1e-13)


def test_sigma_bar_dense_at_gamma_alpha_is_stage():
    _, sch, rec = _exchange_record("dense")
    sbar, _ = sigma_bar(rec, sch.alpha)
    assert np.allclose(sbar, rec.stages[1], rtol=1e-14)


def test_sigma_bar_invalid_arguments():
    for mode in SIGMA_MODES["mprk22"]:
        _, sch, rec = _exchange_record(mode)
        with pytest.raises(ValueError, match="gamma must be positive"):
            sigma_bar(rec, -1.0)


def test_gamma_update_frozen_hand_values():
    _, _, rec = _exchange_record()
    u2g = gamma_update(rec, 2.0)
    assert np.allclose(u2g, [0.25, 1.75], rtol=1e-14)
    # sum-conserving even though the affine extrapolation (-0.2, 2.2) is not
    assert u2g.sum() == pytest.approx(2.0, rel=1e-14)
    assert np.all(u2g > 0.0)


@pytest.mark.parametrize("kind,alpha,beta", ALL_SCHEMES)
def test_gamma_update_reproduces_step_at_gamma_one(kind, alpha, beta):
    rng = np.random.default_rng(17)
    sys = random_conservative_system(rng, 4)
    u0 = rng.uniform(0.2, 2.0, size=4)
    for rec in _records(kind, alpha, beta, sys, u0, 0.3):
        u1 = gamma_update(rec, 1.0)
        assert np.allclose(u1, rec.u_next, rtol=1e-13)


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
def test_gamma_state_at_one_is_step_bitwise(name):
    # the relaxation takes u^{n+1} for the state at gamma = 1 instead of
    # solving for it, which relies on this contract of every stepper
    problem = make_problem(name)
    t0, dt = problem.tspan[0], problem.defaults["dt0"]
    steppers = [problem.stepper(build_scheme(kind, alpha, beta,
                                             sigma_mode=mode))
                for kind, alpha, beta in ALL_SCHEMES
                for mode in SIGMA_MODES[kind]]
    for stepper in steppers:
        # MPSSPRK2 takes conservative systems only
        r = stepper.sys.rates(t0, problem.u0)
        if stepper.scheme.kind == "mpssprk2" and (
                np.any(r.rest_prod) or np.any(r.rest_dest)):
            continue
        rec = stepper.step(t0, problem.u0, dt)
        u1 = stepper.gamma_state(rec, 1.0)
        assert u1.tobytes() == rec.u_next.tobytes(), \
            (stepper.scheme.kind, stepper.scheme.sigma_mode)


@pytest.mark.parametrize("kind,alpha,beta", ALL_SCHEMES)
def test_gamma_matrix_memo_is_never_stale(kind, alpha, beta):
    # gamma_update keeps M_gamma on the record for the derivative at the
    # same gamma; at any other gamma, or on a fresh StepRecord, the
    # derivative must come out the same bit for bit, in every sigma mode
    rng = np.random.default_rng(41)
    sys = random_conservative_system(rng, 4)
    u0 = rng.uniform(0.2, 2.0, size=4)
    for rec in _records(kind, alpha, beta, sys, u0, 0.3):
        for g1, g2 in [(0.8, 1.3), (1.3, 1.3)]:
            gamma_update(rec, g1)
            u_g = gamma_update(replace(rec), g2)
            du = gamma_update_derivative(rec, g2, u_g)
            fresh = gamma_update_derivative(replace(rec), g2, u_g)
            assert du.tobytes() == fresh.tobytes(), (g1, g2,
                                                     rec.scheme.sigma_mode)


@pytest.mark.parametrize("kind,alpha,beta,mode", [
    (kind, alpha, beta, mode) for kind, alpha, beta in ALL_SCHEMES
    for mode in SIGMA_MODES[kind]])
def test_gamma_one_reuses_the_step_matrices(monkeypatch, kind, alpha, beta,
                                            mode):
    # at gamma = 1 every factor gamma multiplies is 1.0, so the Newton
    # derivative there substitutes with the step's own factored matrices
    rng = np.random.default_rng(43)
    sys = random_conservative_system(rng, 4)
    rec = step(sys, build_scheme(kind, alpha, beta, sigma_mode=mode), 0.0,
               rng.uniform(0.2, 2.0, size=4), 0.3)
    gamma_one_matches_assembly(monkeypatch, rec)


@pytest.mark.parametrize("spec, kind, params, mode", [
    # bootstrap: the planned format (d = 3) and the band format (N = 100)
    (("cyclic3", {}), "mprk43i", (0.5, 0.75), "bootstrap"),
    (("advection", {"N": 100, "entropy_kind": "sqrt"}), "mprk43i",
     (0.5, 0.75), "bootstrap"),
    (("cyclic3", {}), "mprk22", (1.0,), "dense")])
def test_sigma_bar_reads_the_probe_of_gamma_update(monkeypatch, spec, kind,
                                                    params, mode):
    # sbar(gamma), the bootstrap sigma matrix and M_gamma are one probe:
    # sigma_bar after gamma_update at the same gamma assembles and
    # factors nothing, and gives the bits of a cold call
    name, kwargs = spec
    problem = make_problem(name, **kwargs)
    stepper = problem.stepper(build_scheme(kind, *params, sigma_mode=mode))
    rec = stepper.step(problem.tspan[0], problem.u0, problem.defaults["dt0"])
    gamma_update(rec, 1.1)
    calls = {"assemblies": 0, "solves": 0, "factors": 0}
    count_system_solves(monkeypatch, calls)
    count_factorizations(monkeypatch, calls)
    kept = sigma_bar(rec, 1.1)
    # sbar' of a bootstrap sigma is one solve on the kept sigma factor
    bootstrap = mode == "bootstrap"
    assert calls == {"assemblies": 0, "solves": int(bootstrap), "factors": 0}
    cold = sigma_bar(replace(rec), 1.1)
    # the cold call makes the whole probe: it assembles, factors and
    # solves M_gamma, and for bootstrap first the sigma system for sbar
    assert calls == {"assemblies": 1 + bootstrap,
                     "solves": 1 + 3 * bootstrap, "factors": 1 + bootstrap}
    for new, old in zip(kept, cold):
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("spec, compiled", [
    (("cyclic3", {}), False), (("cyclic3", {}), True),
    (("advection", {"N": 100, "entropy_kind": "log"}), False)])
def test_mpssprk2_stage_is_the_plain_unweighted_solve(spec, compiled):
    # the stage comes from the step form with weight 1.0 and g = 0; it
    # keeps the bits of the plain assembly of the first rate set's
    # exchange at factor beta * dt, solved against u_n
    name, kwargs = spec
    problem = make_problem(name, **kwargs)
    if compiled:
        plan = problem.sys.pattern.lu_plan
        plan.compile()
        assert plan.source is not None
    scheme = build_scheme("mpssprk2", 0.3, 1.2)
    dt = problem.defaults["dt0"]
    rec = step(problem.sys, scheme, problem.tspan[0], problem.u0, dt)
    r = rec.rate_sets[0]
    M = patankar_matrix(r.P, r.loss, rec.u_n, scheme.beta * dt)
    assert isinstance(M, CyclicTridiagonal) == (name == "advection")
    u2 = lu_solve(M, rec.u_n)
    assert rec.stages[1].tobytes() == u2.tobytes()


def test_dense_sigma_derivatives_take_the_stage_logs_once(monkeypatch):
    # log(u^(2)) - log(u_n) is the same for every gamma of a step: a dense
    # sigma Newton search on Lotka-Volterra takes its two logarithms in
    # the first derivative and none in the later ones, and sbar' keeps
    # the bits of the formula that took them afresh
    from relax_mprk.relaxation import RelaxConfig, relax_step

    problem = make_problem("lotka_volterra")
    # alpha = 0.75 makes the gamma-rate 1/alpha of sbar' a factor other than 1
    stepper = MpStepper(problem.sys,
                        build_scheme("mprk22", 0.75, sigma_mode="dense"))
    rec = stepper.step(0.0, problem.u0, 0.2)
    counts = {"logs": 0, "derivatives": 0}
    inside = [False]
    log = np.log

    def counted_log(*args, **kwargs):
        counts["logs"] += inside[0]
        return log(*args, **kwargs)

    derivative = schemes.gamma_update_derivative

    def counted_derivative(*args):
        counts["derivatives"] += 1
        inside[0] = True
        try:
            return derivative(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(np, "log", counted_log)
    # the search takes each derivative from the record's curve, which
    # calls gamma_update_derivative
    monkeypatch.setattr(schemes, "gamma_update_derivative",
                        counted_derivative)
    out = relax_step(problem.eta, stepper, rec,
                     RelaxConfig(mode="implicit", solver="newton"))
    assert out.status == "converged" and counts["derivatives"] >= 3
    assert counts["logs"] == 2
    sbar, dsbar = sigma_bar(rec, out.gamma)
    fresh = sbar * (1.0 / 0.75) * (log(rec.stages[1]) - log(rec.u_n))
    assert dsbar.tobytes() == fresh.tobytes()
    # the ratio is of the unfloored states, apart from the floored logs
    # of the geometric means: a subnormal u_n keeps its own logarithm
    u_n, u2 = np.array([5e-324, 1.0]), np.array([1e-300, 2.0])
    logs = _StageLogs(u_n, u2)
    logs.geo_mean(0.5)
    assert logs.log_ratio().tobytes() == (log(u2) - log(u_n)).tobytes()


def test_gamma_update_derivative_frozen_hand_values():
    _, _, rec = _exchange_record()
    u2g = gamma_update(rec, 2.0)
    du = gamma_update_derivative(rec, 2.0, u2g)
    assert np.allclose(du, [-0.09375, 0.09375], rtol=1e-13)
    # closed form: d/dgamma 1/(1 + 1.5 gamma) at gamma = 2 is -1.5/16
    assert du[0] == pytest.approx(-1.5 / 16.0, rel=1e-13)


@pytest.mark.parametrize("kind,alpha,beta", ALL_SCHEMES)
def test_gamma_update_derivative_matches_finite_differences(kind, alpha, beta):
    rng = np.random.default_rng(23)
    sys = random_conservative_system(rng, 4)
    h = 1e-6
    for mode in SIGMA_MODES[kind]:
        sch = build_scheme(kind, alpha, beta, sigma_mode=mode)
        for _ in range(10):
            u0 = rng.uniform(0.2, 2.0, size=4)
            rec = step(sys, sch, 0.0, u0, rng.uniform(0.05, 0.5))
            gamma = rng.uniform(0.5, 2.0)
            u_g = gamma_update(rec, gamma)
            du = gamma_update_derivative(rec, gamma, u_g)
            fd = (gamma_update(rec, gamma + h)
                  - gamma_update(rec, gamma - h)) / (2.0 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(du - fd).max() / scale <= 1e-6


def test_gamma_update_derivative_zero_rates_is_zero():
    def matrix_rates(t, u):
        return np.zeros((2, 2)), np.zeros(2), np.zeros(2)

    sys = dense_system(matrix_rates, np.zeros((2, 2)))
    sch = build_scheme("mprk22", 1.0)
    rec = step(sys, sch, 0.0, np.array([1.0, 2.0]), 1.0)
    du = gamma_update_derivative(rec, 1.3, gamma_update(rec, 1.3))
    assert np.allclose(du, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Structural properties on random conservative instances

@pytest.mark.parametrize("kind,alpha,beta", ALL_SCHEMES)
def test_unconditional_positivity_and_conservation(kind, alpha, beta):
    rng = np.random.default_rng(31)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        sys = random_conservative_system(rng, dim)
        u0 = rng.uniform(0.05, 5.0, size=dim)
        for dt in (1e-3, 1.0):
            recs = _records(kind, alpha, beta, sys, u0, dt)
            rec = recs[0]
            for st in rec.stages:
                assert np.all(st > 0.0)
            assert np.all(rec.sigma > 0.0)
            assert np.all(rec.u_next > 0.0)
            assert rec.u_next.sum() == pytest.approx(u0.sum(), rel=1e-12)
            # the MPSSPRK2 relaxed right-hand side (1-ga)u_n + ga*u2 is a
            # nonnegative combination only for g <= 1/alpha, so structural
            # positivity for that scheme holds on a bounded gamma range
            gammas = ((0.1, 1.0, 2.0) if kind == "mpssprk2"
                      else (0.1, 1.0, 2.0, 10.0))
            for gamma in gammas:
                for r in recs:
                    ug = gamma_update(r, gamma)
                    assert np.all(ug > 0.0)
                    assert ug.sum() == pytest.approx(u0.sum(), rel=1e-12)


@pytest.mark.parametrize("kind,alpha,beta", ALL_SCHEMES)
def test_extreme_step_sizes_positive_or_guarded(kind, alpha, beta):
    # At dt*gamma up to 1e4 the update matrices reach condition numbers
    # where a double-precision solve can flip the sign of components whose
    # true value is near the roundoff floor.  The guard must then raise
    # rather than return a negative state; conservation degrades with the
    # conditioning but stays far below the per-step drift seen in practice.
    rng = np.random.default_rng(47)
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        sys = random_conservative_system(rng, dim)
        u0 = rng.uniform(0.05, 5.0, size=dim)
        recs = _records(kind, alpha, beta, sys, u0, 1e3)
        rec = recs[0]
        for st in rec.stages:
            assert np.all(st > 0.0)
        assert np.all(rec.u_next > 0.0)
        gammas = ((0.1, 1.0, 2.0) if kind == "mpssprk2"
                  else (0.1, 1.0, 2.0, 10.0))
        for gamma in gammas:
            for r in recs:
                try:
                    ug = gamma_update(r, gamma)
                except (PositivityError, SingularMatrixError):
                    continue
                assert np.all(ug > 0.0)
                assert ug.sum() == pytest.approx(u0.sum(), rel=1e-8)


def test_stepper_default_sigma_modes():
    rng = np.random.default_rng(1)
    sys = random_conservative_system(rng, 3)
    for args, mode in [(("mprk22", 1.0), "frozen"),
                       (("mpssprk2", 0.5, 1.0), "dense"),
                       (("mprk43i", 0.5, 0.75), "bootstrap")]:
        stepper = MpStepper(sys, build_scheme(*args))
        assert stepper.scheme.sigma_mode == mode


# ---------------------------------------------------------------------------
# Memory stays O(N): no d x d array on the way of a step

# one 4,000 x 4,000 float array alone takes 128 MB
LARGE_N = 4000
PEAK_BYTES = 16e6


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_advection_step_and_probe_stay_linear_in_memory():
    problem = make_problem("advection", N=LARGE_N, entropy_kind="sqrt")
    stepper = MpStepper(problem.sys, build_scheme("mprk43i", 0.5, 0.75))

    def step_and_probe():
        rec = stepper.step(0.0, problem.u0, problem.mesh["dx"])
        assert np.all(stepper.gamma_state(rec, 0.9) > 0.0)

    assert _peak_bytes(step_and_probe) < PEAK_BYTES


def _held(rec, kind) -> int:
    """The objects of type ``kind`` reachable from a record: its own and
    those its probe keeps, walked down to (not into) numpy arrays."""
    seen, todo, held = set(), [rec], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        held += isinstance(obj, kind)
        if not isinstance(obj, np.ndarray):
            todo += gc.get_referents(obj)
    return held


def _matrices_held(rec) -> int:
    """The Patankar matrices reachable from a record (the band format's
    ``CyclicTridiagonal``s)."""
    return _held(rec, CyclicTridiagonal)


def _adv_sqrt_step(dx_per_step):
    """The adv_sqrt workload's problem and stepper, and a record of its
    first step at dt = dx_per_step dx."""
    problem = make_problem("advection", N=100, entropy_kind="sqrt")
    stepper = MpStepper(problem.sys, build_scheme("mprk43i", 0.5, 0.75))
    return problem, stepper, stepper.step(0.0, problem.u0,
                                          dx_per_step * problem.mesh["dx"])


def _regula_falsi_search(monkeypatch, problem, stepper, rec):
    """The outcome of a regula falsi search on ``rec`` and every gamma it
    probed through ``gamma_update``, in order."""
    from relax_mprk.relaxation import RelaxConfig, relax_step

    probed = []
    probe = schemes.gamma_update

    def recorded(r, gamma):
        probed.append(gamma)
        return probe(r, gamma)

    with monkeypatch.context() as m:
        m.setattr(schemes, "gamma_update", recorded)
        out = relax_step(problem.eta, stepper, rec,
                         RelaxConfig(mode="implicit", solver="regula_falsi"))
    return out, probed


def test_regula_falsi_search_holds_two_matrix_sets(monkeypatch):
    # only the latest probe keeps its matrices, beside the step's own at
    # gamma = 1: two sets of an update and a bootstrap sigma matrix,
    # however many gammas the bracket walk and regula falsi probe (the
    # adv_sqrt workload's search, on one step)
    problem, stepper, rec = _adv_sqrt_step(8.0)
    assert _matrices_held(rec) == 2
    out, probed = _regula_falsi_search(monkeypatch, problem, stepper, rec)
    assert out.status == "converged" and len(probed) > 4
    assert _matrices_held(rec) == 4
    # a tangent at an older gamma probes it again, to the same bits
    old = min(g for g in probed if g != out.gamma)
    du = gamma_update_derivative(rec, old, gamma_update(rec, old))
    fresh = replace(rec)
    assert du.tobytes() == gamma_update_derivative(
        fresh, old, gamma_update(fresh, old)).tobytes()
    assert _matrices_held(rec) == 4


def test_search_adds_the_same_arrays_however_many_gammas_it_probes(
        monkeypatch):
    # the record keeps one probe, not one per gamma: a search of 6 probes
    # and one of 7 leave it holding the same number of arrays more
    grown = {}
    for dx_per_step in (4.0, 8.0):
        problem, stepper, rec = _adv_sqrt_step(dx_per_step)
        before = _held(rec, np.ndarray)
        out, probed = _regula_falsi_search(monkeypatch, problem, stepper,
                                           rec)
        assert out.status == "converged"
        grown[len(probed)] = _held(rec, np.ndarray) - before
    assert len(grown) == 2, f"both searches probed {list(grown)} gammas"
    assert len(set(grown.values())) == 1, grown


def test_large_euler_step_stays_linear_in_memory():
    problem = make_problem("euler", N=LARGE_N)
    stepper = problem.stepper_factory(build_scheme("mprk22", 1.0))

    def one_step():
        rec = stepper.step(0.0, problem.u0, problem.mesh["dx"])
        assert np.all(rec.u_next[:LARGE_N] > 0.0)

    assert _peak_bytes(one_step) < PEAK_BYTES


@pytest.mark.parametrize("kind, params", [
    ("mprk22", (0.5,)), ("mprk22", (0.75,)), ("mpssprk2", (0.5, 1.0)),
    ("mpssprk2", (1.0 / 3.0, 1.0)), ("mprk43i", (0.5, 0.75))])
def test_non_unit_sigma_exponent_crosses_the_stratospheric_nights(kind,
                                                                   params):
    # each scheme whose sigma exponent is not 1 (MPRK43I's tau and pi3
    # too) through [12 h, 84 h] at a fixed 600 s: at night O(1D) and O
    # sit near the floor tiny, where the geometric-mean denominators
    # u2**e u_n**(1 - e) with e > 1 underflowed as a product of two
    # powers and raised PositivityError in the first night
    from relax_mprk.control import integrate

    problem = make_problem("stratospheric")
    scheme = build_scheme(kind, *params)
    assert scheme.sigma_exp != 1.0
    t0, t_end = problem.tspan
    traj = integrate(problem.stepper(scheme), None, None, t0, problem.u0,
                     t_end, 600.0)
    assert traj.times[-1] == pytest.approx(t_end)
    states = np.array(traj.states)
    assert np.all(states > 0.0)
    mass = states.sum(axis=1)
    assert np.all(np.abs(mass - mass[0]) <= 1e-13 * mass[0])
