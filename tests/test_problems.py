import math

import numpy as np
import pytest

from relax_mprk.means import mean_log
from relax_mprk.problems import (PROBLEM_FACTORIES, advection_fv, barenblatt,
                                 cyclic3, isothermal_euler_fv, lotka_volterra,
                                 make_problem, porous_medium, stratospheric,
                                 _daylight)
from relax_mprk.schemes import build_scheme

from helpers import fd_gradient


# ---------------------------------------------------------------------------
# Predator-prey

def test_lv_rhs_and_entropy_values():
    p = lotka_volterra()
    # (1, 2) is the interior equilibrium: rhs and entropy gradient vanish
    assert np.allclose(p.sys.rates(0.0, np.array([1.0, 2.0])).rhs, [0.0, 0.0])
    assert np.allclose(p.eta.grad(np.array([1.0, 2.0])), [0.0, 0.0])
    assert p.eta.eval(p.u0) == pytest.approx(3.0 * math.log(2.0) - 4.0)


def test_lv_entropy_conserved_along_flow():
    p = lotka_volterra()
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.uniform(0.2, 3.0, size=2)
        f = p.sys.rates(0.0, u).rhs
        assert abs(p.eta.grad(u) @ f) <= 1e-12


# ---------------------------------------------------------------------------
# Atmospheric reaction system

def test_daylight_window():
    assert _daylight(0.0) == 0.0                    # midnight
    assert _daylight(12.0 * 3600.0) == pytest.approx(1.0)   # noon
    assert _daylight(20.0 * 3600.0) == 0.0          # after sunset
    assert _daylight(36.0 * 3600.0) == pytest.approx(1.0)   # noon next day
    assert 0.0 < _daylight(5.0 * 3600.0) < 1.0


def test_strat_invariants_annihilate_rhs():
    p = stratospheric()
    n1, n2 = p.sys.linear_invariants
    rng = np.random.default_rng(11)
    for t in (0.0, 12.0 * 3600.0, 30.0 * 3600.0):
        for _ in range(3):
            u = p.u0 * rng.uniform(0.5, 2.0, size=6)
            f = p.sys.rates(t, u).rhs
            scale = float(np.max(np.abs(f)))
            assert abs(n1 @ f) <= 1e-12 * scale
            assert abs(n2 @ f) <= 1e-12 * scale


def test_strat_slow_bimolecular_rate():
    p = stratospheric()
    u = p.u0
    P = p.sys.matrix_rates(12.0 * 3600.0, u)[0].toarray()
    # oxygen consumption by the slowest bimolecular channel moves mass
    # from species 4 to species 3 with rate constant 8.018e-17
    assert P[2, 3] == pytest.approx(8.018e-17 * u[1] * u[3], rel=1e-13)
    assert np.all(P >= 0.0)


def test_strat_nighttime_photolysis_off():
    p = stratospheric()
    P_night = p.sys.matrix_rates(0.0, p.u0)[0].toarray()
    P_day = p.sys.matrix_rates(12.0 * 3600.0, p.u0)[0].toarray()
    # photolysis of species 4 feeds species 2; dark sky shuts it off
    assert P_night[1, 3] == 0.0 and P_day[1, 3] > 0.0


def test_strat_defaults():
    p = stratospheric()
    assert p.defaults["solver"] == "regula_falsi"
    assert p.defaults["relax_opts"]["gamma_min"] == pytest.approx(0.1)
    assert p.tspan == (12.0 * 3600.0, 84.0 * 3600.0)


def test_strat_problems_hold_their_own_plans():
    # each problem declares its own exchange pattern, so what one problem
    # did to its LU plan (factorizations counted, kernels compiled) is not
    # met by a problem made after it
    used = stratospheric()
    stepper = used.stepper(build_scheme("mprk22", 1.0))
    stepper.step(used.tspan[0], used.u0, 36.0)
    used_plan = used.sys.pattern.lu_plan
    used_plan.compile()
    assert used_plan.factored > 0
    fresh = [make_problem("stratospheric").sys.pattern.lu_plan
             for _ in range(2)]
    assert len({id(plan) for plan in [used_plan] + fresh}) == 3
    for plan in fresh:
        assert plan.factored == 0 and plan.source is None
        assert "solve" not in vars(plan)


# ---------------------------------------------------------------------------
# Finite-volume advection

def test_advection_constant_state_is_steady():
    for kind in ("log", "sqrt", "inv"):
        p = advection_fv(N=10, entropy_kind=kind)
        f = p.sys.rates(0.0, np.full(10, 3.0)).rhs
        assert np.allclose(f, 0.0, atol=1e-13)


def test_advection_log_flux_value():
    p = advection_fv(N=10, entropy_kind="log")
    dx = p.mesh["dx"]
    u = np.full(10, 1.0)
    u[1] = math.e
    P = p.sys.matrix_rates(0.0, u)[0].toarray()
    # interface between cells 1 and 2 carries the logarithmic mean of
    # (1, e), which is exactly e - 1
    assert P[2, 1] == pytest.approx((math.e - 1.0) / dx, rel=1e-13)
    assert mean_log(1.0, math.e) == pytest.approx(math.e - 1.0)


def test_advection_mass_and_entropy_semidiscrete():
    rng = np.random.default_rng(3)
    for kind in ("log", "sqrt", "inv"):
        p = advection_fv(N=24, entropy_kind=kind)
        for u in (p.u0, rng.uniform(0.5, 4.0, size=24)):
            f = p.sys.rates(0.0, u).rhs
            assert abs(np.sum(f)) <= 1e-11
            # the two-point flux is built to conserve this entropy exactly
            # at the semidiscrete level (telescoping on the periodic mesh)
            assert abs(p.eta.grad(u) @ f) <= 1e-11


def test_advection_initial_data_positive():
    p = advection_fv(N=100, entropy_kind="log")
    assert np.all(p.u0 > 0.0)
    assert 0.1 <= p.u0.min() < 0.11


def test_advection_validation():
    with pytest.raises(ValueError, match="entropy_kind"):
        advection_fv(N=10, entropy_kind="exp")
    with pytest.raises(ValueError, match="at least 3"):
        advection_fv(N=2)


# ---------------------------------------------------------------------------
# Porous medium

def test_barenblatt_values():
    assert barenblatt(1.0, np.array([0.0]), 3.0)[0] == pytest.approx(1.0)
    assert barenblatt(1.0, np.array([0.0]), 5.0)[0] == pytest.approx(1.0)
    # m = 2 support edge at t = 1: 1 - x^2/12 = 0
    r = math.sqrt(12.0)
    vals = barenblatt(1.0, np.array([r - 1e-6, r + 1e-6]), 2.0)
    assert vals[0] > 0.0 and vals[1] == 0.0
    assert np.all(barenblatt(2.0, np.linspace(-10, 10, 101), 3.0) >= 0.0)


def test_pme_mass_conserved_energy_dissipated():
    for m in (3.0, 5.0):
        p = porous_medium(N=40, m=m)
        f = p.sys.rates(1.0, p.u0).rhs
        assert abs(np.sum(f)) <= 1e-12 * np.max(np.abs(f))
        # eta is the discrete squared norm; the diffusive flow must not
        # increase it
        assert p.eta.grad(p.u0) @ f <= 1e-12
        assert p.eta.regime == "dissipative"


def test_pme_reference_matches_initial_data():
    p = porous_medium(N=40, m=3.0)
    assert np.allclose(p.reference(1.0), p.u0)
    assert np.all(p.u0 >= 1e-30)   # floored, never exactly zero


def test_pme_validation():
    with pytest.raises(ValueError, match="m > 1"):
        porous_medium(N=40, m=1.0)
    with pytest.raises(ValueError, match="at least 3"):
        porous_medium(N=2)


@pytest.mark.parametrize("factory", [advection_fv, isothermal_euler_fv,
                                     porous_medium])
def test_mesh_size_must_be_an_integer(factory):
    # a float N failed late, as a TypeError in np.ones or as an exchange
    # entry outside the mesh; a bool is an int to Python, but no count
    for N in (10.5, 100.0, True, "10"):
        with pytest.raises(ValueError, match=f"at least 3 cells.*{N!r}"):
            factory(N=N)
    assert factory(N=np.int64(10)).mesh["N"] == 10


# ---------------------------------------------------------------------------
# Cyclic exchange

def test_cyclic3_conservative_and_entropy_steady():
    p = cyclic3()
    rng = np.random.default_rng(5)
    for _ in range(4):
        u = rng.uniform(0.3, 2.0, size=3)
        f = p.sys.rates(0.0, u).rhs
        assert abs(np.sum(f)) <= 1e-14
        assert abs(p.eta.grad(u) @ f) <= 1e-13


# ---------------------------------------------------------------------------
# Cross-cutting checks

@pytest.mark.parametrize("factory", [lotka_volterra, stratospheric,
                                     lambda: advection_fv(N=12),
                                     lambda: porous_medium(N=20, m=3.0),
                                     cyclic3])
def test_entropy_gradient_matches_finite_differences(factory):
    p = factory()
    u = np.asarray(p.u0, float)
    u = np.maximum(u, 1e-3 * np.max(u))   # keep log/inverse entropies finite
    g = p.eta.grad(u)
    g_fd = fd_gradient(p.eta.eval, u, h=1e-6 * float(np.max(u)))
    assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-8 * np.max(np.abs(g)))


def test_registry():
    assert set(PROBLEM_FACTORIES) == {"lotka_volterra", "stratospheric",
                                      "advection", "euler", "pme", "cyclic3"}
    assert make_problem("cyclic3").name == "cyclic3"
    assert make_problem("advection", N=16).mesh["N"] == 16
    with pytest.raises(KeyError, match="unknown problem"):
        make_problem("heat")
