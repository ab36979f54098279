import math
import warnings

import numpy as np
import pytest

from relax_mprk.euler import EulerStepper, _interface_fluxes
from relax_mprk.pdrs import NonFiniteStateError, PositivityError
from relax_mprk.problems import isothermal_euler_fv
from relax_mprk.schemes import SIGMA_MODES, UnsupportedSchemeError, build_scheme

from helpers import fd_gradient, gamma_one_matches_assembly


SCHEMES = [("mprk22", 1.0, None), ("mprk43i", 0.5, 0.75),
           ("mpssprk2", 0.5, 1.0)]


def _stepper(N=16, c=1.0, alpha=1.0, sigma_mode="frozen"):
    return EulerStepper(N, c, build_scheme("mprk22", alpha), sigma_mode)


def _state(rho, m):
    return np.concatenate([np.asarray(rho, float), np.asarray(m, float)])


# ---------------------------------------------------------------------------
# Fluxes and semidiscrete structure

def test_interface_fluxes_at_rest():
    rho = np.array([1.0, math.e, 1.0])
    m = np.zeros(3)
    f_rho, f_m = _interface_fluxes(rho, m, c=2.0)
    # no motion: zero mass flux, pressure term is the arithmetic mean of
    # c^2 rho across each interface
    assert np.allclose(f_rho, 0.0)
    assert f_m[0] == pytest.approx(4.0 * 0.5 * (1.0 + math.e))
    assert f_m[1] == pytest.approx(4.0 * 0.5 * (1.0 + math.e))
    assert f_m[2] == pytest.approx(4.0)   # periodic wrap, equal densities


def test_interface_fluxes_uniform_motion():
    rho = np.full(4, 2.0)
    m = np.full(4, 1.0)           # v = 0.5 everywhere
    f_rho, f_m = _interface_fluxes(rho, m, c=1.0)
    assert np.allclose(f_rho, 1.0)            # rho * v
    assert np.allclose(f_m, 2.0 * 0.25 + 2.0)  # rho v^2 + c^2 rho


def test_uniform_state_is_steady():
    st = _stepper(N=8)
    z = _state(np.full(8, 1.3), np.full(8, 0.4))
    assert np.allclose(st.rhs(z), 0.0, atol=1e-13)


def test_semidiscrete_entropy_production_vanishes():
    # the log-mean mass flux paired with U = m^2/(2 rho) + c^2 rho ln rho
    # makes grad(eta) . rhs telescope to zero on the periodic mesh
    p = isothermal_euler_fv(N=32, c=1.0)
    st = p.stepper_factory(build_scheme("mprk22", 1.0))
    rng = np.random.default_rng(2)
    for _ in range(3):
        rho = rng.uniform(0.5, 2.0, size=32)
        m = rng.uniform(-0.5, 0.5, size=32)
        z = _state(rho, m)
        prod = p.eta.grad(z) @ st.rhs(z)
        scale = float(np.max(np.abs(st.rhs(z)))) + 1.0
        assert abs(prod) <= 1e-12 * scale


def test_mass_rhs_sums_to_zero():
    st = _stepper(N=12)
    rng = np.random.default_rng(4)
    z = _state(rng.uniform(0.5, 2.0, 12), rng.uniform(-1.0, 1.0, 12))
    f = st.rhs(z)
    assert abs(np.sum(f[:12])) <= 1e-11
    assert abs(np.sum(f[12:])) <= 1e-11


# ---------------------------------------------------------------------------
# Stepping

def test_step_positive_and_conservative():
    p = isothermal_euler_fv(N=40, c=1.0)
    st = p.stepper_factory(build_scheme("mprk22", 1.0))
    z = p.u0
    mass0 = np.sum(z[:40])
    mom0 = np.sum(z[40:])
    t = 0.0
    for _ in range(20):
        rec = st.step(t, z, p.mesh["dx"])
        t, z = t + rec.dt, rec.u_next
        assert np.all(z[:40] > 0.0)
    assert np.sum(z[:40]) == pytest.approx(mass0, rel=1e-13)
    assert np.sum(z[40:]) == pytest.approx(mom0, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("m", [1e200, np.inf, np.nan])
def test_non_finite_momentum_flux_raises_without_warning(m):
    # v = 1e200 makes v**2 overflow; inf and NaN momenta reach the same
    # check.  Each must end in a typed error, not a numpy warning
    st = _stepper(N=8)
    z = _state(np.ones(8), np.full(8, 0.1))
    z[8 + 3] = m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match="momentum flux"):
            st._rates(z)
        with pytest.raises(NonFiniteStateError):
            st.step(0.0, z, 0.01)


@pytest.mark.parametrize("rho, error", [
    (np.nan, NonFiniteStateError), (np.inf, NonFiniteStateError),
    (-np.inf, NonFiniteStateError), (0.0, PositivityError),
    (-1.0, PositivityError)])
def test_bad_density_is_named(rho, error):
    # the density gets the one-mask check of PdrsSystem.check_state; a NaN
    # or inf density must not surface as a non-finite momentum flux
    st = _stepper(N=8)
    z = _state(np.ones(8), np.full(8, 0.01))
    z[3] = rho
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=r"state component u\[3\]"):
            st.rhs(z)
        with pytest.raises(error, match=r"state component u\[3\]"):
            st.step(0.0, z, 0.01)


def test_gamma_state_one_reproduces_step():
    st = _stepper(N=10)
    rng = np.random.default_rng(9)
    z = _state(rng.uniform(0.5, 2.0, 10), rng.uniform(-0.2, 0.2, 10))
    rec = st.step(0.0, z, 0.05)
    assert np.allclose(st.gamma_state(rec, 1.0), rec.u_next, rtol=1e-12)
    # the gamma map is continuous down to the trivial point
    assert np.allclose(st.gamma_state(rec, 1e-10), rec.u_n, atol=1e-8)


@pytest.mark.parametrize("sigma_mode", ["frozen", "dense"])
def test_gamma_one_reuses_the_density_matrix(monkeypatch, sigma_mode):
    # the density record keeps the update matrix the step factored (a
    # band matrix at N = 100), so the derivative at gamma = 1 only
    # substitutes
    problem = isothermal_euler_fv(N=100)
    st = _stepper(N=100, sigma_mode=sigma_mode)
    rec = st.step(0.0, problem.u0, problem.mesh["dx"])
    gamma_one_matches_assembly(monkeypatch, rec, sigma_mode)


def test_gamma_state_derivative_matches_finite_differences():
    st = _stepper(N=10)
    rng = np.random.default_rng(13)
    z = _state(rng.uniform(0.5, 2.0, 10), rng.uniform(-0.2, 0.2, 10))
    rec = st.step(0.0, z, 0.05)
    for gamma in (0.5, 1.0, 1.5):
        d = st.gamma_state_derivative(rec, gamma, st.gamma_state(rec, gamma))
        h = 1e-6
        fd = (st.gamma_state(rec, gamma + h)
              - st.gamma_state(rec, gamma - h)) / (2.0 * h)
        assert np.allclose(d, fd, rtol=1e-5, atol=1e-10)


def test_entropy_gradient_matches_finite_differences():
    p = isothermal_euler_fv(N=8, c=1.5)
    rng = np.random.default_rng(17)
    z = _state(rng.uniform(0.5, 2.0, 8), rng.uniform(-0.3, 0.3, 8))
    g = p.eta.grad(z)
    g_fd = fd_gradient(p.eta.eval, z, h=1e-7)
    assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------------------
# Descriptor and validation

def test_riemann_initial_data():
    p = isothermal_euler_fv(N=100, c=1.0)
    rho, m = p.u0[:100], p.u0[100:]
    assert rho[0] == 0.8 and rho[-1] == 1.0
    assert m[0] == 1e-3 and m[-1] == 1e-2
    assert np.all(np.isin(rho, (0.8, 1.0)))
    assert p.tspan == (0.0, 1.0)
    assert p.defaults["method"] == ("mprk22", 1.0, None)


def _smooth_state(N):
    x = (np.arange(N) + 0.5) / N
    return _state(1.0 + 0.2 * np.sin(2.0 * np.pi * x),
                  0.1 * np.cos(2.0 * np.pi * x))


def _run(st, z, t_end, n):
    t, dt = 0.0, t_end / n
    for _ in range(n):
        rec = st.step(t, z, dt)
        t, z = t + dt, rec.u_next
    return z


@pytest.mark.parametrize("kind,alpha,beta", SCHEMES)
def test_every_scheme_steps_euler(kind, alpha, beta):
    # the density takes the MP scheme, the momentum its explicit tableau
    scheme = build_scheme(kind, alpha, beta)
    p = isothermal_euler_fv(N=40, c=1.0)
    st = p.stepper(scheme)
    z = p.u0
    t = 0.0
    for _ in range(20):
        rec = st.step(t, z, p.mesh["dx"])
        t, z = t + rec.dt, rec.u_next
        assert np.all(z[:40] > 0.0)
    assert np.sum(z[:40]) == pytest.approx(np.sum(p.u0[:40]), rel=1e-13)
    assert np.sum(z[40:]) == pytest.approx(np.sum(p.u0[40:]), rel=1e-13)
    for mode in SIGMA_MODES[kind]:
        st = p.stepper(scheme, mode)
        rec = st.step(t, z, p.mesh["dx"])
        assert st.gamma_state(rec, 1.0).tobytes() == rec.u_next.tobytes()

    # observed order on smooth data from three step counts (Richardson)
    st = EulerStepper(16, 1.0, scheme)
    z0 = _smooth_state(16)
    z20, z40, z80 = (_run(st, z0, 0.1, n) for n in (20, 40, 80))
    order = math.log2(np.max(np.abs(z20 - z40)) / np.max(np.abs(z40 - z80)))
    assert order == pytest.approx(scheme.order, abs=0.05)

    # the scheme's own sigma modes only: MPRK22 rejects bootstrap
    for mode in sorted({"frozen", "dense", "bootstrap", "bogus"}
                       - set(SIGMA_MODES[kind])):
        with pytest.raises(UnsupportedSchemeError, match="sigma mode"):
            EulerStepper(8, 1.0, scheme, mode)


def test_descriptor_validation():
    with pytest.raises(ValueError, match="at least 3"):
        isothermal_euler_fv(N=2)
    with pytest.raises(ValueError, match="sound speed"):
        isothermal_euler_fv(N=10, c=0.0)


def test_density_matrix_format_follows_the_pattern_not_the_values():
    # with every velocity positive, every flux runs to the right and the
    # super-diagonal exchanges are all zero; the matrix stays banded
    from relax_mprk.linalg import BAND_MIN_DIM, CyclicTridiagonal
    from relax_mprk.pdrs import RateSet
    from relax_mprk.schemes import patankar_matrix

    N = BAND_MIN_DIM + 36
    st = _stepper(N=N)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.5, 2.0, N)
    P, _, _, _ = st._rates(_state(rho, rho * rng.uniform(0.1, 1.0, N)))
    assert np.all(P.vals[:N] > 0.0) and np.all(P.vals[N:] == 0.0)
    M = patankar_matrix(P, RateSet(P, 0.0, 0.0).loss, rho, 0.5 / N)
    assert isinstance(M, CyclicTridiagonal)
