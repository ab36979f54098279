"""The step's kernels against the arithmetic they replaced.

Each reference below is the earlier formulation of a kernel that was
rewritten for speed without changing a floating-point operation, so the
comparisons are exact (``==``, including the sign of zero), never
``allclose``.  The second part checks that a step computes stage
right-hand sides only when the dissipative entropy quadrature reads them.
"""

import math
from collections import Counter
from dataclasses import replace
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from relax_mprk import linalg
from relax_mprk.control import integrate
from relax_mprk.euler import (_density_pattern, _density_production,
                              _interface_fluxes)
from relax_mprk.linalg import (BAND_MIN_DIM, LuPlan, PlannedPatankar,
                               PositivityError, SingularMatrixError,
                               _at_largest_diagonal, _band_substitute,
                               _singular, _sweep, lu_solve)
from relax_mprk.means import mean_geo, mean_harm, mean_log
from relax_mprk.pdrs import Exchange, ExchangePattern, PdrsSystem, RateSet
from relax_mprk.problems import (_STRAT_M, _daylight, isothermal_euler_fv,
                                 make_problem)
from relax_mprk.relaxation import (MODE_CLAMPED, RelaxConfig, _entropy_rate,
                                   relax_step)
from relax_mprk.schemes import (SCHEME_KINDS, SIGMA_MODES, MpStepper,
                                UnsupportedSchemeError, _StageLogs,
                                build_scheme, patankar_matrix)

from helpers import counted, exchange, planned, trajectory_digest

# the largest, smallest normal and subnormal magnitudes a state may reach
EXTREMES = (1e300, 1e-300, np.finfo(float).tiny / 4.0, 5e-324)


def _same(new, old):
    """Equal entry for entry, with the same sign of every zero."""
    new, old = np.asarray(new), np.asarray(old)
    return (new.shape == old.shape and np.array_equal(new, old)
            and np.array_equal(np.signbit(new), np.signbit(old)))


def _states(rng, shape):
    """Positive log-uniform entries, about a third of them replaced by
    1e300, 1e-300 or a subnormal."""
    u = np.exp(rng.uniform(-7.0, 7.0, size=shape))
    pick = rng.random(shape) < 0.35
    u[pick] = rng.choice(EXTREMES, size=int(pick.sum()))
    return u


# ---------------------------------------------------------------------------
# References: the earlier arithmetic

def old_patankar_matrix(P_w, loss_w, denom, fac):
    M = -(fac * P_w) / denom
    M.flat[::len(denom) + 1] = 1.0 + fac * loss_w / denom
    return M


def old_weighted(rate_sets, weights):
    # schemes._weighted and RateSet.loss before the planned format moved
    # to lists: the weighted exchange values, losses and rP
    vals = loss = rP = 0
    for w, r in zip(weights, rate_sets):
        pat = r.P.pattern
        vals = vals + w * r.P.vals
        loss = loss + w * (r.rest_dest + np.bincount(pat.cols, r.P.vals,
                                                     pat.dim))
        rP = rP + w * r.rest_prod
    return vals, loss, rP


def old_ppow(base, expo):
    floored = np.maximum(np.asarray(base, float), np.finfo(float).tiny)
    return np.exp(np.asarray(expo, float) * np.log(floored))


def old_geo_denominator(u_n, u2, e):
    return old_ppow(u2, e) * old_ppow(u_n, 1.0 - e)


def one_exp_geo_denominator(u_n, u2, e):
    # the mean as one exponential of the floored logarithms
    tiny = np.finfo(float).tiny
    return np.exp(e * np.log(np.maximum(u2, tiny))
                  + (1.0 - e) * np.log(np.maximum(u_n, tiny)))


def old_tangent(M, x, u_n, gamma, v):
    # schemes._tangent before the tangent moved onto PatankarSystem
    rhs = (x - u_n) / gamma
    if v is None:
        return lu_solve(M, rhs)
    return v + lu_solve(M, rhs - v)


def old_gamma_probe(rec, gamma):
    """u(gamma) and u'(gamma) as the probe before the record kept its
    probes gave them: sbar(gamma), M_gamma reassembled by
    ``patankar_matrix`` and solved by ``lu_solve``, and the tangents by
    ``old_tangent``; at gamma = 1 sbar is the step's sigma."""
    scheme, upd, sig, logs = rec.scheme, rec.upd, rec.sig, rec.logs
    mode, fac = scheme.sigma_mode, gamma * rec.dt
    M_sig = None
    if mode == "frozen" or gamma == 1.0:
        sbar = rec.sigma
        if mode == "bootstrap":
            M_sig = patankar_matrix(sig, sig.loss,
                                    logs.geo_mean(scheme.sigma_exp), fac)
    else:
        sbar = logs.geo_mean(gamma * scheme.sigma_exp)
        if mode == "bootstrap":
            M_sig = patankar_matrix(sig, sig.loss, sbar, fac)
            sbar = lu_solve(M_sig, sig.rhs(gamma), "sigma_bar")
    M = patankar_matrix(upd, upd.loss, sbar, fac)
    u = lu_solve(M, upd.rhs(gamma), "gamma update")
    v = None
    if mode != "frozen":
        dsbar = sbar * scheme.sigma_exp * logs.log_ratio()
        if M_sig is not None:
            dsbar = old_tangent(M_sig, sbar, logs.u_n, gamma, dsbar)
        v = u * dsbar / sbar
    return u, old_tangent(M, u, logs.u_n, gamma, v)


def old_error_estimate(u_n, u_next, u_stage2, atol, rtol):
    w = atol + rtol * np.abs(u_n)
    diff = (u_next - u_stage2) / w
    return float(np.sqrt(np.mean(diff**2)))


def old_strat_reaction_rates(t, u):
    # numpy scalars throughout: u1..u6 come out of the array as float64
    s = _daylight(t)
    u1, u2, u3, u4, u5, u6 = u
    return np.array([
        s**3 * 2.643e-10 * u4,
        8.018e-17 * u2 * u4,
        s * 6.120e-4 * u3,
        1.576e-15 * u2 * u3,
        s**2 * 1.070e-3 * u3,
        7.110e-11 * _STRAT_M * u1,
        1.200e-10 * u1 * u3,
        6.062e-15 * u3 * u5,
        1.069e-11 * u2 * u6,
        s * 1.289e-2 * u6,
        1.0e-8 * u2 * u5,
    ])


def old_strat_matrix_rates(t, u):
    r = np.zeros(12)
    r[1:] = old_strat_reaction_rates(t, u)
    P = np.zeros((6, 6))
    P[1, 0] = r[6]
    P[3, 0] = r[7] / 3.0
    P[2, 1] = r[2] / 2.0
    P[3, 1] = r[4] / 3.0
    P[4, 1] = r[9] / 2.0
    P[5, 1] = r[11]
    P[0, 2] = r[5] / 3.0
    P[1, 2] = r[3] / 3.0
    P[3, 2] = (2.0 / 3.0) * r[3] + r[4] + (2.0 / 3.0) * r[5] + r[7] \
        + (2.0 / 3.0) * r[8]
    P[5, 2] = r[8] / 3.0
    P[1, 3] = r[1]
    P[2, 3] = r[2]
    P[5, 4] = r[11] + r[8] / 3.0
    P[1, 5] = r[10] / 2.0
    P[3, 5] = r[9]
    P[4, 5] = r[10] / 2.0
    zero = np.zeros(6)
    return P, zero, zero


# the dense d x d exchange arrays the other producers built before the
# exchange contract became a pattern plus a value vector

def old_lv_matrix_rates(t, u):
    P = np.zeros((2, 2))
    P[1, 0] = u[0] * u[1]
    return P, np.array([2.0 * u[0], 0.0]), np.array([0.0, u[1]])


def old_cyclic3_matrix_rates(t, u):
    P = np.zeros((3, 3))
    P[1, 0] = u[0] * u[1]
    P[2, 1] = u[1] * u[2]
    P[0, 2] = u[2] * u[0]
    zero = np.zeros(3)
    return P, zero, zero


def old_advection_matrix_rates(N, entropy_kind):
    dx = 2.0 / N
    mean = {"log": mean_log, "sqrt": mean_geo, "inv": mean_harm}[entropy_kind]

    def matrix_rates(t, u):
        flux = mean(u, np.roll(u, -1)) / dx  # interface i -> i+1
        idx = np.arange(N)
        P = np.zeros((N, N))
        P[(idx + 1) % N, idx] = flux
        zero = np.zeros(N)
        return P, zero, zero

    return matrix_rates


def old_pme_matrix_rates(N, m):
    dx = 12.0 / N
    c2 = 1.0 / (2.0 * dx**2)

    def matrix_rates(t, u):
        a = m * u ** (m - 1.0)
        P = np.zeros((N, N))
        idx = np.arange(N - 1)
        # interior two-sided exchange, a-averaged
        P[idx, idx + 1] = (a[idx] + a[idx + 1]) * c2 * u[idx + 1]
        P[idx + 1, idx] = (a[idx] + a[idx + 1]) * c2 * u[idx]
        # boundary cells produce with the single-neighbor coefficient
        P[0, 1] = a[1] * u[1] * c2
        P[N - 1, N - 2] = a[N - 2] * u[N - 2] * c2
        zero = np.zeros(N)
        return P, zero, zero

    return matrix_rates


def old_density_production(f_rho, dx, N):
    P = np.zeros((N, N))
    idx = np.arange(N)
    right = (idx + 1) % N
    P[right, idx] += np.maximum(0.0, f_rho) / dx
    P[idx, right] += -np.minimum(0.0, f_rho) / dx
    return P


def old_sweep(bands, b):
    # the four-term loop runs for every band matrix, bidiagonal or not
    if not np.isfinite(bands).all():
        raise ValueError("matrix has non-finite entries")
    lo, d, up = bands.tolist()
    m = len(d) - 1
    p = d[0]
    if not p > 0.0:
        raise _singular(d, 0, f"pivot {p:.3e}")
    c, yp, wp = up[0] / p, b[0] / p, -lo[0] / p
    cs, ys, ws = [c], [yp], [wp]
    for di, li, ui, bi in zip(d[1:m], lo[1:m], up[1:m], b[1:m]):
        p = di - li * c
        if not p > 0.0:
            raise _singular(d, len(cs), f"pivot {p:.3e}")
        c = ui / p
        yp = (bi - li * yp) / p
        wp = -li * wp / p
        cs.append(c)
        ys.append(yp)
        ws.append(wp)
    ws[-1] = wp = wp - up[m - 1] / p
    back = any(cs[:m - 1])
    if back:
        for i in range(m - 2, -1, -1):
            c = cs[i]
            yp = ys[i] = ys[i] - c * yp
            wp = ws[i] = ws[i] - c * wp
    p = d[m] + lo[m] * ws[m - 1] + up[m] * ws[0]
    if not p > 0.0:
        raise _singular(d, m, f"pivot {p:.3e}")
    xi = (b[m] - lo[m] * ys[m - 1] - up[m] * ys[0]) / p
    ys.append(xi)
    ws.append(0.0)
    w = np.array(ws)
    x = np.array(ys)
    x += xi * w
    return x, (lo, d, cs, back, w, up[m], p)


def old_band_substitute(lu, b):
    lo, d, cs, back, w, up_m, p_m = lu
    m = len(cs)
    yp = b[0] / d[0]
    ys = [yp]
    for di, li, c, bi in zip(d[1:m], lo[1:m], cs, b[1:m]):
        yp = (bi - li * yp) / (di - li * c)
        ys.append(yp)
    if back:
        for i in range(m - 2, -1, -1):
            yp = ys[i] = ys[i] - cs[i] * yp
    xi = (b[m] - lo[m] * ys[m - 1] - up_m * ys[0]) / p_m
    ys.append(xi)
    x = np.array(ys)
    x += xi * w
    return x


def old_small_lu(rows):
    # the elimination of the d <= 4 format on full rows of Python floats,
    # structural zeros included
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("matrix has non-finite entries")
    n = len(rows)
    lu = [row.copy() for row in rows]
    for k, rk in enumerate(lu):
        p = rk[k]
        if not p > 0.0:
            raise _singular([r[i] for i, r in enumerate(rows)], k,
                            f"pivot {p:.3e}")
        for ri in lu[k + 1:]:
            f = ri[k] = ri[k] / p
            for j in range(k + 1, n):
                ri[j] -= f * rk[j]
    return lu


def old_small_substitute(lu, b):
    n = len(lu)
    x = b.copy()
    for i in range(1, n):
        row, s = lu[i], x[i]
        for j in range(i):
            s -= row[j] * x[j]
        x[i] = s
    for i in range(n - 1, -1, -1):
        row, s = lu[i], x[i]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def old_small_solve(rows, b):
    # lu_solve's branch for the d <= 4 format: factor, substitute, check
    x = old_small_substitute(old_small_lu(rows), b)
    if not all(map(math.isfinite, x)):
        raise _at_largest_diagonal([r[i] for i, r in enumerate(rows)],
                                   "non-finite solution")
    return np.array(x)


# ---------------------------------------------------------------------------
# Rewritten kernels equal their references

def _exchange(P, compiled):
    """``exchange(P)``, with the kernels of its pattern's plan compiled
    first when ``compiled``."""
    ex = exchange(P)
    if compiled:
        ex.pattern.lu_plan.compile()
    return ex


def _with_compiled(ds):
    """Parameters (d, compiled): each d on the interpreted loops, with
    the id d, and on a compiled plan."""
    return [*(pytest.param(d, False, id=str(d)) for d in ds),
            *(pytest.param(d, True, id=f"{d}-compiled") for d in ds)]


# compiling a full d = 40 pattern takes about 0.2 s, once per random
# pattern here
@pytest.mark.parametrize("d, compiled", [*_with_compiled([1, 2, 6]),
                                         pytest.param(40, False, id="40")])
def test_patankar_matrix_matches_reference(d, compiled):
    # the interpreted assembly, on a plan compiled or not: a compiled
    # plan binds no assembly kernel of its own
    rng = np.random.default_rng(d)
    with np.errstate(all="ignore"):
        for fac in (1e-3, 0.7, 21.0, 1e5):
            for _ in range(25):
                P = _states(rng, (d, d))
                np.fill_diagonal(P, 0.0)
                P[rng.random((d, d)) < 0.3] = 0.0
                loss = P.sum(axis=0) + _states(rng, d)
                denom = _states(rng, d)
                old = old_patankar_matrix(P, loss, denom, fac)
                assert not np.isnan(old).any()
                M = patankar_matrix(_exchange(P, compiled), loss, denom, fac)
                assert _same(M.toarray(), old)
                # a pattern used once, as each random one here, compiles
                # nothing
                assert ("solve" in vars(M.plan)) == compiled


def test_geo_denominator_at_unit_exponent_matches_reference():
    # at e = 1 the mean keeps the bits of the two-factor product it
    # replaced (u_n**0 is 1.0); at any other e it is one exponential
    rng = np.random.default_rng(7)
    with np.errstate(over="ignore"):
        for d in (1, 6, 100):
            for _ in range(20):
                u_n, u2 = _states(rng, d), _states(rng, d)
                for e in (1.0, np.float64(1.0)):
                    assert _same(_StageLogs(u_n, u2).geo_mean(e),
                                 old_geo_denominator(u_n, u2, e))
                for e in (0.5, 2.0):
                    assert _same(_StageLogs(u_n, u2).geo_mean(e),
                                 one_exp_geo_denominator(u_n, u2, e))


def test_geo_denominator_is_normal_wherever_the_mean_is():
    # u2 down to the smallest subnormal and u_n up to 1e300: wherever the
    # exact mean of the floored states is a normal float, the one
    # exponential is too, to the rounding of its exponent.  The
    # two-factor product underflowed to zero at e = 2 once u2 < 1.6e-162,
    # although u2**2 / u_n was normal
    tiny = np.finfo(float).tiny
    grid = np.array([5e-324, 1e-310, tiny, 1e-300, 1e-200, 1e-162, 1e-100,
                     1.0, 1e100, 1e200, 1e300])
    u2, u_n = (a.ravel() for a in np.meshgrid(grid, grid))
    floored = [np.log10(np.maximum(a, tiny)) for a in (u2, u_n)]
    for e in (0.25, 0.5, 0.75, 4.0 / 3.0, 2.0, 3.0):
        with np.errstate(over="ignore"):
            mean = _StageLogs(u_n, u2).geo_mean(e)
        exact = e * floored[0] + (1.0 - e) * floored[1]
        normal = (exact > np.log10(tiny) + 1.0) & (exact < 307.0)
        assert normal.sum() >= 25, e
        assert np.all(np.isfinite(mean[normal]) & (mean[normal] > 0.0)), e
        np.testing.assert_allclose(np.log10(mean[normal]), exact[normal],
                                   rtol=0.0, atol=1e-11)
    u_n, u2 = np.array([1e-100, 1e300]), np.array([1e-200, 5e-324])
    assert np.all(old_geo_denominator(u_n, u2, 2.0) == 0.0)
    assert _StageLogs(u_n, u2).geo_mean(2.0)[0] == pytest.approx(1e-300,
                                                                  rel=1e-12)
    # at e = 0.5, sqrt(tiny * 1e300)
    assert _StageLogs(u_n, u2).geo_mean(0.5)[1] == pytest.approx(
        math.sqrt(tiny * 1e300), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 6, 9, 100, 1000])
def test_error_estimate_matches_reference(d):
    rng = np.random.default_rng(d)
    stepper = MpStepper(make_problem("cyclic3").sys,
                        build_scheme("mprk22", 1.0))
    with np.errstate(all="ignore"):
        for atol, rtol in ((1e-3, 1e-3), (1e-6, 1e-6)):
            for _ in range(20):
                u_n, u_next, u2 = (_states(rng, d) for _ in range(3))
                agree = rng.random(d) < 0.2  # zero differences
                u_next[agree] = u2[agree]
                rec = SimpleNamespace(u_n=u_n, u_next=u_next, stages=(u_n, u2))
                new = stepper.error_estimate(rec, atol, rtol)
                old = old_error_estimate(u_n, u_next, u2, atol, rtol)
                assert not math.isnan(old)
                assert new == old
                assert math.copysign(1.0, new) == math.copysign(1.0, old)


# by day (noon, morning, just after sunrise, evening) and at night
# (midnight, before sunrise, after sunset, the second night)
STRAT_HOURS = (12.0, 6.0, 4.6, 19.4, 0.0, 3.0, 22.0, 44.0)


@pytest.mark.parametrize("hour", STRAT_HOURS)
def test_strat_matrix_rates_match_reference(hour):
    t = hour * 3600.0
    assert (_daylight(t) > 0.0) == (4.5 < hour % 24.0 < 19.5)
    rng = np.random.default_rng(int(hour * 10))
    problem = make_problem("stratospheric")
    states = [problem.u0] + [_states(rng, 6) for _ in range(200)]
    with np.errstate(all="ignore"):
        for u in states:
            P, rP, rD = problem.sys.matrix_rates(t, u)
            for new, old in zip((P.toarray(), rP, rD),
                                old_strat_matrix_rates(t, u)):
                assert _same(new, old)


PRODUCERS = {
    "lotka_volterra": (dict(), old_lv_matrix_rates),
    "cyclic3": (dict(), old_cyclic3_matrix_rates),
    **{f"advection-{kind}": (dict(N=100, entropy_kind=kind),
                             old_advection_matrix_rates(100, kind))
       for kind in ("log", "sqrt", "inv")},
    **{f"pme-{m}": (dict(N=160, m=float(m)), old_pme_matrix_rates(160, m))
       for m in (3, 5)},
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_exchange_matches_dense_reference(name):
    # the Exchange holds the old dense array's entries and the RateSet
    # the old loss rD + P.sum(axis=0), bit for bit
    kwargs, old_matrix_rates = PRODUCERS[name]
    problem = make_problem(name.split("-")[0], **kwargs)
    rng = np.random.default_rng(sum(map(ord, name)))
    d = problem.u0.size
    states = [problem.u0] + [np.exp(rng.uniform(-7.0, 7.0, d))
                             for _ in range(50)]
    for u in states:
        t = problem.tspan[0]
        new = problem.sys.matrix_rates(t, u)
        P, rP, rD = old_matrix_rates(t, u)
        assert _same(new[0].toarray(), P)
        assert _same(new[1], rP) and _same(new[2], rD)
        assert _same(RateSet(*new).loss, rD + P.sum(axis=0))


def test_euler_density_exchange_matches_dense_reference():
    N = 100
    dx = 1.0 / N
    pattern = _density_pattern(N)
    rng = np.random.default_rng(12)
    for _ in range(50):
        rho = np.exp(rng.uniform(-3.0, 3.0, N))
        m = rng.normal(size=N) * np.exp(rng.uniform(-3.0, 3.0, N))
        m[rng.random(N) < 0.2] = 0.0  # zero fluxes, and the -0.0 of -min(0, f)
        f_rho, _ = _interface_fluxes(rho, m, 1.0)
        P = old_density_production(f_rho, dx, N)
        ex = _density_production(f_rho, dx, pattern)
        assert _same(ex.toarray(), P)
        assert _same(RateSet(ex, 0.0, 0.0).loss, 0.0 + P.sum(axis=0))


def _band_patankar(rng, n, fac, pattern):
    """Bands of a Patankar matrix with log-uniform rates and denominators,
    assembled with ``patankar_matrix``'s arithmetic, on the advection
    pattern (cyclic bidiagonal: the super-diagonal is the -0.0 that
    ``patankar_matrix`` fills in), the Euler density's (cyclic
    tridiagonal), or the advection pattern plus the two super-diagonal
    entries outside the sweep's leading block, M[N-2, N-1] and M[N-1, 0]
    ("border")."""
    denom = 10.0 ** rng.uniform(-1.0, 1.0, n)
    bands = np.full((3, n), 0.0 * -fac)
    loss = np.zeros(n)
    # column j's rate to row j+1 sits in sub[j+1], to row j-1 in sup[j-1]
    for row, shift in ((0, 1), (2, -1)):
        vals = 10.0 ** rng.uniform(-1.0, 0.0, n)
        if row == 2 and pattern != "tridiagonal":
            vals[1:n - 1] = 0.0
            if pattern == "bidiagonal":
                vals[[0, n - 1]] = 0.0
        bands[row] = np.roll(vals * -fac / denom, shift)
        loss += vals
    bands[1] = fac * loss / denom + 1.0
    return bands


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: the solution's bytes, or the error's type
    and message."""
    try:
        out = fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    x = out[0] if isinstance(out, tuple) else out
    return x.tobytes(), np.signbit(x).tobytes()


@pytest.mark.parametrize("n", [3, 64, 100, 1000])
@pytest.mark.parametrize("pattern", ["bidiagonal", "border", "tridiagonal"])
def test_sweep_matches_reference(pattern, n):
    # first solves and substitutions, with right-hand sides of both signs
    # (a derivative solve's can be negative); the bidiagonal loop drops
    # only terms that are zeros, so every bit and every error is the
    # general loop's
    rng = np.random.default_rng(n)
    for fac in (1e-3, 0.7, 21.0, 1e5):
        for _ in range(5):
            bands = _band_patankar(rng, n, fac, pattern)
            b1 = 10.0 ** rng.uniform(-3.0, 3.0, n)
            b2 = rng.standard_normal(n)
            b2[rng.random(n) < 0.2] = 0.0
            x1, lu = _sweep(bands, b1.tolist())
            x1_old, lu_old = old_sweep(bands, b1.tolist())
            assert _same(x1, x1_old)
            assert _same(_band_substitute(lu, b2.tolist()),
                         old_band_substitute(lu_old, b2.tolist()))


@pytest.mark.parametrize("n", [3, 64, 100, 1000])
def test_bidiagonal_sweep_fails_as_the_reference(n):
    rng = np.random.default_rng(n + 1)
    raised = 0
    for fac in (1e16, 1e18, 1e20, 1e300):  # past 1/eps
        for _ in range(5):
            bands = _band_patankar(rng, n, fac, "bidiagonal")
            b = np.ones(n).tolist()
            new = _outcome(_sweep, bands, b)
            assert new == _outcome(old_sweep, bands, b)
            raised += new[0] is SingularMatrixError
    assert raised > 0
    bands = _band_patankar(rng, n, 0.7, "bidiagonal")
    for row, col, bad in ((1, n // 2, 0.0), (1, n - 2, -1.0), (0, 1, np.nan),
                          (1, n - 1, np.inf)):
        broken = bands.copy()
        broken[row, col] = bad
        b = np.ones(n).tolist()
        new = _outcome(_sweep, broken, b)
        assert new == _outcome(old_sweep, broken, b)
        assert new[0] in (SingularMatrixError, ValueError)


def _random_exchange(rng, d, lo, hi, zero_share):
    """Exchange array with log-uniform entries in [10**lo, 10**hi], a
    ``zero_share`` of them zero, and a zero diagonal."""
    P = 10.0 ** rng.uniform(lo, hi, size=(d, d))
    P[rng.random((d, d)) < zero_share] = 0.0
    np.fill_diagonal(P, 0.0)
    return P


@pytest.mark.parametrize("d, compiled", _with_compiled([1, 2, 3, 4]))
def test_planned_solve_matches_small_reference(d, compiled):
    # the planned elimination and substitutions skip only the structural
    # zeros the full d <= 4 format ran through, so first solves and
    # substitutions (right-hand sides of both signs, zeros included) are
    # bit-equal, the sign of zero too; a compiled plan's kernels run the
    # same operations
    rng = np.random.default_rng(d + 20)
    for fac in (1e-3, 0.7, 21.0, 1e5):
        for _ in range(40):
            P = _random_exchange(rng, d, -6.0, 6.0, rng.uniform(0.0, 0.8))
            loss = P.sum(axis=0) + 10.0 ** rng.uniform(-6.0, 6.0, d)
            denom = 10.0 ** rng.uniform(-6.0, 6.0, d)
            M = patankar_matrix(_exchange(P, compiled), loss, denom, fac)
            rows = M.toarray().tolist()
            b1 = 10.0 ** rng.uniform(-6.0, 6.0, d)
            new = _outcome(lu_solve, M, b1)
            assert new == _outcome(old_small_solve, rows, b1.tolist())
            assert new[0] is not SingularMatrixError
            lu = M.lu
            b2 = rng.standard_normal(d)
            b2[rng.random(d) < 0.2] = 0.0
            assert _same(lu_solve(M, b2), old_small_solve(rows, b2.tolist()))
            assert M.lu is lu


@pytest.mark.parametrize("d, compiled", _with_compiled([2, 3, 4]))
def test_planned_solve_fails_as_the_small_reference(d, compiled):
    # past 1/eps, at a zero or negative pivot and on NaN or inf: the same
    # error type and message, naming the same row
    rng = np.random.default_rng(d + 30)
    b = np.ones(d)
    raised = 0
    for fac in (1e16, 1e18, 1e20, 1e300):
        for _ in range(10):
            P = _random_exchange(rng, d, -3.0, 3.0, 0.3)
            denom = 10.0 ** rng.uniform(-20.0, 0.0, d)
            with np.errstate(over="ignore"):
                M = patankar_matrix(_exchange(P, compiled), P.sum(axis=0),
                                    denom, fac)
            new = _outcome(lu_solve, M, b)
            assert new == _outcome(old_small_solve, M.toarray().tolist(),
                                   b.tolist())
            raised += new[0] is SingularMatrixError
    assert raised > 0
    P = _random_exchange(rng, d, -1.0, 0.0, 0.0)
    A = patankar_matrix(exchange(P), P.sum(axis=0), np.ones(d), 0.7).toarray()
    for row, col, bad in ((0, 0, 0.0), (d - 1, d - 1, 0.0), (1, 1, -1.0),
                          (1, 0, np.nan), (0, d - 1, np.inf),
                          (d - 1, d - 1, -np.inf)):
        broken = A.copy()
        broken[row, col] = bad
        M = planned(broken)
        if compiled:
            M.plan.compile()
        new = _outcome(lu_solve, M, b)
        assert new == _outcome(old_small_solve, broken.tolist(), b.tolist())
        assert new[0] is ValueError or (new[0] is SingularMatrixError
                                         and " in row " in new[1])


def _cyclic(d, tridiagonal):
    i = np.arange(d)
    rows, cols = [(i + 1) % d], [i]
    if tridiagonal:
        rows.append(i)
        cols.append((i + 1) % d)
    return np.concatenate(rows), np.concatenate(cols), d


def _random_pattern(d, zero_share):
    P = _random_exchange(np.random.default_rng(d + 80), d, 0.0, 0.0,
                         zero_share)
    rows, cols = np.nonzero(P)
    return rows, cols, d


def _strat_pattern():
    pattern = make_problem("stratospheric").sys.pattern
    return pattern.rows, pattern.cols, pattern.dim


# (rows, cols, d) of the patterns the linalg tests use: no entries, no
# entries of L (and no fill), Lotka-Volterra's, cyclic3's (one fill
# entry), the stratospheric system's (four), a random one with fill, a
# full one (rows of 19 terms, which the substitution kernel splits over
# two statements), and advection's and the Euler density's below the
# band size
KERNEL_PATTERNS = {
    "empty-1": lambda: ([], [], 1),
    "upper-3": lambda: ([0, 0, 1], [1, 2, 2], 3),
    "lotka_volterra-2": lambda: ([1], [0], 2),
    "cyclic3-3": lambda: _cyclic(3, False),
    "stratospheric-6": _strat_pattern,
    "random-17": lambda: _random_pattern(17, 0.7),
    "full-20": lambda: _random_pattern(20, 0.0),
    "bidiagonal-63": lambda: _cyclic(63, False),
    "tridiagonal-63": lambda: _cyclic(63, True),
}


def _lists_outcome(fn, *args):
    """What ``fn(*args)`` gives as lists of floats: each list's bytes and
    signs, or the error's type and message."""
    try:
        out = fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    lists = out if isinstance(out, tuple) else (out,)
    return tuple((np.array(x).tobytes(), np.signbit(x).tobytes())
                 for x in lists)


@pytest.mark.parametrize("pattern", KERNEL_PATTERNS)
def test_compiled_kernels_match_the_interpreted_loops(pattern):
    # two plans of one pattern: the reference runs the interpreted loops
    # throughout (it is factored fewer than COMPILE_AFTER times), the
    # other is compiled before its first assembly.  Slots (the -0.0 fill
    # included), factors, solutions, substitutions, gamma-probes and
    # their tangents are bit-equal, and a failure is the same error with
    # the same message
    rows, cols, d = KERNEL_PATTERNS[pattern]()
    ref, new = (ExchangePattern(rows, cols, d) for _ in range(2))
    new.lu_plan.compile()
    n = len(ref.rows)
    rng = np.random.default_rng(d + 90)
    for fac in (0.0, 1e-3, 0.7, 21.0, 1e5, 1e16, 1e20, 1e300):
        for _ in range(8):
            vals = 10.0 ** rng.uniform(-6.0, 6.0, n)
            vals[rng.random(n) < 0.2] = 0.0
            loss = (np.bincount(ref.cols, vals, d)
                    + 10.0 ** rng.uniform(-6.0, 6.0, d))
            denom = 10.0 ** rng.uniform(-6.0, 6.0, d)
            with np.errstate(over="ignore"):
                M_ref, M = (patankar_matrix(Exchange(p, vals), loss, denom,
                                            fac) for p in (ref, new))
            assert _same(M.vals, M_ref.vals)
            # a probe of u + gamma g, its solution floored, negative or
            # overflowing as it comes, and its tangent with and without v
            u, g = _states(rng, d), rng.standard_normal(d) * _states(rng, d)
            args = (loss.tolist(), denom.tolist(), vals.tolist(), fac,
                    u.tolist(), g.tolist(), 0.7, "probe")
            out = _lists_outcome(new.lu_plan.probe, *args)
            assert out == _lists_outcome(ref.lu_plan.probe, *args)
            if len(out) == 3:
                slots, lu, x = new.lu_plan.probe(*args)
                for v in (None, (rng.standard_normal(d)
                                 * _states(rng, d)).tolist()):
                    targs = (slots, lu, x, u.tolist(), 0.7, v)
                    assert (_lists_outcome(new.lu_plan.tangent, *targs)
                            == _lists_outcome(ref.lu_plan.tangent, *targs))
            b1 = 10.0 ** rng.uniform(-6.0, 6.0, d)
            out = _outcome(lu_solve, M, b1)
            assert out == _outcome(lu_solve, M_ref, b1)
            if out[0] in (ValueError, SingularMatrixError):
                continue
            assert _same(M.lu, M_ref.lu)
            b2 = rng.standard_normal(d)
            b2[rng.random(d) < 0.2] = 0.0
            assert _outcome(lu_solve, M, b2) == _outcome(lu_solve, M_ref, b2)
    # a zero, negative or non-finite diagonal entry, and a non-finite
    # pattern or fill entry
    base = patankar_matrix(Exchange(ref, np.full(n, 0.1)),
                           np.bincount(ref.cols, np.full(n, 0.1), d),
                           np.ones(d), 0.7).vals
    bad_slots = [(0, 0.0), (d - 1, -1.0), (d // 2, np.nan), (0, np.inf),
                 (len(base) - 1, -np.inf), (len(base) - 1, np.nan)]
    for slot, bad in bad_slots:
        broken = base.copy()
        broken[slot] = bad
        out = _outcome(lu_solve, PlannedPatankar(broken, new.lu_plan),
                       np.ones(d))
        assert out == _outcome(lu_solve, PlannedPatankar(broken, ref.lu_plan),
                               np.ones(d))
        assert out[0] in (ValueError, SingularMatrixError)
    assert "solve" not in vars(ref.lu_plan)


@pytest.mark.parametrize("pattern", KERNEL_PATTERNS)
def test_fused_solve_kernel_matches_the_interpreted_solve(pattern):
    # the compiled solve (and probe) against the interpreted LuPlan.solve
    # (and probe), which are lu_solve's first solve and a gamma-probe:
    # factors and solutions bit-equal, the sign of zero and the floor to
    # tiny included, on right-hand sides of both signs with and without a
    # positivity name; slots whose sum overflows are finite, as the inline
    # check must see; and each failure the same error with the same
    # message
    rows, cols, d = KERNEL_PATTERNS[pattern]()
    ref, new = (ExchangePattern(rows, cols, d).lu_plan for _ in range(2))
    new.compile()
    n = len(rows)
    rng = np.random.default_rng(d + 110)
    tiny = np.finfo(float).tiny

    def both(name, *args):
        out = _lists_outcome(getattr(new, name), *args)
        assert out == _lists_outcome(getattr(LuPlan, name), ref, *args)
        return out

    for fac in (1e-3, 0.7, 21.0, 1e5):
        for _ in range(8):
            vals = 10.0 ** rng.uniform(-6.0, 6.0, n)
            vals[rng.random(n) < 0.2] = 0.0
            loss = (np.bincount(np.asarray(cols, dtype=np.intp), vals, d)
                    + 10.0 ** rng.uniform(-6.0, 6.0, d))
            denom = 10.0 ** rng.uniform(-6.0, 6.0, d)
            slots = ref.assemble(loss.tolist(), denom.tolist(),
                                 vals.tolist(), fac)
            for b, positive in ((_states(rng, d), "x"),
                                (_signed(rng, d), None),
                                (_signed(rng, d), "x")):
                both("solve", slots, b.tolist(), positive)
            u, g = _states(rng, d), rng.standard_normal(d) * _states(rng, d)
            both("probe", loss.tolist(), denom.tolist(), vals.tolist(), fac,
                 u.tolist(), g.tolist(), 0.7, "x")
    # an M-matrix: each loss is its column's exchange sum and 0.5 more
    loss = (0.5 + 0.1 * np.bincount(np.asarray(cols, dtype=np.intp),
                                    minlength=d)).tolist()
    base = ref.assemble(loss, [1.0] * d, [0.1] * n, 0.7)
    ones = [1.0] * d

    def with_slot(slot, value):
        broken = base.copy()
        broken[slot] = value
        return broken

    # diagonals near the largest float: finite slots whose sum overflows
    # solve without an error
    assert len(both("solve", [1e308] * d + base[d:], ones, "x")) == 2
    # a subnormal solution, floored to tiny
    both("solve", base, [5e-324] * d, "x")
    assert new.solve(base, [5e-324] * d, "x")[1] == [tiny] * d
    failures = [
        ((with_slot(len(base) - 1, np.nan), ones, "x"), ValueError,
         "matrix has non-finite entries"),
        ((with_slot(0, np.inf), ones, "x"), ValueError,
         "matrix has non-finite entries"),
        ((with_slot(0, 0.0), ones, "x"), SingularMatrixError,
         "singular matrix: pivot 0.000e+00 in row 0"),
        ((with_slot(d - 1, -1.0), ones, "x"), SingularMatrixError,
         "singular matrix: pivot -"),
        ((base, [np.inf] * d, None), SingularMatrixError,
         "singular matrix: non-finite solution; largest diagonal in row"),
        ((base, ones[:-1] + [-1.0], "x"), PositivityError,
         f"x lost positivity at component {d - 1}"),
    ]
    for args, error, message in failures:
        out = both("solve", *args)
        assert out[0] is error and out[1].startswith(message), out
    # the probe's own checks: a denominator, a non-finite slot, a pivot,
    # a non-finite and a negative solution
    probes = [
        ((loss, [1.0] * (d - 1) + [np.inf], [0.1] * n, 0.7, ones, ones,
          0.7, "x"), PositivityError,
         f"denominator component [{d - 1}] overflowed to infinity"),
        (([np.inf] * d, ones, [0.1] * n, 0.7, ones, ones, 0.7, "x"),
         ValueError, "matrix has non-finite entries"),
        (([-2.0] * d, ones, [0.0] * n, 1.0, ones, ones, 0.7, "x"),
         SingularMatrixError, "singular matrix: pivot -1.000e+00 in row 0"),
        ((loss, ones, [0.1] * n, 0.7, [1e308] * d, [1e308] * d, 1.0, "x"),
         SingularMatrixError, "singular matrix: non-finite solution"),
        ((loss, ones, [0.1] * n, 0.7, ones, [-10.0] * d, 0.7, "x"),
         PositivityError, "x lost positivity at component"),
    ]
    for args, error, message in probes:
        out = both("probe", *args)
        assert out[0] is error and out[1].startswith(message), out


def _agrees_with_gesv(M, rng):
    """A first solve and a substitution with M agree with LAPACK gesv on
    M's dense array to 1e-13 relative, and stay positive."""
    A = M.toarray()
    n = len(A)
    for _ in range(2):
        b = 10.0 ** rng.uniform(-1.0, 0.0, n)
        x, ref = lu_solve(M, b), np.linalg.solve(A, b)
        assert np.all(x > 0.0)
        assert np.all(np.abs(x - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("d", [5, 6, 17, 63])
def test_planned_solve_matches_gesv(d):
    # random patterns from sparse to full; fac*loss/denom up to about 20
    rng = np.random.default_rng(d + 40)
    for zero_share in (0.9, 0.6, 0.3, 0.0):
        for _ in range(3):
            P = _random_exchange(rng, d, -1.0, 0.0, zero_share)
            denom = 10.0 ** rng.uniform(-0.5, 0.5, d)
            M = patankar_matrix(exchange(P), P.sum(axis=0), denom,
                                10.0 ** rng.uniform(-1.0, 1.0))
            # each random pattern is used once and compiles nothing
            assert isinstance(M, PlannedPatankar)
            assert "solve" not in vars(M.plan)
            _agrees_with_gesv(M, rng)


@pytest.mark.parametrize("d", [5, 17, 63])
@pytest.mark.parametrize("pattern", ["bidiagonal", "tridiagonal"])
def test_planned_cyclic_solve_matches_gesv(pattern, d):
    # the patterns of advection and the Euler density below the band size
    rng = np.random.default_rng(d + 50)
    i = np.arange(d)
    for _ in range(5):
        P = np.zeros((d, d))
        P[(i + 1) % d, i] = 10.0 ** rng.uniform(-1.0, 0.0, d)
        if pattern == "tridiagonal":
            P[i, (i + 1) % d] = 10.0 ** rng.uniform(-1.0, 0.0, d)
        denom = 10.0 ** rng.uniform(-0.5, 0.5, d)
        M = patankar_matrix(exchange(P), P.sum(axis=0), denom,
                            10.0 ** rng.uniform(-1.0, 1.0))
        assert isinstance(M, PlannedPatankar)
        _agrees_with_gesv(M, rng)


@pytest.mark.parametrize("hour", STRAT_HOURS)
def test_planned_stratospheric_solve_matches_gesv(hour):
    # the 6 x 6 pattern with its 4 fill entries, at states near the
    # problem's and the step sizes its PID control takes
    problem = make_problem("stratospheric")
    t = hour * 3600.0
    rng = np.random.default_rng(int(hour * 10) + 60)
    for dt in (1.0, 36.0, 600.0, 3600.0):
        for _ in range(5):
            u = problem.u0 * np.exp(rng.uniform(-1.0, 1.0, 6))
            r = problem.sys.rates(t, u)
            M = patankar_matrix(r.P, r.loss, u, dt)
            assert isinstance(M, PlannedPatankar) and M.plan.n_fill == 4
            _agrees_with_gesv(M, rng)


# ---------------------------------------------------------------------------
# A step's systems on the planned format: one fused kernel per plan and
# number of rate sets, its interpreted twin, and the numpy arithmetic
# both replaced

def _signed(rng, shape):
    """``_states`` with about a fifth of the entries +0.0 or -0.0."""
    x = _states(rng, shape)
    pick = rng.random(shape) < 0.2
    x[pick] = rng.choice([0.0, -0.0], size=int(pick.sum()))
    return x


def _rate_set(rng, pattern, scalar_rest):
    d = pattern.dim
    rest = ((0.0, 0.0) if scalar_rest
            else (_signed(rng, d), _signed(rng, d)))
    return RateSet(Exchange(pattern, _signed(rng, pattern.rows.size)),
                   *rest)


def _same_floats(new, old):
    """``_same`` for lists or arrays that may hold NaN."""
    new, old = np.asarray(new, float), np.asarray(old, float)
    return (new.shape == old.shape and np.array_equal(new, old, equal_nan=True)
            and np.array_equal(np.signbit(new), np.signbit(old)))


@pytest.mark.parametrize("d, zero_share", [(1, 0.0), (2, 0.0), (6, 0.3),
                                           (17, 0.6), (40, 0.8)])
def test_fused_system_kernel_matches_its_twin_and_numpy(d, zero_share):
    # the compiled kernel and the interpreted LuPlan.system, slot by
    # slot, on the same lists, and both against the numpy weighted sums
    # and the assembly from them: every slot, weighted list, g and right-hand
    # side bit-equal, the sign of zero included.  Rest terms of both
    # signs of zero, and the scalar rest terms of a system without them
    rows, cols, _ = _random_pattern(d, zero_share)
    pattern = ExchangePattern(rows, cols, d)
    plan = pattern.lu_plan
    plan.compile()
    rng = np.random.default_rng(d + 100)
    with np.errstate(all="ignore"):
        for n_sets in (1, 2, 3):
            for fac in (1e-3, 0.7, 21.0, 1e5):
                for _ in range(6):
                    rates = [_rate_set(rng, pattern, rng.random() < 0.3)
                             for _ in range(n_sets)]
                    weights = rng.uniform(0.0, 2.0, n_sets)
                    weights[rng.random(n_sets) < 0.2] = 0.0
                    denom, u = _states(rng, d), _states(rng, d)
                    args = (weights.tolist(),
                            [r.lists for r in rates],
                            denom.tolist(), fac, u.tolist())
                    new = plan.system(*args)
                    twin = LuPlan.system(plan, *args)
                    for a, b in zip(new, twin):
                        assert type(a) is type(b) is list
                        assert _same_floats(a, b)
                    vals, loss, rP = old_weighted(rates, weights)
                    g = fac * rP
                    M = patankar_matrix(Exchange(pattern, vals), loss, denom,
                                        fac)
                    for a, b in zip(new, (M.vals, vals, loss, g, u + g)):
                        assert _same_floats(a, np.broadcast_to(b, np.shape(a)))
                    # the step form returns the kernel's lists
                    system, rhs = patankar_matrix(rates, weights, denom, fac,
                                                  u)
                    assert _same_floats(system.M.vals, new[0])
                    for a, b in zip((*system[1:5], rhs),
                                    (*new[1:4], u, new[4])):
                        assert _same_floats(a, b)
            # one step kernel per number of rate sets, generated on first
            # use
            assert sorted(plan.systems) == list(range(1, n_sets + 1))


def _planned_runs():
    """(id, problem, kwargs, t_end, dt0) of short runs of every
    registered problem on the planned format, the mesh problems below
    BAND_MIN_DIM."""
    return [("lotka_volterra", "lotka_volterra", {}, 2.0, 0.2),
            ("cyclic3", "cyclic3", {}, 1.0, 0.1),
            ("stratospheric", "stratospheric", {}, 12.25 * 3600.0, 90.0),
            ("advection-16", "advection", dict(N=16, entropy_kind="sqrt"),
             0.25, 0.125),
            ("pme-20", "pme", dict(N=20, m=3.0), 1.1, 0.6),
            ("euler-16", "euler", dict(N=16), 0.25, 1.0 / 32.0)]


def _scheme_cases():
    params = {"mprk22": (1.0,), "mprk43i": (0.5, 0.75),
              "mpssprk2": (0.5, 1.0)}
    return [pytest.param(kind, params[kind], mode, id=f"{kind}-{mode}")
            for kind in SCHEME_KINDS for mode in SIGMA_MODES[kind]]


def _planned_run(name, kwargs, t_end, dt0, scheme, compiled):
    """The outcome of one relaxed run: its digest, or the error's type
    and message; and the plan of its pattern."""
    problem = make_problem(name, **kwargs)
    stepper = problem.stepper(scheme)
    plan = stepper.sys.pattern.lu_plan
    assert stepper.sys.pattern.dim < BAND_MIN_DIM
    if compiled:
        plan.compile()
    cfg = RelaxConfig(mode=problem.defaults["relax"],
                      solver=problem.defaults["solver"],
                      **problem.defaults.get("relax_opts", {}))
    try:
        traj = integrate(stepper, problem.eta, cfg, problem.tspan[0],
                         problem.u0, t_end, dt0)
    except (ValueError, ArithmeticError) as exc:
        return (type(exc), str(exc)), plan
    return trajectory_digest(traj), plan


@pytest.mark.parametrize("kind, params, mode", _scheme_cases())
@pytest.mark.parametrize("run", _planned_runs(), ids=lambda r: r[0])
def test_whole_run_is_bit_equal_interpreted_and_compiled(monkeypatch, run,
                                                         kind, params, mode):
    # a run on plans that never compile (COMPILE_AFTER past any count a
    # short run reaches) and on plans compiled before the first step
    # gives one digest: every probe, stage, update and PID reject of the
    # run took the same bits through the fused kernels as through their
    # interpreted twins
    _, name, kwargs, t_end, dt0 = run
    scheme = build_scheme(kind, *params, sigma_mode=mode)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "COMPILE_AFTER", 10**9)
        interpreted, plan = _planned_run(name, kwargs, t_end, dt0, scheme,
                                         False)
    assert "system" not in vars(plan)
    compiled, plan = _planned_run(name, kwargs, t_end, dt0, scheme, True)
    assert compiled == interpreted
    # only Lotka-Volterra has rest terms, which MPSSPRK2 refuses
    ran = kind != "mpssprk2" or name != "lotka_volterra"
    assert isinstance(compiled, str) == ran
    assert plan.factored == 0 and bool(plan.systems) == ran


@pytest.mark.parametrize("kind, params, mode", _scheme_cases())
@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
@pytest.mark.parametrize("name, dt", [("lotka_volterra", 0.2),
                                      ("cyclic3", 0.1),
                                      ("stratospheric", 90.0)])
def test_curve_probe_keeps_the_bits_of_the_assembled_solve(name, dt,
                                                           compiled, kind,
                                                           params, mode):
    # the record's curve, one LuPlan.probe per gamma and one
    # LuPlan.tangent per derivative, gives u(gamma) and u'(gamma) bit for
    # bit as the reassembly by patankar_matrix and the solves by
    # lu_solve did, on the interpreted loops and the compiled kernels,
    # and u^{n+1} itself at gamma = 1
    problem = make_problem(name)
    plan = problem.sys.pattern.lu_plan
    if compiled:
        plan.compile()
    stepper = problem.stepper(build_scheme(kind, *params, sigma_mode=mode))
    if kind == "mpssprk2" and name == "lotka_volterra":
        # Lotka-Volterra has rest terms, which MPSSPRK2 refuses
        with pytest.raises(UnsupportedSchemeError):
            stepper.step(problem.tspan[0], problem.u0, dt)
        return
    rec = stepper.step(problem.tspan[0], problem.u0, dt)
    for gamma in (0.3, 0.9, 1.0, 1.7):
        u = rec.at(gamma)
        du = rec.tangent(gamma, u)
        ref_u, ref_du = old_gamma_probe(replace(rec), gamma)
        assert _same(u, ref_u) and _same(du, ref_du), gamma
    assert rec.at(1.0) is rec.u_next
    assert (plan.source is not None) == compiled


def _error_system(pattern, vals, rest_prod=0.0):
    """A system on ``pattern`` whose rates are ``vals`` and ``rest_prod``
    wherever it is evaluated."""
    def matrix_rates(t, u):
        return (Exchange(pattern, np.array(vals, dtype=float)),
                np.full(pattern.dim, rest_prod), np.zeros(pattern.dim))
    return PdrsSystem(pattern, matrix_rates)


def _step_outcome(sys, kind, u0, dt, compiled):
    """``_outcome`` of a step from u0: the second stage and u^{n+1}, or
    the error."""
    if compiled:
        sys.pattern.lu_plan.compile()
    params = {"mprk22": (1.0,), "mpssprk2": (0.5, 1.0)}[kind]
    stepper = MpStepper(sys, build_scheme(kind, *params))

    def run():
        rec = stepper.step(0.0, np.array(u0, dtype=float), dt)
        return np.concatenate([rec.stages[1], rec.u_next])

    return _outcome(run)


def _cyclic3_pattern():
    return ExchangePattern([1, 2, 0], [0, 1, 2], 3)


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
def test_float_path_errors_keep_type_and_message(compiled):
    # each failure of a step on the planned format, the same error with
    # the same message whether the plan's kernels are compiled or not
    ones = np.ones(3)
    # a non-positive denominator, in the step form and the plain one
    rates = [RateSet(Exchange(_cyclic3_pattern(), np.full(3, 0.5)), 0.0,
                     0.0)]
    pattern = rates[0].P.pattern
    if compiled:
        pattern.lu_plan.compile()
    for bad, message in (
            (0.0, "denominator component [1] underflowed to zero"),
            (-1.0, "non-positive denominator component [1]")):
        denom = np.array([1.0, bad, 1.0])
        for args in ((rates, [1.0], denom, 0.5, ones),
                     (rates[0].P, rates[0].loss, denom, 0.5)):
            assert _outcome(patankar_matrix, *args) == (PositivityError,
                                                        message)
    # a NaN rate
    assert _step_outcome(_error_system(_cyclic3_pattern(), [0.5, np.nan, 0.5]),
                         "mprk22", ones, 0.1, compiled) == (
        ValueError, "matrix has non-finite entries")
    # a pivot lost past 1/eps, named with its row and fac*loss/denom
    err, message = _step_outcome(
        _error_system(_cyclic3_pattern(), [1e20] * 3), "mprk22", ones, 1.0,
        compiled)
    assert err is SingularMatrixError
    assert message == ("singular matrix: pivot 0.000e+00 in row 2, where "
                       "fac*loss/denom = 1.000e+20 (1/eps = 4.504e+15)")
    # a negative rP makes the stage's right-hand side, and so its
    # solution, negative
    assert _step_outcome(_error_system(_cyclic3_pattern(), [0.5] * 3, -50.0),
                         "mprk22", ones, 0.1, compiled) == (
        PositivityError, "stage lost positivity at component 0")
    # without rates every solution is u_n; its subnormal component is
    # floored to the smallest normal number
    tiny = np.finfo(float).tiny
    assert _step_outcome(_error_system(_cyclic3_pattern(), [0.0] * 3),
                         "mprk22", [1.0, 5e-324, 1.0], 0.1, compiled) == (
        _outcome(lambda: np.array([1.0, tiny, 1.0] * 2)))
    # MPSSPRK2 has no place for rest terms
    assert _step_outcome(_error_system(_cyclic3_pattern(), [0.5] * 3, 0.1),
                         "mpssprk2", ones, 0.1, compiled) == (
        UnsupportedSchemeError,
        "MPSSPRK2 supports conservative PDS only (no rest terms)")


# ---------------------------------------------------------------------------
# Stage right-hand sides are built only when read

def test_conservative_mprk22_run_builds_no_stage_rhs(monkeypatch):
    # per attempt: one check_state per stage state and one matrix_rates
    # call per stage, and no right-hand side at all, since only the
    # dissipative quadrature reads one
    counts = Counter()
    monkeypatch.setattr(RateSet, "rhs",
                        property(counted(RateSet.rhs.fget, counts, "rhs")))
    monkeypatch.setattr(PdrsSystem, "check_state",
                        counted(PdrsSystem.check_state, counts, "check_state"))
    problem = make_problem("lotka_volterra")
    sys = replace(problem.sys, matrix_rates=counted(
        problem.sys.matrix_rates, counts, "matrix_rates"))
    stepper = MpStepper(sys, build_scheme("mprk22", 1.0))
    stepper.step = counted(stepper.step, counts, "attempts")
    traj = integrate(stepper, problem.eta, RelaxConfig(), 0.0, problem.u0,
                     20.0, 1.0, adaptivity="pid_and_relax", rtol=1e-3,
                     atol=1e-3)
    assert traj.times[-1] == pytest.approx(20.0)
    assert counts["attempts"] > traj.n_steps > 0
    assert counts["rhs"] == 0
    assert counts["check_state"] == 2 * counts["attempts"]
    assert counts["matrix_rates"] == 2 * counts["attempts"]


@pytest.mark.parametrize("m", [2.0, 3.0, 5.0])
def test_dissipative_quadrature_matches_eager_sum(m):
    # m selects the PME's default scheme: MPRK22, MPSSPRK2 and MPRK43I
    problem = make_problem("pme", N=40, m=m)
    scheme = build_scheme(*problem.defaults["method"])
    stepper = MpStepper(problem.sys, scheme)
    eta = problem.eta
    rec = stepper.step(problem.tspan[0], problem.u0, problem.defaults["dt0"])
    # the eager sum: every stage's right-hand side built with the step
    acc = 0.0
    for bj, cj, uj in zip(scheme.b, scheme.c, rec.stages):
        fj = problem.sys.rates(rec.t_n + cj * rec.dt, uj).rhs
        acc += bj * float(eta.grad(uj) @ fj)
    assert stepper.entropy_quadrature(eta, rec) == rec.dt * acc
    assert _entropy_rate(eta, stepper, rec) == rec.dt * acc
    out = relax_step(eta, stepper, rec, RelaxConfig(mode=MODE_CLAMPED))
    assert 0.0 < out.gamma <= 1.0


def test_euler_stage_rhs_matches_eager_concatenation():
    problem = isothermal_euler_fv(N=20)
    stepper = problem.stepper_factory(build_scheme("mprk22", 1.0))
    rec = stepper.step(0.0, problem.u0, problem.mesh["dx"])
    assert len(rec.stage_rhs) == len(rec.stages) == 2
    for z, f in zip(rec.stages, rec.stage_rhs):
        P, _, _, m_rhs = stepper._rates(z)
        assert _same(f, np.concatenate([RateSet(P, 0.0, 0.0).rhs, m_rhs]))
