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

from relax_mprk.control import integrate
from relax_mprk.euler import (_density_pattern, _density_production,
                              _interface_fluxes)
from relax_mprk.linalg import (PlannedPatankar, SingularMatrixError,
                               _at_largest_diagonal, _band_substitute,
                               _singular, _sweep, lu_solve)
from relax_mprk.means import mean_geo, mean_harm, mean_log
from relax_mprk.pdrs import Exchange, ExchangePattern, PdrsSystem, RateSet
from relax_mprk.problems import (_STRAT_M, _daylight, isothermal_euler_fv,
                                 make_problem)
from relax_mprk.relaxation import (MODE_CLAMPED, RelaxConfig, _entropy_rate,
                                   relax_step)
from relax_mprk.schemes import (MpStepper, _StageLogs, build_scheme,
                                patankar_matrix)

from helpers import counted, exchange, planned

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


def old_ppow(base, expo):
    floored = np.maximum(np.asarray(base, float), np.finfo(float).tiny)
    return np.exp(np.asarray(expo, float) * np.log(floored))


def old_geo_denominator(u_n, u2, e):
    return old_ppow(u2, e) * old_ppow(u_n, 1.0 - e)


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
    # the interpreted assembly, and a compiled plan's kernel
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
                assert (M.plan.kernels is not None) == compiled


def test_geo_denominator_at_unit_exponent_matches_reference():
    rng = np.random.default_rng(7)
    with np.errstate(over="ignore"):
        for d in (1, 6, 100):
            for _ in range(20):
                u_n, u2 = _states(rng, d), _states(rng, d)
                for e in (1.0, np.float64(1.0), 0.5, 2.0):
                    assert _same(_StageLogs(u_n, u2).geo_mean(e),
                                 old_geo_denominator(u_n, u2, e))


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


@pytest.mark.parametrize("pattern", KERNEL_PATTERNS)
def test_compiled_kernels_match_the_interpreted_loops(pattern):
    # two plans of one pattern: the reference runs the interpreted loops
    # throughout (it is factored fewer than COMPILE_AFTER times), the
    # other is compiled before its first assembly.  Slots (the -0.0 fill
    # included), factors, solutions and substitutions are bit-equal, and
    # a failure is the same error with the same message
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
    assert ref.lu_plan.kernels is None


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
            assert isinstance(M, PlannedPatankar) and M.plan.kernels is None
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
