import gc
import linecache
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from relax_mprk.linalg import (BAND_MIN_DIM, COMPILE_AFTER, CyclicTridiagonal,
                               PlannedPatankar, PositivityError,
                               SingularMatrixError, lu_solve, patankar_matrix)

from helpers import counted, exchange, planned

EPS = np.finfo(float).eps
BANDED = ("cyclic_bidiagonal", "cyclic_tridiagonal", "tridiagonal")


def test_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(lu_solve(planned(np.eye(3)), b), b)


def test_dense_array_is_refused():
    # lu_solve solves the two Patankar formats only: a general matrix,
    # which would need pivoting, has no path
    for A in (np.eye(2), [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(TypeError, match="PlannedPatankar or a "
                                            "CyclicTridiagonal"):
            lu_solve(A, np.ones(2))


def test_singular_matrix_raises():
    A = planned([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.array([1.0, 1.0]))


def test_zero_row_raises():
    A = planned([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.array([1.0, 1.0]))


def test_badly_row_scaled_m_matrix():
    # column sums 1 with one enormous diagonal entry; genuinely solvable
    # even though a naive residual scale check would flag it
    A = np.array([
        [2.0e16, 0.0, -0.5],
        [-2.0e16 + 1.0, 2.0, 0.0],
        [0.0, -1.0, 1.5],
    ])
    b = np.array([1.0e-12, 3.0, 2.0])
    x = lu_solve(planned(A), b)
    assert np.allclose(A @ x, b, rtol=0, atol=1e-9 * np.abs(b).max())


def test_shape_validation():
    with pytest.raises(ValueError):
        lu_solve(planned([[3.0, -1.0], [-1.0, 3.0]]), np.ones(3))
    with pytest.raises(ValueError):
        lu_solve(CyclicTridiagonal(np.ones((3, 4))), np.ones(3))
    with pytest.raises(ValueError):
        lu_solve(planned([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_non_finite_solution_raises():
    A = planned([[1e-300, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError,
                       match="non-finite solution; largest diagonal in row 1"):
        lu_solve(A, np.array([1e300, 1.0]))


def _assert_positive_and_conservative(M, b, x):
    n = len(b)
    assert np.all(x > 0.0)
    # roundoff in the sum is relative to the fluxes |M| x, not the mass
    assert abs(x.sum() - b.sum()) <= 2.0 * n * EPS * np.sum(
        np.abs(M.toarray()) @ x)


def test_patankar_systems_stay_positive_and_conservative():
    # production matrices with a zero diagonal make every column of the
    # Patankar matrix sum to exactly 1.  Denominators and step factors span
    # the ranges met by stiff and underflowing states; each column is
    # scaled so that fac*loss/denom <= 1e12.  Far beyond that (about
    # 1/eps) the unit diagonal is lost to rounding, the matrix is singular
    # to working precision and no elimination keeps positivity.
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        P = 10.0 ** rng.uniform(-30.0, 0.0, size=(n, n))
        P[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(P, 0.0)
        denom = 10.0 ** rng.uniform(-300.0, 3.0, size=n)
        fac = 10.0 ** rng.uniform(-3.0, 8.0)
        with np.errstate(over="ignore"):
            P *= np.minimum(1.0, 1e12 * denom / (fac * np.maximum(P.sum(axis=0), 1e-300)))
        M = patankar_matrix(exchange(P), P.sum(axis=0), denom, fac)
        b = 10.0 ** rng.uniform(-10.0, 0.0, size=n)
        _assert_positive_and_conservative(M, b, lu_solve(M, b))


def _dense_assembly(P, loss, denom, fac):
    # the dense scatter assembly patankar_matrix's two formats reproduce
    A = np.multiply(P, -fac) / denom
    A.flat[::len(denom) + 1] = 1.0 + fac * loss / denom
    return A


def test_planned_singular_message_names_the_row():
    # a cyclic bidiagonal Patankar matrix with fac*loss/denom = 1e20 in
    # every column: the no-pivot elimination meets a zero pivot in the
    # last row, as the band sweep does from BAND_MIN_DIM on
    for n in (3, 5, 17, BAND_MIN_DIM - 1):
        i = np.arange(n)
        f = np.full(n, 1e20)
        P = np.zeros((n, n))
        P[(i + 1) % n, i] = f
        M = patankar_matrix(exchange(P), f, np.ones(n), 1.0)
        assert isinstance(M, PlannedPatankar)
        with pytest.raises(SingularMatrixError,
                           match=rf"pivot 0\.000e\+00 in row {n - 1}, where "
                                 rf"fac\*loss/denom = 1\.000e\+20 "
                                 rf"\(1/eps = 4\.504e\+15\)"):
            lu_solve(M, np.ones(n))


# ---------------------------------------------------------------------------
# The planned format: no-pivot elimination on Python floats for every
# system below the band size (here "small")

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17, BAND_MIN_DIM - 1])
def test_small_format_holds_the_dense_entries(n):
    rng = np.random.default_rng(n)
    with np.errstate(all="ignore"):
        for fac in (0.0, 1e-3, 0.7, 21.0, 1e5):
            for _ in range(25 if n < 17 else 3):
                P = 10.0 ** rng.uniform(-300.0, 300.0, size=(n, n))
                P[rng.random((n, n)) < 0.3] = 0.0
                loss = P.sum(axis=0) + 10.0 ** rng.uniform(-300.0, 3.0, n)
                denom = 10.0 ** rng.uniform(-300.0, 300.0, n)
                M = patankar_matrix(exchange(P), loss, denom, fac)
                assert isinstance(M, PlannedPatankar)
                A, B = M.toarray(), _dense_assembly(P, loss, denom, fac)
                assert np.array_equal(A, B, equal_nan=True)
                assert np.array_equal(np.signbit(A), np.signbit(B))


@pytest.mark.parametrize("n", [1, 2, 4, 5, BAND_MIN_DIM - 1, BAND_MIN_DIM])
def test_patankar_matrix_format_follows_the_dimension(n):
    i = np.arange(n)
    P = np.zeros((n, n))
    P[(i + 1) % n, i] = 0.3
    np.fill_diagonal(P, 0.0)
    ex = exchange(P)
    M = patankar_matrix(ex, P.sum(axis=0), np.ones(n), 0.5)
    if n < BAND_MIN_DIM:
        assert isinstance(M, PlannedPatankar)
    else:
        assert isinstance(M, CyclicTridiagonal)
    # the assembly refuses a denominator that is not positive, naming the
    # first one, on the band path and on the planned path before and
    # after its plan compiles
    for compiled in (False, True) if n < BAND_MIN_DIM else (False,):
        if compiled:
            ex.pattern.lu_plan.compile()
        for k in sorted({0, n // 2, n - 1}):
            for bad in (0.0, -0.0, -1e-300, -2.0):
                denom = np.ones(n)
                denom[k:] = -1.0
                denom[k] = bad
                with pytest.raises(PositivityError, match=rf"^non-positive "
                                   rf"denominator component \[{k}\]$"):
                    patankar_matrix(ex, P.sum(axis=0), denom, 0.5)


def test_small_solve_matches_lapack_and_reuses_its_factor(monkeypatch):
    # every solve after the first only substitutes, with the kept factor
    from relax_mprk import linalg

    factors = [0]
    monkeypatch.setattr(linalg, "_planned_lu",
                        counted(linalg._planned_lu, factors))
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5, 6, 17):
        P = 10.0 ** rng.uniform(-1.0, 1.0, size=(n, n))
        P[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(P, 0.0)
        denom = 10.0 ** rng.uniform(-0.5, 0.5, n)
        M = patankar_matrix(exchange(P), P.sum(axis=0), denom, 2.0)
        for _ in range(3):
            b = 10.0 ** rng.uniform(-1.0, 0.0, n)
            x, x_dense = lu_solve(M, b), np.linalg.solve(M.toarray(), b)
            assert np.all(np.abs(x - x_dense) <= 16.0 * EPS * x_dense)
            factor = M.lu
        assert factor is M.lu is not None
    assert factors[0] == 7


def test_plan_compiles_once_at_its_kth_factorization(monkeypatch):
    # a plan factored fewer than COMPILE_AFTER times holds no kernels; the
    # COMPILE_AFTER-th factorization compiles them, once, and every
    # matrix is still factored once however often it is solved
    from relax_mprk import linalg

    compiles, factors = [], [0]
    compile_kernels = linalg.LuPlan.compile

    def counting_compile(plan):
        compiles.append(plan)
        return compile_kernels(plan)

    monkeypatch.setattr(linalg.LuPlan, "compile", counting_compile)
    monkeypatch.setattr(linalg, "_planned_lu",
                        counted(linalg._planned_lu, factors))
    n = 3
    i = np.arange(n)
    P = np.zeros((n, n))
    P[(i + 1) % n, i] = 0.3
    ex = exchange(P)
    plan = ex.pattern.lu_plan
    b = np.ones(n)
    for k in range(1, COMPILE_AFTER + 3):
        M = patankar_matrix(ex, P.sum(axis=0), np.ones(n), 0.5)
        x = lu_solve(M, b)
        assert lu_solve(M, b).tobytes() == x.tobytes()
        assert (plan.kernels is None) == (plan.source is None) == (
            k < COMPILE_AFTER)
    assert compiles == [plan]
    assert factors[0] == plan.factored + 2 == COMPILE_AFTER + 2


def _singular_traceback(M, b):
    """The message and the extracted traceback of lu_solve(M, b)."""
    try:
        lu_solve(M, b)
    except SingularMatrixError as exc:
        return str(exc), traceback.extract_tb(exc.__traceback__)
    raise AssertionError("lu_solve did not raise SingularMatrixError")


def test_compiled_kernel_traceback_shows_the_pivot_check():
    # the kernels' source is registered with linecache under the plan's
    # own file name, so a traceback out of a kernel shows the check that
    # raised; the message is the interpreted loops'.  The cyclic
    # bidiagonal matrix of the singular-message test, on two plans of its
    # pattern
    n = 5
    i = np.arange(n)
    f = np.full(n, 1e20)
    P = np.zeros((n, n))
    P[(i + 1) % n, i] = f
    compiled, interpreted = exchange(P), exchange(P)
    plan = compiled.pattern.lu_plan
    plan.compile()
    message, frames = _singular_traceback(
        patankar_matrix(compiled, f, np.ones(n), 1.0), np.ones(n))
    assert message == _singular_traceback(
        patankar_matrix(interpreted, f, np.ones(n), 1.0), np.ones(n))[0]
    kernel = frames[-1]
    assert kernel.filename.startswith("<lu-plan d=5 nnz=5 fill=3 at 0x")
    assert kernel.name == "factor"
    assert kernel.line == (f"if not a{n - 1} > 0.0: raise _singular(vals, "
                           f"{n - 1}, f\"pivot {{a{n - 1}:.3e}}\")")
    assert plan.source.splitlines()[kernel.lineno - 1].strip() == kernel.line
    # the linecache entry goes with the plan
    del compiled, plan
    gc.collect()
    assert kernel.filename not in linecache.cache


@pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_small_entry_raises(row, col, bad):
    A = np.array([[3.0, -1.0], [-1.0, 3.0]])
    A[row, col] = bad
    with pytest.raises(ValueError, match="non-finite"):
        lu_solve(planned(A), np.ones(2))


def test_small_past_inverse_eps_raises_and_never_returns_a_negative_state():
    # the band test below on full matrices of up to 4 unknowns
    rng = np.random.default_rng(8)
    raised = 0
    for _ in range(400):
        n = int(rng.integers(2, 5))
        P = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n))
        P[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(P, 0.0)
        denom = 10.0 ** rng.uniform(-20.0, 0.0, size=n)
        M = patankar_matrix(exchange(P), P.sum(axis=0), denom, 10.0 ** rng.uniform(0.0, 20.0))
        try:
            x = lu_solve(M, 10.0 ** rng.uniform(-10.0, 0.0, size=n))
        except SingularMatrixError as exc:
            assert "fac*loss/denom" in str(exc) and "1/eps" in str(exc)
            raised += 1
            continue
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    assert raised > 0


def test_small_singular_message_names_the_row():
    # the cyclic bidiagonal matrix of the band test with three unknowns
    f = 1e20
    M = planned([[1.0 + f, 0.0, -f], [-f, 1.0 + f, 0.0], [0.0, -f, 1.0 + f]])
    with pytest.raises(SingularMatrixError,
                       match=r"pivot 0\.000e\+00 in row 2, where "
                             r"fac\*loss/denom = 1\.000e\+20 \(1/eps = 4\.504e\+15\)"):
        lu_solve(M, np.ones(3))


def test_newton_relaxed_step_factors_each_matrix_once(monkeypatch):
    # the Newton derivative solve reuses the factor of the value solve's
    # M_gamma, the bootstrap sbar' solve that of the sigma matrix, and
    # the derivative at gamma = 1 the factors of the step's own update
    # and sigma matrices, so every Patankar matrix of a relaxed step is
    # factored exactly once however often it is solved: Lotka-Volterra
    # (d = 2) and the stratospheric system (d = 6, dense and bootstrap
    # sigma)
    from relax_mprk import linalg, schemes
    from relax_mprk.problems import make_problem
    from relax_mprk.relaxation import RelaxConfig, relax_step

    counts = {}
    for owner, name, key in [
            (schemes, "patankar_matrix", "assemblies"),
            (schemes, "lu_solve", "solves"),
            (schemes, "gamma_update_derivative", "derivatives"),
            (linalg, "_planned_lu", "factors"), (linalg, "_sweep", "factors")]:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name), counts,
                                                 key))
    for name, method, mode, dt in (
            ("lotka_volterra", ("mprk22", 1.0), "frozen", 0.2),
            ("stratospheric", ("mprk22", 1.0), "dense", 1.0),
            ("stratospheric", ("mprk43i", 0.5, 0.75), "bootstrap", 1.0)):
        problem = make_problem(name)
        stepper = schemes.MpStepper(
            problem.sys, schemes.build_scheme(*method, sigma_mode=mode))
        counts.update(assemblies=0, factors=0, solves=0, derivatives=0)
        rec = stepper.step(problem.tspan[0], problem.u0, dt)
        out = relax_step(problem.eta, stepper, rec,
                         RelaxConfig(mode="implicit", solver="newton"))
        assert out.status == "converged" and out.iterations >= 2
        assert counts["factors"] == counts["assemblies"] > 0
        # every other solve substitutes: the derivative's with M_gamma
        # and, for bootstrap, its sbar' solve with the sigma matrix
        assert counts["solves"] == (counts["factors"] + counts["derivatives"]
                                    * (1 + (mode == "bootstrap")))
        if mode == "frozen":
            # u^{n+1} needs no solve at gamma = 1, and the derivative
            # there substitutes with the step's M_1, assembled no second
            # time; each later iteration but the last solves its M_gamma
            # twice, for the value and the derivative
            assert (counts["solves"]
                    == counts["assemblies"] + out.iterations - 1)


# ---------------------------------------------------------------------------
# The cyclic-tridiagonal sweep

def _banded_exchange(rng, n, pattern, lo=-1.0, hi=0.0):
    """Exchange array with log-uniform entries in [10**lo, 10**hi] on the
    pattern of advection (cyclic bidiagonal), the Euler density (cyclic
    tridiagonal) or the porous medium equation (tridiagonal)."""
    i = np.arange(n)
    P = np.zeros((n, n))
    if pattern == "tridiagonal":
        P[i[1:], i[:-1]] = 10.0 ** rng.uniform(lo, hi, n - 1)
        P[i[:-1], i[1:]] = 10.0 ** rng.uniform(lo, hi, n - 1)
        return P
    P[(i + 1) % n, i] = 10.0 ** rng.uniform(lo, hi, n)
    if pattern == "cyclic_tridiagonal":
        P[i, (i + 1) % n] = 10.0 ** rng.uniform(lo, hi, n)
    return P


@pytest.mark.parametrize("n", [BAND_MIN_DIM, 100, 160, 1000])
@pytest.mark.parametrize("pattern", BANDED)
def test_sweep_matches_lapack(pattern, n):
    # fac*loss/denom up to about 20, the range of a step at a few times
    # the CFL limit, where the two solutions were measured at most 7 ulps
    # apart
    rng = np.random.default_rng(n)
    for _ in range(5):
        P = _banded_exchange(rng, n, pattern)
        loss = P.sum(axis=0)
        denom = 10.0 ** rng.uniform(-0.5, 0.5, n)
        fac = 10.0 ** rng.uniform(-1.0, 1.0)
        M = patankar_matrix(exchange(P), loss, denom, fac)
        assert isinstance(M, CyclicTridiagonal)
        # the bands hold the dense assembly's entries, bit for bit
        A = _dense_assembly(P, loss, denom, fac)
        assert np.array_equal(M.toarray(), A)
        b = 10.0 ** rng.uniform(-1.0, 0.0, n)
        x, x_dense = lu_solve(M, b), np.linalg.solve(A, b)
        assert np.all(np.abs(x - x_dense) <= 16.0 * EPS * x_dense)


@pytest.mark.parametrize("pattern", BANDED)
def test_banded_patankar_systems_stay_positive_and_conservative(pattern):
    # the sweep of test_patankar_systems_stay_positive_and_conservative on
    # the banded patterns: the same ranges, fac*loss/denom <= 1e12 and the
    # same conservation bound
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(BAND_MIN_DIM, 200))
        P = _banded_exchange(rng, n, pattern, lo=-30.0)
        denom = 10.0 ** rng.uniform(-300.0, 3.0, size=n)
        fac = 10.0 ** rng.uniform(-3.0, 8.0)
        with np.errstate(over="ignore"):
            P *= np.minimum(1.0, 1e12 * denom / (fac * np.maximum(P.sum(axis=0), 1e-300)))
        M = patankar_matrix(exchange(P), P.sum(axis=0), denom, fac)
        assert isinstance(M, CyclicTridiagonal)
        b = 10.0 ** rng.uniform(-10.0, 0.0, size=n)
        _assert_positive_and_conservative(M, b, lu_solve(M, b))


@pytest.mark.parametrize("pattern", BANDED)
def test_band_factor_is_kept_and_reused(monkeypatch, pattern):
    # the second solve only substitutes, with the bits of a fresh sweep
    from relax_mprk import linalg

    factors = [0]
    monkeypatch.setattr(linalg, "_sweep", counted(linalg._sweep, factors))
    rng = np.random.default_rng(9)
    n = 100
    P = _banded_exchange(rng, n, pattern)
    args = (exchange(P), P.sum(axis=0), 10.0 ** rng.uniform(-0.5, 0.5, n), 3.0)
    M = patankar_matrix(*args)
    for _ in range(3):
        b = 10.0 ** rng.uniform(-1.0, 0.0, n)
        assert lu_solve(M, b).tobytes() == lu_solve(patankar_matrix(*args), b).tobytes()
    assert factors[0] == 1 + 3


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_band_entry_raises(row, bad):
    bands = np.array([-np.ones(8), 3.0 * np.ones(8), -np.ones(8)])
    bands[row, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        lu_solve(CyclicTridiagonal(bands), np.ones(8))


def test_band_past_inverse_eps_raises_and_never_returns_a_negative_state():
    # once fac*loss/denom passes 1/eps the unit diagonal is lost to
    # rounding: the sweep raises SingularMatrixError instead of returning
    # the negative, non-conservative solution LAPACK gives
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(200):
        n = int(rng.integers(BAND_MIN_DIM, 120))
        P = _banded_exchange(rng, n, BANDED[rng.integers(3)], lo=-3.0, hi=3.0)
        denom = 10.0 ** rng.uniform(-20.0, 0.0, size=n)
        M = patankar_matrix(exchange(P), P.sum(axis=0), denom, 10.0 ** rng.uniform(0.0, 20.0))
        try:
            x = lu_solve(M, 10.0 ** rng.uniform(-10.0, 0.0, size=n))
        except SingularMatrixError as exc:
            assert "fac*loss/denom" in str(exc) and "1/eps" in str(exc)
            raised += 1
            continue
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    assert raised > 0


def test_band_singular_message_names_the_row():
    # a cyclic bidiagonal Patankar matrix with fac*loss/denom = 1e20 in
    # every column: the last pivot cancels to zero
    n = 80
    f = np.full(n, 1e20)
    M = CyclicTridiagonal(np.array([-np.roll(f, 1), 1.0 + f, np.zeros(n)]))
    with pytest.raises(SingularMatrixError,
                       match=r"pivot 0\.000e\+00 in row 79, where "
                             r"fac\*loss/denom = 1\.000e\+20 \(1/eps = 4\.504e\+15\)"):
        lu_solve(M, np.ones(n))


def test_patankar_matrix_is_planned_below_crossover_and_off_band():
    # an entry off the cyclic band at 100 unknowns gives the planned
    # format with its fill, which solves as LAPACK does on the dense array
    rng = np.random.default_rng(4)
    for n, extra in ((BAND_MIN_DIM - 1, None), (100, (0, 50)), (100, (50, 0))):
        P = _banded_exchange(rng, n, "cyclic_tridiagonal")
        if extra is not None:
            P[extra] = 1.0
        loss = P.sum(axis=0)
        M = patankar_matrix(exchange(P), loss, np.ones(n), 0.5)
        assert isinstance(M, PlannedPatankar) and M.plan.n_fill > 0
        A = _dense_assembly(P, loss, np.ones(n), 0.5)
        assert M.toarray().tobytes() == A.tobytes()
        b = 10.0 ** rng.uniform(-1.0, 0.0, n)
        x, x_dense = lu_solve(M, b), np.linalg.solve(A, b)
        assert np.all(x > 0.0)
        assert np.all(np.abs(x - x_dense) <= 16.0 * EPS * x_dense)


def test_package_step_imports_no_scipy():
    # scipy is a test-only dependency: importing it costs the package's
    # set-up time and memory
    import relax_mprk
    src = str(Path(relax_mprk.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import relax_mprk\n"
        "from relax_mprk.problems import cyclic3\n"
        "p = cyclic3()\n"
        "st = relax_mprk.MpStepper(p.sys, relax_mprk.build_scheme('mprk43i', 0.5, 0.75))\n"
        "st.step(0.0, p.u0, 0.1)\n"
        "from relax_mprk.problems import advection_fv\n"
        "p = advection_fv(N=100)\n"
        "st = relax_mprk.MpStepper(p.sys, relax_mprk.build_scheme('mprk22', 1.0))\n"
        "st.step(0.0, p.u0, p.mesh['dx'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
