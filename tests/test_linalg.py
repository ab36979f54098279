import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relax_mprk.linalg import (BAND_MIN_DIM, CyclicTridiagonal,
                               SingularMatrixError, lu_solve)
from relax_mprk.schemes import patankar_matrix

EPS = np.finfo(float).eps
BANDED = ("cyclic_bidiagonal", "cyclic_tridiagonal", "tridiagonal")


def test_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(lu_solve(np.eye(3), b), b)


def test_requires_pivoting():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = lu_solve(A, np.array([2.0, 5.0]))
    assert np.allclose(x, [5.0, 2.0])


def test_random_systems_small_residual():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(1, 9)
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = lu_solve(A, b)
        assert np.allclose(A @ x, b, rtol=0, atol=1e-10 * np.abs(b).max())


def test_singular_matrix_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.array([1.0, 1.0]))


def test_zero_row_raises():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
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
    x = lu_solve(A, b)
    assert np.allclose(A @ x, b, rtol=0, atol=1e-9 * np.abs(b).max())


def test_shape_validation():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        lu_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_non_finite_solution_raises():
    A = np.diag([1e-300, 1.0])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.array([1e300, 1.0]))


def _assert_positive_and_conservative(M, b, x):
    n = len(b)
    assert np.all(x > 0.0)
    # roundoff in the sum is relative to the fluxes |M| x, not the mass
    absM = (CyclicTridiagonal(np.abs(M.bands)) if isinstance(M, CyclicTridiagonal)
            else np.abs(M))
    assert abs(x.sum() - b.sum()) <= 2.0 * n * EPS * np.sum(absM @ x)


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
        M = patankar_matrix(P, P.sum(axis=0), denom, fac)
        b = 10.0 ** rng.uniform(-10.0, 0.0, size=n)
        _assert_positive_and_conservative(M, b, lu_solve(M, b))


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
        M = patankar_matrix(P, loss, denom, fac)
        assert isinstance(M, CyclicTridiagonal)
        # the bands hold the dense assembly's entries, bit for bit
        A = np.multiply(P, -fac) / denom
        A.flat[::n + 1] = 1.0 + fac * loss / denom
        assert np.array_equal(M.toarray(), A)
        b = 10.0 ** rng.uniform(-1.0, 0.0, n)
        x, x_dense = lu_solve(M, b), lu_solve(A, b)
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
        M = patankar_matrix(P, P.sum(axis=0), denom, fac)
        assert isinstance(M, CyclicTridiagonal)
        b = 10.0 ** rng.uniform(-10.0, 0.0, size=n)
        _assert_positive_and_conservative(M, b, lu_solve(M, b))


def test_band_product_matches_dense():
    rng = np.random.default_rng(2)
    M = CyclicTridiagonal(rng.normal(size=(3, 50)))
    A = M.toarray()
    v = rng.normal(size=50)
    assert np.allclose(M @ v, A @ v, rtol=0.0,
                       atol=4.0 * EPS * np.max(np.abs(A) @ np.abs(v)))


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
        M = patankar_matrix(P, P.sum(axis=0), denom, 10.0 ** rng.uniform(0.0, 20.0))
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


def test_patankar_matrix_stays_dense_below_crossover_and_off_band():
    rng = np.random.default_rng(4)
    for n, extra in ((BAND_MIN_DIM - 1, None), (100, (0, 50)), (100, (50, 0))):
        P = _banded_exchange(rng, n, "cyclic_tridiagonal")
        if extra is not None:
            P[extra] = 1.0
        M = patankar_matrix(P, P.sum(axis=0), np.ones(n), 0.5)
        assert isinstance(M, np.ndarray) and M.shape == (n, n)


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
