import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relax_mprk.linalg import SingularMatrixError, lu_solve
from relax_mprk.schemes import patankar_matrix


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


def test_patankar_systems_stay_positive_and_conservative():
    # production matrices with a zero diagonal make every column of the
    # Patankar matrix sum to exactly 1.  Denominators and step factors span
    # the ranges met by stiff and underflowing states; each column is
    # scaled so that fac*loss/denom <= 1e12.  Far beyond that (about
    # 1/eps) the unit diagonal is lost to rounding, the matrix is singular
    # to working precision and no elimination keeps positivity.
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
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
        x = lu_solve(M, b)
        assert np.all(x > 0.0)
        # roundoff in the sum is relative to the fluxes |M| x, not the mass
        assert abs(x.sum() - b.sum()) <= 2.0 * n * eps * np.sum(np.abs(M) @ x)


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
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
