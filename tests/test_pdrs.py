import numpy as np
import pytest

from relax_mprk.pdrs import (PdrsSystem, PositivityError,
                             check_linear_invariant, eval_rhs, split_rhs)
from relax_mprk.problems import lotka_volterra

from helpers import linear_exchange, random_conservative_system


def test_eval_rhs_lotka_volterra():
    sys = lotka_volterra().sys
    # 2*2 - 2*2 = 0 and 2*2 - 2 = 2
    assert np.allclose(eval_rhs(sys, 0.0, np.array([2.0, 2.0])), [0.0, 2.0])


def test_eval_rhs_linear_exchange():
    sys = linear_exchange()
    assert np.allclose(eval_rhs(sys, 0.0, np.array([1.0, 1.0])), [-1.0, 1.0])


def test_eval_rhs_zero_rates():
    def matrix_rates(t, u):
        z = np.zeros((3, 3))
        return z, z.copy(), np.zeros(3), np.zeros(3)

    sys = PdrsSystem(3, matrix_rates, has_rest=False)
    assert np.array_equal(eval_rhs(sys, 0.0, np.ones(3)), np.zeros(3))


def test_eval_rhs_rejects_nonpositive_state():
    sys = linear_exchange()
    with pytest.raises(PositivityError, match=r"u\[1\]"):
        eval_rhs(sys, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(PositivityError):
        eval_rhs(sys, 0.0, np.array([-1.0, 1.0]))


def test_split_rhs_linear_exchange():
    sys = linear_exchange()
    F, rest = split_rhs(sys, 0.0, np.array([1.0, 1.0]))
    assert np.allclose(F[:, 0], [-1.0, 1.0])
    assert np.allclose(F[:, 1], [0.0, 0.0])
    assert np.array_equal(rest, np.zeros(2))


def test_split_rhs_lotka_volterra():
    sys = lotka_volterra().sys
    F, rest = split_rhs(sys, 0.0, np.array([2.0, 2.0]))
    # rest production (2 u1, 0); destruction of species 2 folded into F[1,1]
    assert np.allclose(rest, [4.0, 0.0])
    assert F[1, 1] == pytest.approx(-2.0)


def test_split_rhs_sums_to_eval_rhs():
    rng = np.random.default_rng(5)
    sys = lotka_volterra().sys
    for _ in range(50):
        u = rng.uniform(0.1, 5.0, size=2)
        F, rest = split_rhs(sys, 0.0, u)
        total = F.sum(axis=1) + rest
        f = eval_rhs(sys, 0.0, u)
        assert np.allclose(total, f, rtol=1e-14, atol=1e-14)


def test_conservative_rhs_sums_to_zero():
    rng = np.random.default_rng(9)
    for dim in (2, 4, 6):
        sys = random_conservative_system(rng, dim)
        for _ in range(100):
            u = rng.uniform(0.05, 10.0, size=dim)
            f = eval_rhs(sys, 0.0, u)
            assert abs(f.sum()) <= 1e-13 * max(1.0, np.abs(f).max())


def test_rates_nonnegative_on_random_samples():
    rng = np.random.default_rng(2)
    sys = random_conservative_system(rng, 5)
    for _ in range(200):
        u = rng.uniform(0.01, 10.0, size=5)
        r = sys.rates(0.0, u)
        assert np.all(r.P >= 0.0) and np.all(r.D >= 0.0)
        assert np.all(np.diag(r.P) == 0.0) and np.all(np.diag(r.D) == 0.0)
        assert np.all(r.rest_prod >= 0.0) and np.all(r.rest_dest >= 0.0)


def test_rates_returns_matrix_rates_arrays():
    returned = []

    def matrix_rates(t, u):
        arrays = lotka_volterra().sys.matrix_rates(t, u)
        returned.append(arrays)
        return arrays

    sys = PdrsSystem(2, matrix_rates)
    r = sys.rates(0.0, np.array([1.7, 0.4]))
    assert len(returned) == 1
    # the rate set holds the very arrays matrix_rates returned, uncopied
    got = (r.P, r.D, r.rest_prod, r.rest_dest)
    assert all(a is b for a, b in zip(got, returned[0]))


def test_check_linear_invariant():
    n = np.array([1.0, 1.0])
    assert check_linear_invariant(n, [1.0, 1.0], [0.4, 1.6], 1e-12)
    assert check_linear_invariant(n, [1.0, 1.0], [1.0, 1.0], 1e-12)
    assert not check_linear_invariant(np.array([0.0, 1.0]),
                                      [1.0, 1.0], [0.4, 1.6], 1e-12)


def test_state_shape_validation():
    sys = linear_exchange()
    with pytest.raises(ValueError, match="shape"):
        sys.check_state(np.ones(3))
