import numpy as np
import pytest

from relax_mprk.pdrs import (NonFiniteStateError, PdrsSystem,
                             PositivityError, RateSet, eval_rhs)
from relax_mprk.problems import PROBLEM_FACTORIES, cyclic3, lotka_volterra
from relax_mprk.schemes import build_scheme, step

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
        return np.zeros((3, 3)), np.zeros(3), np.zeros(3)

    sys = PdrsSystem(3, matrix_rates)
    assert np.array_equal(eval_rhs(sys, 0.0, np.ones(3)), np.zeros(3))


def test_eval_rhs_rejects_nonpositive_state():
    sys = linear_exchange()
    with pytest.raises(PositivityError, match=r"u\[1\]"):
        eval_rhs(sys, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(PositivityError):
        eval_rhs(sys, 0.0, np.array([-1.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_raises_typed_error(bad):
    sys = cyclic3().sys
    u = np.array([0.6, bad, 1.2])
    with pytest.raises(NonFiniteStateError, match=r"u\[1\]"):
        eval_rhs(sys, 0.0, u)
    with pytest.raises(NonFiniteStateError):
        step(sys, build_scheme("mprk22", 1.0), 0.0, u, 0.1)


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
        assert np.all(r.P >= 0.0)
        assert np.all(np.diag(r.P) == 0.0)
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
    got = (r.P, r.rest_prod, r.rest_dest)
    assert all(a is b for a, b in zip(got, returned[0]))


def test_state_shape_validation():
    sys = linear_exchange()
    with pytest.raises(ValueError, match="shape"):
        sys.check_state(np.ones(3))


@pytest.mark.parametrize(
    "name", sorted(n for n in PROBLEM_FACTORIES if n != "euler"))
def test_rate_set_rhs_balances_rest_terms(name):
    # the identity the benchmark's oracle relies on: RateSet built from
    # matrix_rates gives eval_rhs, and the exchanges cancel in its sum
    problem = PROBLEM_FACTORIES[name]()
    rng = np.random.default_rng(17)
    u = problem.u0 * rng.uniform(0.5, 2.0, size=problem.u0.size)
    t = problem.tspan[0]
    P, rP, rD = problem.sys.matrix_rates(t, u)
    f = RateSet(P, rP, rD).rhs
    assert np.array_equal(f, eval_rhs(problem.sys, t, u))
    scale = rP.sum() + rD.sum() + 2.0 * P.sum()
    assert abs(f.sum() - (rP.sum() - rD.sum())) <= 1e-13 * scale
