import re

import numpy as np
import pytest

from relax_mprk.pdrs import (Exchange, ExchangePattern, NonFiniteStateError,
                             PdrsSystem, PositivityError, RateSet)
from relax_mprk.problems import PROBLEM_FACTORIES, cyclic3, lotka_volterra
from relax_mprk.schemes import build_scheme, step

from helpers import dense_system, linear_exchange, random_conservative_system


def test_eval_rhs_lotka_volterra():
    sys = lotka_volterra().sys
    # 2*2 - 2*2 = 0 and 2*2 - 2 = 2
    assert np.allclose(sys.rates(0.0, np.array([2.0, 2.0])).rhs, [0.0, 2.0])


def test_eval_rhs_linear_exchange():
    sys = linear_exchange()
    assert np.allclose(sys.rates(0.0, np.array([1.0, 1.0])).rhs, [-1.0, 1.0])


def test_eval_rhs_zero_rates():
    def matrix_rates(t, u):
        return np.zeros((3, 3)), np.zeros(3), np.zeros(3)

    sys = dense_system(matrix_rates, np.zeros((3, 3)))
    assert np.array_equal(sys.rates(0.0, np.ones(3)).rhs, np.zeros(3))


def test_eval_rhs_rejects_nonpositive_state():
    sys = linear_exchange()
    with pytest.raises(PositivityError, match=r"u\[1\]"):
        sys.rates(0.0, np.array([1.0, 0.0]))
    with pytest.raises(PositivityError):
        sys.rates(0.0, np.array([-1.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_raises_typed_error(bad):
    sys = cyclic3().sys
    u = np.array([0.6, bad, 1.2])
    with pytest.raises(NonFiniteStateError, match=r"u\[1\]"):
        sys.rates(0.0, u)
    with pytest.raises(NonFiniteStateError):
        step(sys, build_scheme("mprk22", 1.0), 0.0, u, 0.1)


def test_conservative_rhs_sums_to_zero():
    rng = np.random.default_rng(9)
    for dim in (2, 4, 6):
        sys = random_conservative_system(rng, dim)
        for _ in range(100):
            u = rng.uniform(0.05, 10.0, size=dim)
            f = sys.rates(0.0, u).rhs
            assert abs(f.sum()) <= 1e-13 * max(1.0, np.abs(f).max())


def test_rates_nonnegative_on_random_samples():
    rng = np.random.default_rng(2)
    sys = random_conservative_system(rng, 5)
    for _ in range(200):
        u = rng.uniform(0.01, 10.0, size=5)
        r = sys.rates(0.0, u)
        P = r.P.toarray()
        assert np.all(P >= 0.0)
        assert np.all(np.diag(P) == 0.0)
        assert np.all(r.rest_prod >= 0.0) and np.all(r.rest_dest >= 0.0)


def test_rates_returns_matrix_rates_arrays():
    returned = []

    def matrix_rates(t, u):
        arrays = lotka_volterra().sys.matrix_rates(t, u)
        returned.append(arrays)
        return arrays

    sys = PdrsSystem(lotka_volterra().sys.pattern, matrix_rates)
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
    # matrix_rates gives the system's right-hand side, and the exchanges cancel in its sum
    problem = PROBLEM_FACTORIES[name]()
    rng = np.random.default_rng(17)
    u = problem.u0 * rng.uniform(0.5, 2.0, size=problem.u0.size)
    t = problem.tspan[0]
    P, rP, rD = problem.sys.matrix_rates(t, u)
    f = RateSet(P, rP, rD).rhs
    assert np.array_equal(f, problem.sys.rates(t, u).rhs)
    scale = rP.sum() + rD.sum() + 2.0 * P.vals.sum()
    assert abs(f.sum() - (rP.sum() - rD.sum())) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# The exchange pattern is checked once, when the system is built

def _no_rates(t, u):
    raise AssertionError("a system with a bad pattern must not be evaluated")


@pytest.mark.parametrize("rows, cols, entry", [
    ([1, 3], [0, 1], r"entry 1 at \(3, 1\) lies outside \[0, 3\)"),
    ([1, 0], [0, -1], r"entry 1 at \(0, -1\) lies outside \[0, 3\)"),
])
def test_system_rejects_an_entry_outside_the_matrix(rows, cols, entry):
    with pytest.raises(ValueError, match=entry):
        PdrsSystem(ExchangePattern(rows, cols, 3), _no_rates)


def test_system_rejects_a_diagonal_entry():
    with pytest.raises(ValueError, match=r"entry 2 at \(1, 1\) is on the diagonal"):
        PdrsSystem(ExchangePattern([1, 0, 1], [0, 2, 1], 3), _no_rates)


def test_system_rejects_a_repeated_entry():
    # bincount would add p_10 twice into the loss, the dense scatter once
    with pytest.raises(ValueError,
                       match=r"entries 0 and 3 both sit at \(1, 0\)"):
        PdrsSystem(ExchangePattern([1, 2, 0, 1], [0, 1, 2, 0], 3), _no_rates)


def test_rate_set_rejects_values_of_the_wrong_length():
    pattern = ExchangePattern([1, 2], [0, 1], 3)
    zero = np.zeros(3)
    RateSet(Exchange(pattern, np.ones(2)), zero, zero)
    for bad in (np.ones(3), np.ones(1), np.ones((2, 1))):
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            RateSet(Exchange(pattern, bad), zero, zero)


@pytest.mark.parametrize("d, compiled", [
    pytest.param(2, False, id="planned"),
    pytest.param(2, True, id="planned-compiled"),
    pytest.param(80, False, id="band"),
])
@pytest.mark.parametrize("longer", [pytest.param(False, id="one-entry"),
                                    pytest.param(True, id="d+1-entries")])
def test_step_rejects_rest_terms_of_the_wrong_length(d, compiled, longer):
    # a rest vector of one entry, or of d + 1, was truncated, broadcast to
    # every component or refused with an unrelated message, by format;
    # every format now raises the RateSet's ValueError
    idx = np.arange(d)
    pattern = (ExchangePattern([1], [0], 2) if d == 2
               else ExchangePattern((idx + 1) % d, idx, d))
    if compiled:
        pattern.lu_plan.compile()
    n = d + 1 if longer else 1
    rest = np.full(n, 0.5)

    def matrix_rates(t, u):
        return Exchange(pattern, u[pattern.cols]), rest, np.zeros(d)

    sys = PdrsSystem(pattern, matrix_rates)
    with pytest.raises(ValueError, match=re.escape(
            f"rest terms have shapes ({n},), ({d},); expected ({d},) or "
            f"scalars")):
        step(sys, build_scheme("mprk22", 1.0), 0.0, np.ones(d), 0.1)


def test_rate_set_takes_scalar_rest_terms():
    pattern = ExchangePattern([1], [0], 2)
    r = RateSet(Exchange(pattern, np.ones(1)), 0.0, np.float64(0.0))
    assert np.array_equal(r.rhs, [-1.0, 1.0])
    with pytest.raises(ValueError, match=re.escape("shapes (), ()")):
        RateSet(Exchange(pattern, np.ones(1)), np.array(0.5),
                np.array(0.0))


@pytest.mark.parametrize("rows, cols, dim, what", [
    ([1.5], [0], 2, "dtype float64"),
    ([True], [0], 2, "dtype bool"),
    (["1"], [0], 2, "dtype <U1"),
    ([1], [0.0], 2, "dtype float64"),
    ([1], [0], 2.7, "dim = 2.7"),
    ([1], [0], 2.0, "dim = 2.0"),
    ([1], [0], True, "dim = True"),
    ([1], [0], "2", "dim = '2'"),
])
def test_pattern_rejects_indices_and_dimensions_that_are_not_integers(
        rows, cols, dim, what):
    # an intp array truncates 1.5, True and '1' to row 1, and int() 2.7
    # to 2, without a word
    with pytest.raises(ValueError, match=re.escape(what)):
        ExchangePattern(rows, cols, dim)


def test_empty_pattern_stays_valid():
    # np.asarray([]) is float64, but holds no index to truncate
    for dim in (1, np.int64(3)):
        pattern = ExchangePattern([], [], dim)
        assert pattern.rows.dtype == np.intp and pattern.rows.size == 0
        assert pattern.dim == dim and type(pattern.dim) is int


def test_explicit_block_is_appended_and_may_take_any_sign():
    # d = 2 Patankar components and a k = 3 explicit block
    pattern = ExchangePattern([1], [0], 2)

    def matrix_rates(t, z):
        return (Exchange(pattern, np.array([z[0]])), 0.0, 0.0,
                np.array([z[2], -z[3], 2.0]))

    sys = PdrsSystem(pattern, matrix_rates, explicit_dim=3)
    z = np.array([1.0, 2.0, -0.5, -3.0, 0.0])
    assert sys.dim == 2
    assert sys.check_state(z) is z
    with pytest.raises(ValueError, match=r"expected \(5,\)"):
        sys.check_state(z[:2])
    bad = z.copy()
    bad[1] = 0.0
    with pytest.raises(PositivityError, match=r"u\[1\]"):
        sys.check_state(bad)
    r = sys.rates(0.0, z)
    assert np.array_equal(r.explicit, [-0.5, 3.0, 2.0])
    assert np.array_equal(r.rhs, [-1.0, 1.0, -0.5, 3.0, 2.0])
    assert RateSet(r.P, 0.0, 0.0).rhs.shape == (2,)
