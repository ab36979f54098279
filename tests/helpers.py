"""Shared fixtures-in-code for the test suite: small hand-checkable
systems and a random conservative PDS generator."""

import numpy as np

from relax_mprk.pdrs import PdrsSystem


def linear_exchange():
    """Two-species conservative exchange: p_21 = u_1 = d_12, nothing else.

    One MPRK22(1) step from (1,1) with dt=1 is fully solvable by hand:
    stage (0.5, 1.5), update (0.4, 1.6).
    """

    def matrix_rates(t, u):
        P = np.zeros((2, 2))
        D = np.zeros((2, 2))
        P[1, 0] = D[0, 1] = u[0]
        return P, D, np.zeros(2), np.zeros(2)

    return PdrsSystem(
        2, matrix_rates, has_rest=False, linear_invariants=(np.ones(2),))


def bilinear_exchange():
    """Predator-prey style exchange p_21 = u_1 u_2 = d_12 (no rest terms)."""

    def matrix_rates(t, u):
        P = np.zeros((2, 2))
        D = np.zeros((2, 2))
        P[1, 0] = D[0, 1] = u[0] * u[1]
        return P, D, np.zeros(2), np.zeros(2)

    return PdrsSystem(
        2, matrix_rates, has_rest=False, linear_invariants=(np.ones(2),))


def random_conservative_system(rng, dim):
    """Dense conservative PDS with bilinear rates p_{k,nu} = c_{k,nu} u_k u_nu."""
    C = rng.uniform(0.1, 2.0, size=(dim, dim))
    np.fill_diagonal(C, 0.0)

    def matrix_rates(t, u):
        P = C * np.outer(u, u)
        np.fill_diagonal(P, 0.0)
        return P, P.T.copy(), np.zeros(dim), np.zeros(dim)

    return PdrsSystem(
        dim, matrix_rates, has_rest=False,
        linear_invariants=(np.ones(dim),))


def fd_gradient(eta_eval, u, h=1e-7):
    """Central finite-difference gradient of a scalar functional."""
    u = np.asarray(u, float)
    g = np.zeros_like(u)
    for i in range(len(u)):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (eta_eval(up) - eta_eval(um)) / (2.0 * h)
    return g
