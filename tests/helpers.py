"""Shared fixtures-in-code for the test suite: small hand-checkable
systems, a random conservative PDS generator, the wrapping of dense
test arrays into the package's sparse exchange contract and planned
Patankar format, call, solve and factorization counters, the check that a
step's kept matrices serve gamma = 1, and a digest of a whole
trajectory."""

import hashlib
from dataclasses import replace

import numpy as np

from relax_mprk import linalg, schemes
from relax_mprk.linalg import PlannedPatankar
from relax_mprk.pdrs import Exchange, ExchangePattern, PdrsSystem


def exchange(P, pattern=None):
    """The dense test array P as an ``Exchange``: on ``pattern`` if one is
    given (a nonzero of P off it raises), else on the off-diagonal
    nonzeros of P in row-major order.  The diagonal of P never enters."""
    P = np.asarray(P, dtype=float)
    if pattern is None:
        rows, cols = np.nonzero(P)
        off = rows != cols
        pattern = ExchangePattern(rows[off], cols[off], len(P))
    vals = P[pattern.rows, pattern.cols]
    off_diag = P[~np.eye(len(P), dtype=bool)]
    if np.count_nonzero(off_diag) != np.count_nonzero(vals):
        raise ValueError("the test array has a nonzero off the pattern")
    return Exchange(pattern, vals)


def planned(A):
    """The dense test matrix A as a ``PlannedPatankar`` on the pattern of
    its off-diagonal nonzeros (a NaN counts as one), fill slots -0.0."""
    A = np.asarray(A, dtype=float)
    ex = exchange(A)
    plan = ex.pattern.lu_plan
    return PlannedPatankar(A.diagonal().tolist() + ex.vals.tolist()
                           + [-0.0] * plan.n_fill, plan)


def dense_system(dense_rates, support, linear_invariants=()):
    """``PdrsSystem`` from ``dense_rates(t, u) -> (P, rP, rD)`` with a dense
    d x d P; its pattern is the off-diagonal nonzeros of ``support``."""
    pattern = exchange(support).pattern

    def matrix_rates(t, u):
        P, rP, rD = dense_rates(t, u)
        return exchange(P, pattern), rP, rD

    return PdrsSystem(pattern, matrix_rates, linear_invariants)


def linear_exchange():
    """Two-species conservative exchange: p_21 = u_1, nothing else.

    One MPRK22(1) step from (1,1) with dt=1 is fully solvable by hand:
    stage (0.5, 1.5), update (0.4, 1.6).
    """

    def matrix_rates(t, u):
        P = np.zeros((2, 2))
        P[1, 0] = u[0]
        return P, np.zeros(2), np.zeros(2)

    return dense_system(matrix_rates, [[0, 0], [1, 0]], (np.ones(2),))


def bilinear_exchange():
    """Predator-prey style exchange p_21 = u_1 u_2 (no rest terms)."""

    def matrix_rates(t, u):
        P = np.zeros((2, 2))
        P[1, 0] = u[0] * u[1]
        return P, np.zeros(2), np.zeros(2)

    return dense_system(matrix_rates, [[0, 0], [1, 0]], (np.ones(2),))


def random_conservative_system(rng, dim):
    """Dense conservative PDS with bilinear rates p_{k,nu} = c_{k,nu} u_k u_nu."""
    C = rng.uniform(0.1, 2.0, size=(dim, dim))
    np.fill_diagonal(C, 0.0)

    def matrix_rates(t, u):
        P = C * np.outer(u, u)
        np.fill_diagonal(P, 0.0)
        return P, np.zeros(dim), np.zeros(dim)

    return dense_system(matrix_rates, C, (np.ones(dim),))


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


def counted(fn, counts, key=0):
    """``fn`` wrapped to add 1 to ``counts[key]`` on every call."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_factorizations(monkeypatch, counts, key="factors"):
    """Add 1 to ``counts[key]`` on every factorization of a Patankar
    matrix: a plan's interpreted ``LuPlan.factor`` (which its interpreted
    solve and probe call), the solve and probe kernels generated while
    patched (not those generated before; each factors once), and the
    band sweep."""
    exec_source = linalg.LuPlan._exec

    def exec_counted(plan, source, what):
        scope = exec_source(plan, source, what)
        for name in ("solve", "probe"):
            if name in scope:
                scope[name] = counted(scope[name], counts, key)
        return scope

    monkeypatch.setattr(linalg.LuPlan, "factor",
                        counted(linalg.LuPlan.factor, counts, key))
    monkeypatch.setattr(linalg.LuPlan, "_exec", exec_counted)
    monkeypatch.setattr(linalg, "_sweep", counted(linalg._sweep, counts, key))


def count_system_solves(monkeypatch, counts):
    """Add 1 to ``counts["assemblies"]`` on every Patankar matrix a step
    or a gamma-probe assembles, and to ``counts["solves"]`` on every
    solve with one: the step's ``patankar_matrix`` and ``lu_solve``
    calls, a probe's ``solve_at`` (one assembly and one solve per
    system) and a tangent's ``tangent`` (one solve on a kept factor), on
    either format's systems (``linalg.PlannedSystem`` and
    ``linalg.BandSystem``)."""
    patches = [(schemes, "patankar_matrix", ("assemblies",)),
               (schemes, "lu_solve", ("solves",))]
    for system in (linalg.PlannedSystem, linalg.BandSystem):
        patches += [(system, "solve_at", ("assemblies", "solves")),
                    (system, "tangent", ("solves",))]
    for owner, name, keys in patches:
        fn = getattr(owner, name)

        def counted_call(*args, fn=fn, keys=keys, **kwargs):
            for key in keys:
                counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted_call)


def gamma_one_matches_assembly(monkeypatch, rec):
    """Check that the gamma = 1 derivative and sbar of a record from
    ``step`` reuse its kept matrices: no Patankar assembly, no planned
    elimination or band sweep, and the bits of a copy of the record
    whose matrices are assembled again, unfactored, as ``step``
    assembles them."""
    calls = {"assemblies": 0, "factors": 0}
    monkeypatch.setattr(schemes, "patankar_matrix",
                        counted(schemes.patankar_matrix, calls, "assemblies"))
    count_factorizations(monkeypatch, calls)

    def at_one(r):
        du = schemes.gamma_update_derivative(r, 1.0, r.u_next)
        return (du, *schemes.sigma_bar(r, 1.0))

    kept = at_one(rec)
    assert calls == {"assemblies": 0, "factors": 0}

    def assembled(system, denom):
        return system._replace(M=schemes.patankar_matrix(
            system, system.loss, denom, rec.dt))

    # MPRK43I's sigma system has the denominators tau
    tau = rec.sig and rec.logs.geo_mean(rec.scheme.sigma_exp)
    bare = replace(rec, upd=assembled(rec.upd, rec.sigma),
                   sig=rec.sig and assembled(rec.sig, tau))
    for new, old in zip(kept, at_one(bare)):
        assert new.tobytes() == old.tobytes()


def trajectory_digest(traj) -> str:
    """The first 16 hex digits of the sha256 of a trajectory's bytes:
    times, dts, gammas, etas and states, then its statuses joined by
    ``|`` and its reject count.  Equal digests mean equal bits."""
    h = hashlib.sha256()
    for values in (traj.times, traj.dts, traj.gammas, traj.etas,
                   traj.states):
        h.update(np.array(values).tobytes())
    h.update("|".join(traj.statuses).encode())
    h.update(str(traj.n_rejected).encode())
    return h.hexdigest()[:16]
