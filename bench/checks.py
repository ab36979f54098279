"""Correctness checks applied to every benchmark run, and the oracle.

The oracle integrates the same semidiscretization with scipy's Radau
method at a tolerance far below the workloads' own error, outside the
timed region.  scipy is imported only here, after the timed runs, so it
adds nothing to the measured set-up time or peak memory.
"""

from __future__ import annotations

import numpy as np

import relax_mprk

ORACLE_RTOL = 1e-8
# absolute tolerance per component, scaled like final_error's norm
ORACLE_ATOL = 1e-11
# a linear invariant may move by this much relative to sum_i |n_i u0_i|
INVARIANT_RTOL = 1e-10


def _periodic_pattern(n_cells: int, blocks: int) -> np.ndarray:
    """Jacobian pattern of a periodic three-point stencil on each block."""
    idx = np.arange(n_cells)
    cell = np.zeros((n_cells, n_cells), dtype=bool)
    for shift in (-1, 0, 1):
        cell[idx, (idx + shift) % n_cells] = True
    return np.tile(cell, (blocks, blocks))


def oracle_state(case, t_final: float) -> np.ndarray:
    """Radau solution of the case's ODE at ``t_final``."""
    from scipy.integrate import solve_ivp

    if case.problem.sys is None:
        # partitioned problem: the stepper owns the semidiscretization
        def fun(t, u):
            return case.stepper.rhs(u)
    else:
        matrix_rates = case.problem.sys.matrix_rates

        def fun(t, u):
            # RateSet, not eval_rhs: Radau's trial points may leave the
            # positive orthant, which eval_rhs rejects
            return relax_mprk.RateSet(*matrix_rates(t, u)).rhs

    pattern = None
    if case.problem.mesh is not None:
        n = case.problem.mesh["N"]
        pattern = _periodic_pattern(n, case.u0.size // n)
    atol = ORACLE_ATOL * np.maximum(1.0, np.abs(case.u0))
    sol = solve_ivp(fun, (case.t0, t_final), case.u0, method="Radau",
                    rtol=ORACLE_RTOL, atol=atol, jac_sparsity=pattern,
                    t_eval=[t_final])
    if sol.status != 0:
        raise RuntimeError(f"oracle failed: {sol.message}")
    return sol.y[:, -1]


def final_error(u: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm error, relative for components whose size exceeds 1."""
    return float(np.max(np.abs(u - ref) / np.maximum(1.0, np.abs(ref))))


def eta_drift(traj) -> float:
    """max_j |eta_j - eta_0| / max(1, |eta_0|) over the stored states."""
    etas = np.asarray(traj.etas)
    return float(np.max(np.abs(etas - etas[0])) / max(1.0, abs(etas[0])))


def check_run(case, traj) -> list:
    """Failure messages for one trajectory; empty when every check holds.

    Checks: the run reached t_end; every stored state is finite and
    positive (the densities, for Euler); the workload's linear invariants
    hold; a relaxed run kept no failed gamma-search and conserved eta to
    the accumulated search tolerance.
    """
    spec = case.spec
    fails = []
    span = spec.t_end - case.t0
    if traj.times[-1] < spec.t_end - 1e-12 * span:
        fails.append(f"stopped at t = {traj.times[-1]!r} < t_end")
    states = np.array(traj.states)
    n_pos = states.shape[1]
    if spec.positive == "density":
        n_pos //= 2
    if not np.all(np.isfinite(states)):
        fails.append("non-finite state")
    elif not np.all(states[:, :n_pos] > 0.0):
        step, comp = np.argwhere(states[:, :n_pos] <= 0.0)[0]
        fails.append(f"non-positive component {comp} at stored step {step}")
    u0 = states[0]
    for i in spec.invariants:
        n = np.asarray(case.stepper.linear_invariants[i], float)
        drift = np.max(np.abs(states @ n - n @ u0))
        if not drift <= INVARIANT_RTOL * float(np.abs(n) @ np.abs(u0)):
            fails.append(f"linear invariant {i} drifted by {drift:.3e}")
    if case.relax is not None:
        if "failed" in traj.statuses:
            fails.append("a failed gamma-search was kept")
        bound = 1.01 * traj.n_steps * case.relax.gamma_tol + 1e-13
        drift = eta_drift(traj)
        if not drift <= bound:
            fails.append(f"eta drift {drift:.3e} exceeds {bound:.3e}")
    return fails


def check_accuracy(case, traj, ref: np.ndarray) -> list:
    """Failure message if the final state misses the workload's accuracy
    against the oracle state ``ref``."""
    err = final_error(traj.states[-1], ref)
    if err <= case.spec.max_final_err:
        return []
    return [f"final error {err:.3e} exceeds {case.spec.max_final_err:g}"]


def same_result(a, b) -> bool:
    """Same counts, final time and byte-identical final state."""
    return ((a.n_steps, a.n_rejected, a.times[-1])
            == (b.n_steps, b.n_rejected, b.times[-1])
            and a.states[-1].tobytes() == b.states[-1].tobytes())
