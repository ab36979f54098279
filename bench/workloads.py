"""Benchmark workloads: what each one integrates and why it was chosen.

Every workload drives the package only through its public API
(``make_problem``, ``build_scheme``, ``MpStepper`` or the problem's
``stepper_factory``, ``RelaxConfig``, ``integrate``).  The package
receives nothing but the generated initial state.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads its libraries, so they
# must be set before the first numpy import anywhere in the process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Optional  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# measure the checkout's own sources, never an installed copy
if not (SRC / "relax_mprk" / "__init__.py").is_file():
    raise ImportError(f"no relax_mprk sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import relax_mprk  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Default relative size of the seeded multiplicative perturbation of u0:
# small enough that every seed keeps the workload's character (step
# counts move by a few percent at most), large enough that no seed
# reproduces another.
PERTURBATION = 0.01
# Modes of the smooth periodic perturbation applied to mesh problems, so
# that no seed adds grid-scale noise to a finite-volume state.
MESH_MODES = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark case: problem, method, relaxation and step control.

    ``dt0`` None means one mesh width.  ``invariants`` indexes the
    stepper's ``linear_invariants`` that the run must preserve;
    ``positive`` is "all" or "density" (first half of a partitioned
    [rho; m] state).  ``max_final_err`` is the accuracy the run must
    reach against the oracle, set to about three times the error the
    seed commit reaches: it catches a broken integration, not a change
    in the last digits.  ``perturbation`` scales the seeded change of u0.
    """

    name: str
    why: str
    problem: str
    method: tuple
    adaptivity: str
    t_end: float
    max_final_err: float
    problem_kwargs: dict = field(default_factory=dict)
    relax: Optional[dict] = None
    dt0: Optional[float] = None
    rtol: float = 1e-6
    atol: float = 1e-6
    invariants: tuple = ()
    positive: str = "all"
    perturbation: float = PERTURBATION


WORKLOADS = {w.name: w for w in (
    Workload(
        name="adv_sqrt",
        why="dense N=100 solves and a bracketing gamma-search: MPRK43I "
            "with bootstrap sigma and regula falsi, 28 solves per fixed "
            "step; the linalg-bound case",
        problem="advection", problem_kwargs=dict(N=100, entropy_kind="sqrt"),
        method=("mprk43i", 0.5, 0.75),
        relax=dict(mode="implicit", solver="regula_falsi"),
        adaptivity="fixed", t_end=0.2, invariants=(0,),
        max_final_err=0.005),
    Workload(
        name="euler_pid",
        why="the only case running the partitioned Euler stepper and log "
            "means; Newton relaxation builds M_gamma twice per iteration;"
            " PID control with rejects",
        problem="euler", problem_kwargs=dict(N=100),
        method=("mprk22", 1.0, None),
        relax=dict(mode="implicit", solver="newton"),
        adaptivity="pid_and_relax", rtol=1e-3, atol=1e-3, t_end=0.125,
        invariants=(0, 1), positive="density", max_final_err=0.03),
    Workload(
        name="strat_pid",
        why="d=6 stiff chemistry, noon to midnight, PID without "
            "relaxation: per-call overhead in rates, assembly and "
            "control; relaxation changes must not move it",
        problem="stratospheric", method=("mprk22", 1.0, None),
        adaptivity="pid", rtol=1e-3, atol=1e-3, dt0=0.01 * 3600.0,
        # noon to midnight: day, sunset and night.  A window holding a whole
        # night and the next day lets the controller step from one night
        # into the next, skipping the day, for about half of all seeds
        t_end=24.0 * 3600.0,
        # O(1D) relaxes to quasi-equilibrium in ~2e-7 s, below the
        # controller's dt floor; a 1e-2 change of u0 moves it far enough
        # off that the first step underflows
        perturbation=1e-4,
        # n2 (the second invariant) is not preserved by an unrelaxed MP
        # step; its drift (eta_drift, ~0.24) dominates the final error
        invariants=(0,), max_final_err=0.75),
    Workload(
        name="lv_relax",
        why="d=2 with rest terms where gamma-searches fail in steady "
            "state (relax_only), so the shrink-and-retry path and tiny "
            "solves dominate",
        problem="lotka_volterra", method=("mprk22", 1.0, None),
        relax=dict(mode="implicit", solver="newton"),
        adaptivity="relax_only", dt0=1.0, t_end=50.0,
        # the grow-until-fail, shrink-and-retry sequence is chaotic in u0:
        # a 1e-4 change of u0 moves the step count by up to 15 %, so a
        # larger perturbation would make the totals a function of the seed
        perturbation=1e-6,
        # relaxation bounds the predator-prey phase error but does not
        # remove it: the error grows to orbit size over longer spans
        max_final_err=0.5),
)}


@dataclass(frozen=True)
class Case:
    """A workload built for one seed: ready to integrate."""

    spec: Workload
    problem: object
    stepper: object
    relax: Optional[object]
    u0: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.problem.tspan[0])

    @property
    def dt0(self) -> float:
        if self.spec.dt0 is not None:
            return self.spec.dt0
        return self.problem.mesh["dx"]


def perturb(spec: Workload, u0: np.ndarray, seed: int,
            mesh: Optional[dict]) -> np.ndarray:
    """u0 times a positive factor exp(spec.perturbation * z) from ``seed``.

    Seed 0 returns u0 unchanged.  ODE states get one normal draw per
    component; mesh states get, per block of N cells (rho and m for
    Euler), a smooth periodic field of MESH_MODES Fourier modes with
    unit variance.
    """
    u0 = np.array(u0, dtype=float)
    if seed == 0:
        return u0
    rng = np.random.default_rng(seed)
    if mesh is None:
        z = rng.standard_normal(u0.size)
    else:
        n = mesh["N"]
        x = (np.arange(n) + 0.5) / n
        k = np.arange(1, MESH_MODES + 1)[:, None]
        blocks = []
        for _ in range(u0.size // n):
            amp = rng.standard_normal((MESH_MODES, 1))
            phase = rng.uniform(0.0, 2.0 * np.pi, (MESH_MODES, 1))
            field_ = np.sum(amp * np.sin(2.0 * np.pi * k * x + phase), axis=0)
            blocks.append(field_ * np.sqrt(2.0 / MESH_MODES))
        z = np.concatenate(blocks)
    return u0 * np.exp(spec.perturbation * z)


def build(spec: Workload, seed: int,
          wrap_rates: Optional[Callable] = None) -> Case:
    """Construct problem, scheme, stepper and relaxation config for a seed.

    ``wrap_rates``, if given, replaces the system's ``matrix_rates`` with
    ``wrap_rates(matrix_rates)`` (used by the traced run).
    """
    problem = relax_mprk.make_problem(spec.problem, **spec.problem_kwargs)
    scheme = relax_mprk.build_scheme(*spec.method)
    if problem.stepper_factory is not None:
        stepper = problem.stepper_factory(scheme)
    else:
        sys_ = problem.sys
        if wrap_rates is not None:
            sys_ = replace(sys_, matrix_rates=wrap_rates(sys_.matrix_rates))
        stepper = relax_mprk.MpStepper(sys_, scheme)
    relax = relax_mprk.RelaxConfig(**spec.relax) if spec.relax else None
    return Case(spec, problem, stepper, relax,
                perturb(spec, problem.u0, seed, problem.mesh))


def integrate(case: Case, t_end: Optional[float] = None):
    """Run ``relax_mprk.integrate`` on the case (to ``t_end`` if given).

    The package attribute is looked up at call time so the traced run
    sees the wrapped function.
    """
    s = case.spec
    return relax_mprk.integrate(
        case.stepper, case.problem.eta, case.relax, case.t0, case.u0,
        s.t_end if t_end is None else t_end, case.dt0,
        adaptivity=s.adaptivity, rtol=s.rtol, atol=s.atol)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD commit read from the checkout's .git, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Software and hardware the result was measured on."""
    # imported here, not at the top, so that the set-up time measured in
    # fresh processes (run.setup_seconds) does not include them
    import platform
    from importlib import metadata
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(ROOT),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
