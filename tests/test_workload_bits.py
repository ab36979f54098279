"""The benchmark's workloads, pinned bit for bit.

``bench/workloads.py`` builds each workload from the package's public
API, as ``bench/run.py`` measures it.  A change that moves one bit of a
workload's trajectory, or one of its step or reject counts, fails here,
before any timing is compared.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from helpers import trajectory_digest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# workload: (digest at seed 1, accepted steps, rejected attempts)
PINNED = {
    "adv_sqrt": ("e0e117e8df78524a", 10, 0),
    "euler_pid": ("b000c644aeb6ca46", 30, 3),
    "strat_pid": ("ce972c9fca80e92f", 4150, 12),
    "lv_relax": ("ce7a80666dfd53c4", 789, 105),
}


@pytest.fixture(scope="module")
def workloads():
    # loaded by path, so bench/ stays off sys.path (its dataclasses look
    # their module up in sys.modules while it loads); importing it sets
    # the BLAS thread variables and may put src/ on sys.path, and both
    # are put back as they were
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path
        for name in module.__dict__.get("THREAD_VARS", ()):
            if name in environ:
                os.environ[name] = environ[name]
            else:
                os.environ.pop(name, None)
    return module


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_keeps_its_bits(workloads, name):
    case = workloads.build(workloads.WORKLOADS[name], workloads.DEFAULT_SEED)
    traj = workloads.integrate(case)
    assert (trajectory_digest(traj), traj.n_steps,
            traj.n_rejected) == PINNED[name]
