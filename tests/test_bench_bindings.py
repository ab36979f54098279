"""The benchmark's hold on the package, checked without running it.

``bench/`` measures the package through names it binds: the layer
functions ``bench/tracing.py`` wraps, the stepper methods
``bench/run.py`` times and the descriptor attributes
``bench/workloads.py`` and ``bench/checks.py`` read.  Renaming or moving
one of them breaks the benchmark but none of the package's own tests;
these tests catch it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from relax_mprk.problems import PROBLEM_FACTORIES, make_problem
from relax_mprk.schemes import build_scheme

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    # tracing.py imports only numpy and the package; loading it by path
    # keeps bench/ off sys.path
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stepper_clock_methods():
    # read with ast: importing run.py imports workloads, which rewrites
    # the thread environment variables
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "StepperClock":
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "METHODS"
                                for t in item.targets)):
                    return ast.literal_eval(item.value)
    raise AssertionError("bench/run.py defines no StepperClock.METHODS")


def test_every_traced_function_is_bound_where_the_tracer_reads_it():
    # Tracer.install reads vars(owner)[attr] of each entry
    for span, (owner, attr) in _tracing().LAYER_FUNCTIONS.items():
        assert attr in vars(owner), span


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
def test_every_problem_has_what_the_benchmark_reads(name):
    problem = make_problem(name)
    # workloads.build and checks.oracle_state read both
    assert hasattr(problem, "sys") and hasattr(problem, "stepper_factory")
    stepper = problem.stepper(build_scheme("mprk22", 1.0))
    methods = _stepper_clock_methods()
    assert methods
    for method in methods:
        assert callable(getattr(stepper, method, None)), method
