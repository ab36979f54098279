"""The benchmark's hold on the package, checked without running it.

``bench/`` measures the package through names it binds: the layer
functions ``bench/tracing.py`` wraps, the stepper methods
``bench/run.py`` times, the descriptor attributes
``bench/workloads.py`` and ``bench/checks.py`` read, and the names the
bench files load from the package itself.  Renaming or moving
one of them breaks the benchmark but none of the package's own tests;
these tests catch it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import relax_mprk
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
    # the calls workloads.build makes: the factory with the scheme as its
    # one argument, or MpStepper on the problem's system
    scheme = build_scheme("mprk22", 1.0)
    stepper = (problem.stepper_factory(scheme) if problem.stepper_factory
               else relax_mprk.MpStepper(problem.sys, scheme))
    methods = _stepper_clock_methods()
    assert methods
    for method in methods:
        assert callable(getattr(stepper, method, None)), method


def test_every_package_name_the_benchmark_loads_is_exported():
    # relax_mprk.<name>, also through another module's binding of the
    # package (workloads.relax_mprk.<name>)
    loaded = {(path.name, node.attr) for path in sorted(BENCH.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and "relax_mprk" in (getattr(node.value, "id", None),
                                   getattr(node.value, "attr", None))}
    assert {name for _, name in loaded} >= {"RateSet", "integrate"}
    missing = {(f, n) for f, n in loaded if n not in relax_mprk.__all__}
    assert not missing, f"bench/ loads unexported names: {sorted(missing)}"
