"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Kept out of the package's default test collection (the file name does
not match test_*.py) because it integrates every workload.  The runs are
shortened so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import workloads  # first: pins BLAS threads before numpy loads
import numpy as np
import pytest

import checks
import run
import tracing

# end times of the shortened runs: a few steps of each workload
SHORT_END = {"adv_sqrt": 0.04, "euler_pid": 0.05, "strat_pid": 13.0 * 3600.0,
             "lv_relax": 20.0}


def short_case(name, seed=workloads.DEFAULT_SEED, **kwargs):
    spec = replace(workloads.WORKLOADS[name], t_end=SHORT_END[name])
    return workloads.build(spec, seed, **kwargs)


def binding_sites():
    """Every (owner, attribute) that holds a layer function, and the object."""
    modules = tracing._package_modules()
    sites = []
    for owner, attr in tracing.LAYER_FUNCTIONS.values():
        original = vars(owner)[attr]
        sites += [(site, attr, original) for site in [owner] + modules
                  if vars(site).get(attr) is original]
    return sites


def test_tracer_wraps_every_site_and_restores_originals():
    before = binding_sites()
    # the by-name imports the tracer must reach
    names = {(getattr(s, "__name__", ""), a) for s, a, _ in before}
    for site in [("relax_mprk.schemes", "lu_solve"),
                 ("relax_mprk.euler", "lu_solve"),
                 ("relax_mprk.euler", "patankar_matrix"),
                 ("relax_mprk.control", "relax_step")]:
        assert site in names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for site, attr, original in before:
            assert getattr(site, attr) is not original
        workloads.integrate(short_case("euler_pid"))
    finally:
        tracer.restore()
    for site, attr, original in before:
        assert vars(site)[attr] is original
    assert tracing.leftover_wrappers() == []
    assert tracer.per_name()["linalg.lu_solve"][0] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_matches_untraced(name):
    plain = workloads.integrate(short_case(name))
    tracer = tracing.Tracer()
    case = short_case(name, wrap_rates=lambda fn: tracer.wrap(
        tracing.MATRIX_RATES, fn))
    tracer.install()
    try:
        traced = workloads.integrate(case)
    finally:
        tracer.restore()
    assert checks.same_result(plain, traced)
    layers = tracing.layer_metrics(tracer, traced, 1.0, 1.0)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    unbounded = set(run.END_TO_END) - {m["name"] for m in bench["end_to_end"]}
    assert set(layers) | unbounded == {m["name"] for m in bench["per_layer"]}
    assert layers["control.attempts"] == traced.n_steps + traced.n_rejected


def test_same_seed_same_result_and_seeds_differ():
    a = workloads.integrate(short_case("lv_relax", seed=3))
    b = workloads.integrate(short_case("lv_relax", seed=3))
    assert checks.same_result(a, b)
    u0 = {s: short_case("adv_sqrt", seed=s).u0 for s in (0, 1, 2)}
    make_problem = workloads.relax_mprk.make_problem
    assert np.array_equal(u0[0], make_problem("advection", N=100,
                                              entropy_kind="sqrt").u0)
    assert not np.array_equal(u0[1], u0[2])
    assert np.all(u0[1] > 0.0)


def test_stepper_clock_keeps_results_and_floors_each_segment():
    plain = workloads.integrate(short_case("euler_pid"))
    case = short_case("euler_pid")
    clock = run.StepperClock(case.stepper)
    walls = []
    for _ in range(3):
        clock.start()
        traj = workloads.integrate(case)
        walls.append(clock.stop())
        assert checks.same_result(plain, traj)
    assert clock.same_segments
    # one segment per stepper call, plus the one after the last call
    assert clock.floor.size == len(clock.marks) - 1
    assert clock.floor.size > traj.n_steps + traj.n_rejected
    assert 0.0 < clock.floor_s() <= min(walls)
    # a run that makes other calls is flagged
    clock.start()
    workloads.integrate(case, t_end=0.5 * SHORT_END["euler_pid"])
    clock.stop()
    assert not clock.same_segments


def _corrupt(traj, **changes):
    out = replace(traj)
    out.states = [s.copy() for s in traj.states]
    out.etas = list(traj.etas)
    out.statuses = list(traj.statuses)
    for key, fn in changes.items():
        fn(getattr(out, key))
    return out


def test_checks_fail_on_corrupted_results():
    case = short_case("adv_sqrt")
    traj = workloads.integrate(case)
    ref = checks.oracle_state(case, traj.times[-1])
    assert checks.check_run(case, traj) == []
    assert checks.check_accuracy(case, traj, ref) == []

    def negative(states):
        states[1][3] = -1e-3

    def mass(states):
        states[-1][0] += 1e-6

    def status(statuses):
        statuses[1] = "failed"

    def eta(etas):
        etas[-1] += 1e-6

    def inaccurate(states):
        states[-1] *= 1.5

    def last_bit(states):
        states[-1][0] = np.nextafter(states[-1][0], np.inf)

    for what, fn in [("states", negative), ("states", mass),
                     ("statuses", status), ("etas", eta)]:
        assert checks.check_run(case, _corrupt(traj, **{what: fn})), fn
    assert checks.check_accuracy(case, _corrupt(traj, states=inaccurate), ref)
    assert not checks.same_result(traj, _corrupt(traj, states=last_bit))


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] in run.END_TO_END:
            assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]][:2]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


def test_refuses_to_run_without_the_package():
    # a checkout holding only the benchmark: it must fail, printing no result
    root = run.OUT / "bare"
    shutil.rmtree(root, ignore_errors=True)
    (root / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    for f in run.BENCH.glob("*.py"):
        shutil.copy(f, root / "bench")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "lv_relax", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=root, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
