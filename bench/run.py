"""relax-mprk benchmark: time to a checked solution on four workloads.

    python3 bench/run.py --workload adv_sqrt [--seed 1] [--seconds 28] [--trace 0]
    python3 bench/run.py --workload all --trace 1     # every workload, every metric

One run builds the workload for the seed, integrates a short prefix once
untimed (warm-up), then repeats the full integration until ``--seconds``
have been measured (at least once) and reports its noise floor: per
segment between two stepper calls, the fastest repetition, summed (see
StepperClock).  Set-up is timed in fresh processes between repetitions.
``--trace 1`` instead alternates three untraced and three traced
repetitions (every layer function wrapped) and reports the per-layer
split.  Every run's output is checked (see checks.py); a failed check or
a typed integration error counts as a failed operation and the exit
code is 1.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
Results with the measuring environment, and the spans of a traced run,
are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # first: pins BLAS threads before numpy loads
import numpy as np
import checks
import relax_mprk
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
WARMUP_FRACTION = 0.02
TRACE_PAIRS = 3

# Every end-to-end figure: name -> (unit, better direction, meaning).
# BENCHMARK.json bounds those that are never 0 and repeat across seeds;
# it lists the rest among the per-layer metrics, which have no bound.
END_TO_END = {
    "setup_s": ("s", "lower", "import, problem, scheme and stepper "
                "construction; median of fresh processes"),
    "wall_s": ("s", "lower", "one warm integrate call; per segment "
               "between stepper calls the fastest repetition, summed"),
    "ms_per_step": ("ms", "lower", "wall_s per accepted step"),
    "accepted_steps": ("count", "lower", "accepted steps to t_end"),
    "rejected_frac": ("ratio", "lower", "rejected attempts / all attempts"),
    "relax_fail_frac": ("ratio", "lower", "failed gamma-searches / searches "
                        "(n/a untraced under pid_and_relax)"),
    "final_err": ("1", "lower", "max-norm error vs the Radau oracle, "
                  "relative where |u_i| > 1"),
    "eta_drift": ("1", "lower", "max |eta - eta0| / max(1, |eta0|)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the timed runs"),
}
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
workloads.build(workloads.WORKLOADS[{name!r}], {seed!r})
print(time.perf_counter() - t0)
"""


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter (nothing imported yet)."""
    code = _SETUP_CHILD.format(bench=str(BENCH), name=name, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


class StepperClock:
    """Per-segment wall times of repeated integrate calls on one case.

    Each method of the stepper protocol that the package calls (step,
    error estimate, gamma state and derivative, entropy quadrature) gets
    an instance-level replacement on the case's own stepper that records
    a timestamp and calls the original bound method.  One repetition so
    splits into segments: integrate start to the first stepper call,
    one segment from each stepper call to the next (the call and the
    control or relaxation work after it), and the last to the return.
    Every repetition makes the same calls (runs are byte-identical), so
    each segment has one time per repetition; ``floor_s`` sums, over
    segments, the fastest of them.  The host slows the process in
    bursts from milliseconds to tens of seconds; a segment of
    microseconds to milliseconds is rarely slowed in every repetition,
    so the sum of the fastest segments repeats from run to run where the
    fastest whole repetition does not.  The hooks cost one clock read
    and one append per stepper call, in every repetition alike.
    """

    METHODS = ("step", "error_estimate", "gamma_state",
               "gamma_state_derivative", "entropy_quadrature")

    def __init__(self, stepper):
        self.marks = []
        self.floor = None
        self.same_segments = True
        for name in self.METHODS:
            setattr(stepper, name, self._timed(getattr(stepper, name)))

    def _timed(self, method):
        marks, now = self.marks, time.perf_counter

        def timed(*args, **kwargs):
            marks.append(now())
            return method(*args, **kwargs)

        return timed

    def start(self):
        self.marks.clear()
        self.marks.append(time.perf_counter())

    def stop(self) -> float:
        """End a repetition; return its wall time and fold in its segments."""
        self.marks.append(time.perf_counter())
        segments = np.diff(np.array(self.marks))
        if self.floor is None:
            self.floor = segments
        elif segments.size != self.floor.size:
            self.same_segments = False
        else:
            np.minimum(self.floor, segments, out=self.floor)
        return self.marks[-1] - self.marks[0]

    def floor_s(self) -> float:
        """Sum over segments of the fastest repetition of each."""
        return float(self.floor.sum())


class Operations:
    """Counts integrate calls and their failures."""

    def __init__(self, errors):
        self.errors = errors
        self.attempted = 0
        self.failures = []

    def run(self, label, fn):
        """Call ``fn``; a typed integration error is a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except self.errors as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label, messages):
        if messages:
            self.failures.append(f"{label}: " + "; ".join(messages))


def relax_failures(case, traj):
    """(failed searches, searches) from an untraced run, or None.

    Fixed or PID-only control keeps a failed search as a stored status;
    relax_only control rejects and retries each one.  Under pid_and_relax
    a reject can be either, so only the traced run can tell.
    """
    if case.relax is None:
        return 0, 0
    mode = case.spec.adaptivity
    if mode in ("fixed", "pid"):
        return traj.statuses.count("failed"), traj.n_steps
    if mode == "relax_only":
        return traj.n_rejected, traj.n_steps + traj.n_rejected
    return None


def traced_run(ops, spec, seed: int, label: str):
    """(wall, trajectory, tracer) of one run with every layer wrapped.

    The originals are restored before anything else runs; a wrapper left
    anywhere is a failed check.
    """
    tracer = tracing.Tracer()
    case = workloads.build(spec, seed, wrap_rates=lambda fn: tracer.wrap(
        tracing.MATRIX_RATES, fn))
    try:
        tracer.install()
        t = time.perf_counter()
        traj = ops.run(label, lambda: workloads.integrate(case))
        wall = time.perf_counter() - t
    finally:
        tracer.restore()
    ops.check(label, [f"{site} still wrapped"
                      for site in tracing.leftover_wrappers()])
    return None if traj is None else (wall, traj, tracer)


def measure(spec, seed: int, seconds: float, trace: bool) -> dict:
    ops = Operations((relax_mprk.IntegrationError, ValueError,
                      ArithmeticError, relax_mprk.SingularMatrixError))
    setups = []

    def set_up():
        """One set-up; returns the seconds it took away from the budget."""
        t = time.perf_counter()
        setups.append(setup_seconds(spec.name, seed))
        return time.perf_counter() - t

    case = workloads.build(spec, seed)
    clock = StepperClock(case.stepper)
    warm_end = case.t0 + WARMUP_FRACTION * (spec.t_end - case.t0)
    ops.run("warm-up", lambda: workloads.integrate(case, warm_end))

    walls, traced, first = [], [], None

    def check(label, traj):
        # every run is checked as it ends and compared with the first,
        # and only the first is kept, so memory does not grow with the
        # number of repetitions
        ops.check(label, checks.check_run(case, traj))
        if first is not None and not checks.same_result(first, traj):
            ops.check(label, ["differs from run 0 for the same seed"])

    begin = time.perf_counter()
    while True:
        label = f"run {len(walls)}"
        clock.start()
        traj = ops.run(label, lambda: workloads.integrate(case))
        wall = clock.stop()
        if traj is None:
            break
        walls.append(wall)
        check(label, traj)
        if not clock.same_segments:
            ops.check(label, ["stepper calls differ from run 0"])
        # set-ups are spread evenly over the run, so that their median
        # samples the host's fast and slow phases alike
        while (not trace and len(setups) < SETUP_REPEATS and
               time.perf_counter() - begin >= len(setups) * seconds
               / SETUP_REPEATS):
            begin += set_up()
        if first is None:
            first = traj
        if trace:
            # alternate untraced and traced repetitions, so the overhead
            # compares runs made under the same host conditions
            label = f"traced run {len(traced)}"
            run = traced_run(ops, spec, seed, label)
            if run is None:
                break
            check(label, run[1])
            traced.append(run)
            if len(traced) == TRACE_PAIRS:
                break
        elif time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        set_up()
    if first is None:
        return dict(ops=ops, e2e={}, layers=None, walls=[])

    layers = None
    if traced:
        # per-layer figures of the fastest traced repetition, the one
        # least disturbed by the host
        wall_traced, traj, tracer = min(traced, key=lambda r: r[0])
        tracer.write(OUT / f"spans-{spec.name}-seed{seed}.npz")
        layers = tracing.layer_metrics(tracer, traj, wall_traced, min(walls))

    # every run is byte-identical to the first, so one oracle check
    # covers them all
    ref = checks.oracle_state(case, first.times[-1])
    ops.check("run 0", checks.check_accuracy(case, first, ref))

    steps, rejected = first.n_steps, first.n_rejected
    if layers is not None:
        fails = layers["relaxation.failed"], layers["relaxation.searches"]
    else:
        fails = relax_failures(case, first)
    # the run's noise floor (see StepperClock): the host's slow phases only
    # ever add time, and they can last a whole repetition
    wall = clock.floor_s()
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ms_per_step": 1e3 * wall / steps,
        "accepted_steps": steps,
        "rejected_frac": rejected / (steps + rejected),
        "relax_fail_frac": None if fails is None else (
            fails[0] / fails[1] if fails[1] else 0.0),
        "final_err": checks.final_error(first.states[-1], ref),
        "eta_drift": checks.eta_drift(first),
        "peak_rss_mb": peak_rss_mb,
    }
    if layers is not None:
        layers.update({k: e2e[k] for k in
                       ("rejected_frac", "relax_fail_frac", "eta_drift")})
    return dict(ops=ops, e2e=e2e, layers=layers, walls=walls)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(spec, seed: int, trace: bool, res: dict, env: dict,
           bench: dict) -> dict:
    """Print the human-readable table; return the JSON result."""
    ops = res["ops"]
    print(f"workload {spec.name}  seed {seed}  trace {int(trace)}  "
          f"({spec.why})")
    if res["walls"]:
        w = res["walls"]
        print(f"  {len(w)} timed repetitions: min {min(w):.4f} s, median "
              f"{statistics.median(w):.4f} s, max {max(w):.4f} s, "
              f"per-segment floor {res['e2e']['wall_s']:.4f} s")
    for name, (unit, better, meaning) in END_TO_END.items():
        if name in res["e2e"]:
            print(f"  {name:<30} {_fmt(res['e2e'][name]):>14} {unit:<7} "
                  f"{better} is better; {meaning}")
    for m in bench["per_layer"]:
        if res["layers"] and m["name"] not in END_TO_END:
            print(f"  {m['name']:<30} {_fmt(res['layers'][m['name']]):>14} "
                  f"{m['unit']:<7} {m['better']} is better")
    for msg in ops.failures:
        print(f"  FAILED {msg}")
    print("  env " + json.dumps(env))
    wanted = bench["per_layer" if trace else "end_to_end"]
    source = res["layers"] if trace else res["e2e"]
    metrics = {}
    for m in wanted:
        if source and source.get(m["name"]) is not None:
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    failed = len(ops.failures)
    return {"correct": failed == 0 and len(metrics) == len(wanted),
            "attempted": max(ops.attempted, 1), "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own process; exit 1 if any failed."""
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, timeout=600)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"input seed; 0 = unperturbed u0, {workloads.HELD_OUT_SEED} = "
             "held out for checking a claim")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}, all")
    spec = workloads.WORKLOADS[args.workload]
    res = measure(spec, args.seed, args.seconds, bool(args.trace))
    env = workloads.environment()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = report(spec, args.seed, bool(args.trace), res, env, bench)
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=spec.name, seed=args.seed, env=env,
                  failures=res["ops"].failures, all_metrics=res["e2e"],
                  layers=res["layers"], walls=res["walls"])
    out = OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
