"""Command-line experiment runner.

Subcommands:

* ``run``          integrate one problem and write a per-step CSV;
* ``convergence``  error/order table over a halving fixed-step ladder;
* ``list``         registered problems, methods, relax modes and solvers.

Exit codes: 0 success, 1 integration failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .control import (ADAPT_FIXED, ADAPT_MODES, IntegrationError, check_run,
                      integrate, interp_state)
from .linalg import SingularMatrixError
from .pdrs import NonFiniteStateError, PositivityError
from .problems import PROBLEM_FACTORIES, make_problem
from .relaxation import RELAX_MODES, SOLVERS, RelaxConfig
from .schemes import (SCHEME_KINDS, SIGMA_MODES, SchemeParameterError,
                      UnsupportedSchemeError, build_scheme)

CSV_HEADER = "step,t,dt,gamma,relax_status,eta,inv1,inv2,err_ref"

_RELAX_ALIASES = {"clamped": "clamped_dissipative"}


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_value(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def parse_problem_spec(spec: str):
    """'pme:m=3,N=160' -> ('pme', {'m': 3, 'N': 160})."""
    name, _, rest = spec.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"problem parameter {item!r} is not key=value")
            kwargs[key.strip()] = _parse_value(val.strip())
    return name.strip(), kwargs


def parse_method_spec(spec: str):
    """'mprk43i:0.5,0.75' -> ('mprk43i', 0.5, 0.75)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        params = [float(p) for p in rest.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"method parameters of {spec!r}: {exc}") from exc
    if kind == "mprk22":
        if len(params) != 1:
            raise ConfigError("mprk22 takes exactly one parameter: mprk22:alpha")
        return kind, params[0], None
    if kind in ("mprk43i", "mpssprk2"):
        if len(params) != 2:
            raise ConfigError(
                f"{kind} takes two parameters: {kind}:alpha,beta")
        return kind, params[0], params[1]
    raise ConfigError(f"unknown method {kind!r}; known: {', '.join(SCHEME_KINDS)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relax-mprk",
        description="Positivity-preserving MPRK integration with entropy "
                    "relaxation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True,
                       help="name[:key=value,...], e.g. pme:m=3,N=160")
        p.add_argument("--method", default=None,
                       help="kind:params, e.g. mprk22:1 or mprk43i:0.5,0.75")
        p.add_argument("--relax", default=None,
                       choices=sorted(set(RELAX_MODES) | set(_RELAX_ALIASES)))
        p.add_argument("--solver", default=None, choices=SOLVERS)
        p.add_argument("--sigma-mode", default=None,
                       choices=sorted(set().union(*SIGMA_MODES.values())))
        p.add_argument("--dt0", type=float, default=None)
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--rtol", type=float, default=None)
        p.add_argument("--atol", type=float, default=None)
        p.add_argument("--adapt", default=None, choices=ADAPT_MODES)
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--seed", type=int, default=0)

    run_p = sub.add_parser("run", help="integrate once and write a CSV")
    add_common(run_p)
    run_p.add_argument("--dump-state", action="store_true",
                       help="also write full solution vectors to state.csv")

    conv_p = sub.add_parser("convergence",
                            help="error/order table over a dt ladder")
    add_common(conv_p)
    conv_p.add_argument("--levels", type=int, default=5,
                        help="number of step-size halvings (>= 1)")

    sub.add_parser("list", help="print the registry")
    return parser


def _resolve(args):
    """Resolve problem, stepper, relax config and time grid from flags;
    a flag or problem parameter out of range, or an ``--out`` in a
    directory that does not exist, raises ConfigError."""
    out_dir = os.path.dirname(args.out or "") or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"--out directory {out_dir!r} does not exist")
    name, kwargs = parse_problem_spec(args.problem)
    try:
        problem = make_problem(name, **kwargs)
    except KeyError as exc:
        raise ConfigError(str(exc).strip("'\"")) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for problem {name!r}: {exc}") from exc

    method = (parse_method_spec(args.method) if args.method
              else problem.defaults["method"])
    scheme = build_scheme(*method, sigma_mode=args.sigma_mode)

    relax_mode = args.relax or problem.defaults["relax"]
    relax_mode = _RELAX_ALIASES.get(relax_mode, relax_mode)
    solver = args.solver or problem.defaults["solver"]
    relax_cfg = RelaxConfig(mode=relax_mode, solver=solver,
                            **problem.defaults.get("relax_opts", {}))

    # flags win over per-problem defaults
    if args.adapt is None:
        args.adapt = problem.defaults.get("adapt", ADAPT_FIXED)
    if args.rtol is None:
        args.rtol = problem.defaults.get("rtol", 1e-6)
    if args.atol is None:
        args.atol = problem.defaults.get("atol", 1e-6)

    stepper = problem.stepper(scheme)

    t0, t_end_default = problem.tspan
    t_end = args.t_end if args.t_end is not None else t_end_default
    dt0 = args.dt0 if args.dt0 is not None else problem.defaults["dt0"]
    try:
        check_run(problem.eta, relax_cfg, t0, t_end, dt0, args.rtol,
                  args.atol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, scheme, stepper, relax_cfg, t0, t_end, dt0


def _write_metadata(path, args, problem, scheme, relax_cfg, t0, t_end, dt0):
    lines = {
        "version": __version__,
        "problem": problem.name,
        "mesh": repr(problem.mesh),
        "method": scheme.kind,
        "alpha": _fmt(scheme.alpha),
        "beta": "" if np.isnan(scheme.beta) else _fmt(scheme.beta),
        "relax": relax_cfg.mode,
        "solver": relax_cfg.solver,
        "sigma_mode": args.sigma_mode or "default",
        "gamma_tol": _fmt(relax_cfg.gamma_tol),
        "gamma_min": _fmt(relax_cfg.gamma_min),
        "gamma_max": _fmt(relax_cfg.gamma_max),
        "max_iters": str(relax_cfg.max_iters),
        "t0": _fmt(t0),
        "t_end": _fmt(t_end),
        "dt0": _fmt(dt0),
        "rtol": _fmt(args.rtol),
        "atol": _fmt(args.atol),
        "adapt": args.adapt,
        "seed": str(args.seed),
    }
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in lines.items():
            fh.write(f"{key}={val}\n")


def _trajectory_rows(traj, invs, reference):
    rows = []
    for k in range(len(traj.times)):
        t, u = traj.times[k], traj.states[k]
        cols = [str(k), _fmt(t), _fmt(traj.dts[k]), _fmt(traj.gammas[k]),
                traj.statuses[k], _fmt(traj.etas[k])]
        cols.append(_fmt(invs[0] @ u) if len(invs) > 0 else "")
        cols.append(_fmt(invs[1] @ u) if len(invs) > 1 else "")
        if reference is not None:
            cols.append(_fmt(np.max(np.abs(u - reference(t)))))
        else:
            cols.append("")
        rows.append(",".join(cols))
    return rows


def cmd_run(args) -> int:
    problem, scheme, stepper, relax_cfg, t0, t_end, dt0 = _resolve(args)
    eta = problem.eta
    traj = integrate(stepper, eta, relax_cfg, t0, problem.u0, t_end, dt0,
                     adaptivity=args.adapt, rtol=args.rtol, atol=args.atol)

    invs = list(stepper.linear_invariants)[:2]
    rows = _trajectory_rows(traj, invs, problem.reference)
    out = args.out or f"{problem.name}_run.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    _write_metadata(out + ".meta", args, problem, scheme, relax_cfg, t0,
                    t_end, dt0)
    if args.dump_state:
        state_path = os.path.join(os.path.dirname(out) or ".", "state.csv")
        with open(state_path, "w", encoding="utf-8", newline="\n") as fh:
            dim = len(problem.u0)
            fh.write("step,t," + ",".join(f"u{i}" for i in range(dim)) + "\n")
            for k in range(len(traj.times)):
                vals = ",".join(_fmt(v) for v in traj.states[k])
                fh.write(f"{k},{_fmt(traj.times[k])},{vals}\n")
    print(f"wrote {out} ({traj.n_steps} steps, {traj.n_rejected} rejected)")
    return 0


_CACHE_DIR = ".relax_mprk_cache"


def _oracle_reference(problem, t0, t_end, dt_fine):
    """The last two rows of a fine-step third-order trajectory, cached
    on disk by configuration: every level ends past the oracle's
    second-to-last time, so ``interp_state`` reads no other row."""
    key = hashlib.sha256(
        f"{problem.name}|{problem.mesh}|{len(problem.u0)}|{t0}|{t_end}|"
        f"{dt_fine}".encode()).hexdigest()[:24]
    path = os.path.join(_CACHE_DIR, f"ref_{key}.npz")
    if os.path.exists(path):
        data = np.load(path)
        return data["ts"], data["us"]
    oracle = problem.stepper(build_scheme("mprk43i", 0.5, 0.75))
    traj = integrate(oracle, None, None, t0, problem.u0, t_end, dt_fine)
    ts, us = np.array(traj.times[-2:]), np.array(traj.states[-2:])
    os.makedirs(_CACHE_DIR, exist_ok=True)
    np.savez_compressed(path, ts=ts, us=us)
    return ts, us


def cmd_convergence(args) -> int:
    # under step control dt0 would only set the first step of each level
    if args.adapt not in (None, ADAPT_FIXED):
        raise ConfigError(f"convergence halves a fixed step; --adapt "
                          f"{args.adapt} is not {ADAPT_FIXED}")
    args.adapt = ADAPT_FIXED
    problem, scheme, stepper, relax_cfg, t0, t_end, dt0 = _resolve(args)
    if args.levels < 1:
        raise ConfigError("--levels must be at least 1")
    dts = [dt0 / 2**k for k in range(args.levels)]

    if problem.reference is not None:
        def ref_at(t):
            return problem.reference(t)
    else:
        ts, us = _oracle_reference(problem, t0, t_end, min(dts) / 100.0)

        def ref_at(t):
            return interp_state(ts, us, t)

    eta = problem.eta
    results = []
    for dt in dts:
        traj = integrate(stepper, eta, relax_cfg, t0, problem.u0, t_end, dt,
                         adaptivity=args.adapt, rtol=args.rtol,
                         atol=args.atol)
        t_f, u_f = traj.times[-1], traj.states[-1]
        err = float(np.max(np.abs(u_f - ref_at(t_f))))
        gdev = float(np.max(np.abs(np.array(traj.gammas[1:]) - 1.0))) \
            if traj.n_steps else 0.0
        results.append((dt, err, gdev))

    lines = ["dt,error,order,gamma_dev"]
    print(f"{'dt':>12} {'error':>14} {'order':>8} {'max|gamma-1|':>14}")
    prev_err = None
    for dt, err, gdev in results:
        order = (np.log2(prev_err / err) if prev_err is not None and err > 0
                 else None)
        order_s = f"{order:.3f}" if order is not None else ""
        print(f"{dt:>12.6g} {err:>14.6e} {order_s:>8} {gdev:>14.6e}")
        lines.append(f"{_fmt(dt)},{_fmt(err)},{order_s},{_fmt(gdev)}")
        prev_err = err
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_list() -> int:
    print("problems:")
    for name in sorted(PROBLEM_FACTORIES):
        problem = make_problem(name)
        d = problem.defaults
        kind, alpha, beta = d["method"]
        params = f"{alpha:g}" if beta is None else f"{alpha:g},{beta:g}"
        print(f"  {name:<16} default: {kind}:{params} relax={d['relax']} "
              f"solver={d['solver']} dt0={d['dt0']:g}")
    print("methods: " + ", ".join(SCHEME_KINDS))
    print("relax modes: " + ", ".join(RELAX_MODES))
    print("solvers: " + ", ".join(SOLVERS))
    print("sigma modes (default first): " + "; ".join(
        f"{kind}: {', '.join(modes)}" for kind, modes in SIGMA_MODES.items()))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "run":
            return cmd_run(args)
        return cmd_convergence(args)
    except (ConfigError, SchemeParameterError, UnsupportedSchemeError,
            KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, NonFiniteStateError, PositivityError,
            SingularMatrixError) as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
