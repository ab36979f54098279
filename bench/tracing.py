"""Span tracing of the package's layers, from outside the package.

``Tracer.install`` replaces each layer function with a wrapper at every
place that binds it: the defining module, every ``relax_mprk`` module
that imported it by name (``schemes`` and ``euler`` bind ``lu_solve``
and ``patankar_matrix``, ``control`` binds ``relax_step``, the package
namespace binds most), or the class that owns a method.  ``restore``
puts every original object back.  A wrapper records one span (name id,
start, end, parent span) in preallocated-growth arrays, so tracing a run
costs two clock reads and four appends per call.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

from relax_mprk import control, euler, linalg, means, pdrs, relaxation, schemes

# span name -> (owner, attribute) of the original.  A span name's layer is
# the part before the dot.
LAYER_FUNCTIONS = {
    "linalg.lu_solve": (linalg, "lu_solve"),
    "schemes.step": (schemes, "step"),
    "schemes.patankar_matrix": (schemes, "patankar_matrix"),
    "schemes.gamma_update": (schemes, "gamma_update"),
    "schemes.gamma_update_derivative": (schemes, "gamma_update_derivative"),
    "schemes.sigma_bar": (schemes, "sigma_bar"),
    "relaxation.relax_step": (relaxation, "relax_step"),
    "relaxation.residual_implicit": (relaxation, "residual_implicit"),
    "relaxation.residual_implicit_value": (relaxation, "residual_implicit_value"),
    "control.integrate": (control, "integrate"),
    "control.pid_update": (control, "pid_update"),
    "control.relax_adapt": (control, "relax_adapt"),
    "pdrs.rates": (pdrs.PdrsSystem, "rates"),
    "euler.step": (euler.EulerStepper, "step"),
    "euler.rates": (euler.EulerStepper, "_rates"),
    "means.mean_log": (means, "mean_log"),
    "means.mean_arith": (means, "mean_arith"),
}
# the system's matrix_rates is a per-problem closure, wrapped by
# workloads.build instead of patched
MATRIX_RATES = "problems.matrix_rates"


def _package_modules() -> list:
    return [m for name, m in sys.modules.items()
            if name == "relax_mprk" or name.startswith("relax_mprk.")]


class Tracer:
    """In-memory span recorder with per-call notes for derived counts."""

    def __init__(self):
        self.names = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []
        self.solve_dims = array("l")
        self.relax_iterations = 0
        self.relax_failed = 0
        self.relax_rejects = 0

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped so each call records a span ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, stack = self.name_of, self.parent, self._stack
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, out)
            return out

        traced.__wrapped__ = fn
        traced.bench_span = name
        return traced

    def _notes(self):
        def solve(args, out):
            self.solve_dims.append(len(args[1]))

        def relax(args, out):
            self.relax_iterations += out.iterations
            self.relax_failed += out.status == relaxation.STATUS_FAILED

        def adapt(args, out):
            self.relax_rejects += not args[1]

        return {"linalg.lu_solve": solve, "relaxation.relax_step": relax,
                "control.relax_adapt": adapt}

    def install(self):
        """Wrap every layer function at every binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        notes = self._notes()
        for name, (owner, attr) in LAYER_FUNCTIONS.items():
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, notes.get(name))
            sites = [owner] + [m for m in modules if m is not owner
                               and vars(m).get(attr) is original]
            for site in sites:
                self._patched.append((site, attr, original))
                setattr(site, attr, wrapper)

    def restore(self):
        """Put back every original function replaced by ``install``."""
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    def write(self, path: Path):
        """Save the spans: names, and per span its name id, parent, start
        and end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.array(self.name_of),
                            parent=np.array(self.parent),
                            start=np.array(self.start),
                            end=np.array(self.end))

    def per_name(self) -> dict:
        """{span name: (calls, total seconds, self seconds)}."""
        name = np.array(self.name_of)
        parent = np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child],
                                   minlength=dur.size)
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[n] = (int(sel.sum()), float(dur[sel].sum()),
                      float(self_t[sel].sum()))
        return out


def leftover_wrappers() -> list:
    """Binding sites that still hold a tracer wrapper (empty when clean)."""
    owners = _package_modules() + [pdrs.PdrsSystem, euler.EulerStepper]
    return [f"{getattr(o, '__name__', o)}.{attr}" for o in owners
            for attr, val in vars(o).items() if hasattr(val, "bench_span")]


def layer_metrics(tracer: Tracer, traj, wall_traced: float,
                  wall_untraced: float) -> dict:
    """Per-layer metrics of one traced run (see README for definitions)."""
    pn = tracer.per_name()

    def calls(*names):
        return sum(pn.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(pn.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(pn.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = traj.n_steps
    attempts = steps + traj.n_rejected
    dims = np.array(tracer.solve_dims, dtype=float)
    flops = float(np.sum(2.0 * dims**3 / 3.0 + 2.0 * dims**2))
    solve_s = total("linalg.lu_solve")
    searches = calls("relaxation.relax_step")
    probes = calls("relaxation.residual_implicit",
                   "relaxation.residual_implicit_value")
    self_all = sum(v[2] for v in pn.values())
    return {
        "linalg.solves": dims.size,
        "linalg.solves_per_step": ratio(dims.size, steps),
        "linalg.solve_s": solve_s,
        "linalg.dim": float(dims.mean()) if dims.size else 0.0,
        "linalg.flops_computed": flops,
        "linalg.flop_rate": ratio(flops, solve_s),
        "schemes.base_steps": calls("schemes.step"),
        "schemes.step_self_s": self_s("schemes.step"),
        "schemes.assemblies": calls("schemes.patankar_matrix"),
        "schemes.assembly_s": total("schemes.patankar_matrix"),
        "schemes.gamma_updates": calls("schemes.gamma_update"),
        "schemes.gamma_derivatives": calls("schemes.gamma_update_derivative"),
        "schemes.sigma_bar_calls": calls("schemes.sigma_bar"),
        "relaxation.searches": searches,
        "relaxation.probes": probes,
        "relaxation.probes_per_search": ratio(probes, searches),
        "relaxation.iterations": tracer.relax_iterations,
        "relaxation.failed": tracer.relax_failed,
        "relaxation.success_ratio": ratio(searches - tracer.relax_failed,
                                          searches),
        "relaxation.self_s": self_s("relaxation.relax_step",
                                    "relaxation.residual_implicit",
                                    "relaxation.residual_implicit_value"),
        "control.attempts": attempts,
        "control.rejected_pid": traj.n_rejected - tracer.relax_rejects,
        "control.rejected_relax": tracer.relax_rejects,
        "control.accept_ratio": ratio(steps, attempts),
        "control.pid_updates": calls("control.pid_update"),
        "control.self_s": self_s("control.integrate", "control.pid_update",
                                 "control.relax_adapt"),
        "pdrs.rates_calls": calls("pdrs.rates"),
        "pdrs.self_s": self_s("pdrs.rates"),
        "problems.matrix_rates_calls": calls(MATRIX_RATES),
        "problems.matrix_rates_s": total(MATRIX_RATES),
        "euler.rates_calls": calls("euler.rates"),
        "euler.rates_s": total("euler.rates"),
        "euler.step_self_s": self_s("euler.step"),
        "means.calls": calls("means.mean_log", "means.mean_arith"),
        "means.s": total("means.mean_log", "means.mean_arith"),
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.coverage_frac": self_all / wall_traced,
    }
