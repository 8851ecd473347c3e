"""Spans and counters recorded from outside the program.

The tracer wraps susyfact's public functions.  Each wrapped name is patched
in every `susyfact.*` module namespace that binds it, so calls made from
inside the program are caught as well as calls from the benchmark.  Layer
functions become spans (name, start, end, parent); fine-grained `Poly` calls
and the integrators only feed aggregate counters, because a span per call
would cost more than the call.  Spans stay in memory; `roll_up` turns them
into per-layer self times.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

clock = time.perf_counter

# (module, attribute, span name); "Class.method" patches the class attribute.
SPANS = [
    ("susyfact.extcalc", "homotopy_inverse_delta", "extcalc.homotopy"),
    ("susyfact.opcore", "SecondOrderOperator.exp_conjugate", "opcore.exp_conjugate"),
    ("susyfact.opcore", "SecondOrderOperator.kernel_test", "opcore.kernel_test"),
    ("susyfact.opcore", "SecondOrderOperator.adjoint", "opcore.adjoint"),
    ("susyfact.susy", "construct", "susy.construct"),
    ("susyfact.susy", "check_necessary", "susy.check_necessary"),
    ("susyfact.susy", "assemble_factorization", "susy.assemble_factorization"),
    ("susyfact.susy", "verify_structure", "susy.verify_structure"),
    ("susyfact.susy", "verify_reference_structures", "susy.verify_reference_structures"),
    ("susyfact.models", "reference_bundles", "models.reference_bundles"),
    ("susyfact.models", "make_chain", "models.make_chain"),
    ("susyfact.models", "hamiltonian_p", "models.hamiltonian_p"),
    ("susyfact.spectral", "w_grid_report", "spectral.w_grid_report"),
    ("susyfact.spectral", "F_critical_point", "spectral.F_critical_point"),
    ("susyfact.flow", "heteroclinic_gamma1", "flow.heteroclinic"),
    ("susyfact.flow", "lyapunov_report", "flow.lyapunov"),
    ("susyfact.flow", "quintic_bound_probe", "flow.quintic_probe"),
    ("susyfact.obstruction", "run_obstruction", "obstruction.run_obstruction"),
    ("susyfact.obstruction", "transport_solve", "obstruction.transport_solve"),
    ("susyfact.obstruction", "eigencoords_w2", "obstruction.eigencoords"),
    ("susyfact.obstruction", "invariant_subspace_check", "obstruction.invariant_check"),
    ("susyfact.cli", "_emit", "cli.emit"),
    ("susyfact.cli", "_atomic_write", "cli.emit"),
]

# per-layer metric -> the span whose self times it sums
SPAN_METRICS = {
    "extcalc.homotopy_s": "extcalc.homotopy",
    "opcore.exp_conjugate_s": "opcore.exp_conjugate",
    "opcore.kernel_test_s": "opcore.kernel_test",
    "opcore.adjoint_s": "opcore.adjoint",
    "susy.construct_self_s": "susy.construct",
    "susy.check_necessary_s": "susy.check_necessary",
    "susy.assemble_factorization_s": "susy.assemble_factorization",
    "susy.verify_structure_s": "susy.verify_structure",
    "models.reference_bundles_s": "models.reference_bundles",
    "models.make_chain_s": "models.make_chain",
    "models.hamiltonian_p_s": "models.hamiltonian_p",
    "spectral.w_grid_report_s": "spectral.w_grid_report",
    "flow.heteroclinic_s": "flow.heteroclinic",
    "flow.lyapunov_s": "flow.lyapunov",
    "flow.quintic_probe_s": "flow.quintic_probe",
    "obstruction.run_obstruction_self_s": "obstruction.run_obstruction",
    "obstruction.transport_solve_s": "obstruction.transport_solve",
    "obstruction.eigencoords_s": "obstruction.eigencoords",
    "obstruction.invariant_check_s": "obstruction.invariant_check",
    "cli.main_s": "cli.main",
    "cli.emit_s": "cli.emit",
    "cli.startup_s": "cli.process",
}

COUNTERS = ["polyalg.poly_new", "polyalg.mul_calls", "polyalg.partial_calls",
            "polyalg.mul_s", "polyalg.partial_s", "polyalg.parse_s",
            "polyalg.compiled_evals", "extcalc.homotopy_calls", "susy.construct_calls",
            "spectral.cubic_roots_calls", "flow.ivp_nfev", "flow.ivp_steps",
            "obstruction.ivp_nfev", "obstruction.ivp_steps",
            "flow.heteroclinic_legs", "flow.heteroclinic_orbits"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, i: int):
        self.spans[i][2] = clock()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _span_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- patching
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace(self, module: str, attr: str, make):
        """Replace `module.attr` by make(original) in every susyfact module
        that binds the same object, or on the class for "Class.method"."""
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "susyfact" or name.startswith("susyfact.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._set(m, key, wrapper)

    def install(self):
        import susyfact  # noqa: F401  (loads every module that is patched)
        from susyfact import polyalg

        for module, attr, name in SPANS:
            if module in sys.modules:
                self.replace(module, attr, lambda fn, name=name: self._span_wrapper(fn, name))
        c = self.counters
        Poly = polyalg.Poly

        init = Poly.__dict__["__init__"]

        def poly_init(self_, space, terms):
            c["polyalg.poly_new"] += 1
            init(self_, space, terms)

        def timed(fn, prefix):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    c[prefix + "_s"] += clock() - t0
                    c[prefix + "_calls"] += 1
            return wrapper

        mul = timed(Poly.__dict__["__mul__"], "polyalg.mul")
        self._set(Poly, "__init__", poly_init)
        self._set(Poly, "__mul__", mul)
        self._set(Poly, "__rmul__", mul)
        self._set(Poly, "partial", timed(Poly.__dict__["partial"], "polyalg.partial"))

        compiled = Poly.__dict__["compiled"]

        def counting_compiled(self_):
            f = compiled(self_)

            def g(vals, h=1.0):
                c["polyalg.compiled_evals"] += 1
                return f(vals, h)
            return g

        self._set(Poly, "compiled", counting_compiled)

        self.replace("susyfact.polyalg", "parse_poly", lambda fn: timed(fn, "polyalg.parse"))
        self.replace("susyfact.extcalc", "homotopy_inverse_delta",
                     lambda fn: self._counted(fn, "extcalc.homotopy_calls"))
        self.replace("susyfact.susy", "construct",
                     lambda fn: self._counted(fn, "susy.construct_calls"))
        self.replace("susyfact.spectral", "cubic_roots",
                     lambda fn: self._counted(fn, "spectral.cubic_roots_calls"))
        for module, prefix in (("susyfact.flow", "flow"),
                               ("susyfact.obstruction", "obstruction")):
            mod = sys.modules[module]
            self._set(mod, "solve_ivp", self._ivp_wrapper(mod.solve_ivp, prefix))
        self.replace("susyfact.flow", "heteroclinic_gamma1", self._orbit_counter)

    def _counted(self, fn, counter):
        c = self.counters

        def wrapper(*args, **kwargs):
            c[counter] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _ivp_wrapper(self, fn, prefix):
        c = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            c[prefix + ".ivp_nfev"] += sol.nfev
            c[prefix + ".ivp_steps"] += len(sol.t) - 1
            if tracer.inside("flow.heteroclinic"):
                c["flow.heteroclinic_legs"] += 1
            return sol
        return wrapper

    def _orbit_counter(self, fn):
        c = self.counters

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            c["flow.heteroclinic_orbits"] += 1
            return out
        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------------- export
    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


def merge(parent: dict, child: dict, under: int | None) -> None:
    """Append a child process's spans to `parent`, re-rooted under span
    index `under`.  perf_counter reads CLOCK_MONOTONIC on Linux, so the two
    processes share one time axis."""
    base = len(parent["spans"])
    for name, start, end, p in child["spans"]:
        parent["spans"].append([name, start, end, under if p is None else p + base])
    for k, v in child["counters"].items():
        parent["counters"][k] = parent["counters"].get(k, 0) + v


def roll_up(trace: dict, window: tuple[float, float]) -> dict:
    """Self time per span name, the counters, and the share of `window`
    (the traced round) that root spans cover."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
        if parent is None:
            covered += end - start
    out = {metric: self_time.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    counters = trace["counters"]
    for k in COUNTERS:
        out[k] = counters.get(k, 0)
    orbits = out.pop("flow.heteroclinic_orbits")
    legs = out.pop("flow.heteroclinic_legs")
    out["flow.legs_per_orbit"] = legs / orbits if orbits else 0.0
    out["trace.coverage"] = covered / (window[1] - window[0])
    return out
