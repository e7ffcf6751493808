"""Spans around calls into qwire's public functions, recorded from outside.

``Tracer.install`` replaces every binding of a traced function in the qwire
modules (``spectral.find_eigenvalues`` and the name ``edge`` imported from it
alike) with a wrapper, so a call is caught wherever its caller looks it up.
Nothing in ``src/qwire`` is edited.

Spans are kept in memory and written out by ``Tracer.write`` when the run
ends.  Expression evaluations are too frequent for one span each (millions
per round on variable coefficients): they are aggregated per call site into
counts and seconds, and their time is still charged to the enclosing span's
children so that every self time excludes it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, public function) pairs that get a span each
SPANNED = {
    "domain": ["validate_domain", "lagrange_form"],
    "bc": ["make_dirichlet", "make_neumann", "make_quasiperiodic", "make_u2",
           "cayley_to_unitary", "unitary_to_cayley", "cayley_degeneracy",
           "admissible_subspace", "make_wire", "verify_wire", "compose",
           "random_unitary", "isotropy_residual"],
    "odesolve": ["fundamental_solutions", "free_exponential_basis"],
    "spectral": ["spectral_matrix", "spectral_function", "boundary_wronskian",
                 "find_eigenvalues", "eigenfunctions", "evolve", "deficiency_indices"],
    "curves": ["eigenangle_flow", "cayley_index", "det_winding"],
    "edge": ["rotate_bc", "edge_scan", "collar_fraction"],
    "oracle": ["fd_spectrum", "robin_edge_groundstate"],
    "cli": ["run", "load_config", "read_matrix", "read_curve", "write_matrix",
            "write_curve", "format_spectrum"],
}
CLI_PARSE = {"cli.load_config", "cli.read_matrix", "cli.read_curve"}


class Tracer:
    """Records spans (id, parent, op, name, start, end) for the traced calls."""

    def __init__(self):
        self.on = False
        self.op = "setup"
        self.spans: list[tuple] = []
        self.leaf = defaultdict(lambda: [0, 0.0])     # name -> [calls, seconds]
        self.counters = defaultdict(float)
        self._stack: list[list] = []                 # [span id, start, child seconds]

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op, name, frame[1], end, frame[2])
                if stack:
                    stack[-1][2] += end - frame[1]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        stack, clock, acc = self._stack, time.perf_counter, self.leaf[name]

        @functools.wraps(fn)
        def wrapper(*args):
            if not self.on:
                return fn(*args)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    stack[-1][2] += dt
        return wrapper

    def install(self, qwire) -> None:
        """Wrap the traced functions of a freshly imported qwire package."""
        modules = {name: getattr(qwire, name) for name in SPANNED}
        modules["expr"] = qwire.expr
        replace = {}
        for mod, names in SPANNED.items():
            for fname in names:
                fn = getattr(modules[mod], fname)
                replace[fn] = self._span(f"{mod}.{fname}", fn, self._hooks(mod, fname, fn))
        evaluate = qwire.expr.evaluate
        compile_fn = qwire.expr.compile_fn
        replace[evaluate] = self._leaf("expr.evaluate", evaluate)

        @functools.wraps(compile_fn)
        def traced_compile(e):
            return self._leaf("expr.compiled", compile_fn(e))
        replace[compile_fn] = traced_compile

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(mod, attr, replace[value])

    def _hooks(self, mod, fname, fn):
        """Counters read off a call's arguments or result, for the ratio metrics."""
        if (mod, fname) == ("spectral", "find_eigenvalues"):
            def count_eigs(args, kwargs, spectrum):
                self.counters["spectral.eigs"] += sum(e.multiplicity for e in spectrum.eigs)
            return count_eigs
        if (mod, fname) == ("edge", "edge_scan"):
            def count_t(args, kwargs, scan):
                self.counters["edge.t_values"] += len(scan.t_values)
            return count_t
        if (mod, fname) == ("oracle", "fd_spectrum"):
            sig = inspect.signature(fn)

            def dense_bytes(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                sizes = [a["N"], 2 * a["N"]] if a["extrapolate"] else [a["N"]]
                # the assembled stiffness matrix is dense complex128
                self.counters["oracle.dense_bytes"] += sum(
                    16.0 * (a["domain"].n * (res + 1)) ** 2 for res in sizes)
            return dense_bytes
        return None

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures over everything recorded (one set-up, one round)."""
        spans = [s for s in self.spans if s is not None]
        by_id = {s[0]: s for s in spans}
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        outer_s = defaultdict(float)    # time of spans with no same-module ancestor
        inside_edge_finds = 0
        for sid, parent, _op, name, start, end, child in spans:
            calls[name] += 1
            self_s[name] += end - start - child
            incl_s[name] += end - start
            module = name.split(".")[0]
            names_up = []
            p = parent
            while p != -1:
                names_up.append(by_id[p][3])
                p = by_id[p][1]
            if not any(n.split(".")[0] == module for n in names_up):
                outer_s[module] += end - start
            if name == "spectral.find_eigenvalues" and "edge.edge_scan" in names_up:
                inside_edge_finds += 1
            if name in CLI_PARSE and not any(n in CLI_PARSE for n in names_up):
                outer_s["cli.parse"] += end - start
        ev_calls, ev_s = self.leaf["expr.evaluate"]
        comp_calls, comp_s = self.leaf["expr.compiled"]
        ode_calls = calls["odesolve.fundamental_solutions"]
        eigs = self.counters["spectral.eigs"]
        t_values = self.counters["edge.t_values"]
        out = {
            "expr.evaluate_calls": (ev_calls, "count"),
            "expr.evaluate_s": (ev_s, "s"),
            "expr.compiled_calls": (comp_calls, "count"),
            "expr.compiled_s": (comp_s, "s"),
            "domain.validate_s": (outer_s["domain"], "s"),
            "bc.s": (outer_s["bc"], "s"),
            "odesolve.calls": (ode_calls, "count"),
            "odesolve.self_s": (self_s["odesolve.fundamental_solutions"], "s"),
            "odesolve.ms_per_call": (
                1e3 * self_s["odesolve.fundamental_solutions"] / ode_calls if ode_calls else 0.0,
                "ms"),
            "spectral.find_calls": (calls["spectral.find_eigenvalues"], "count"),
            "spectral.find_self_s": (self_s["spectral.find_eigenvalues"], "s"),
            "spectral.matrix_calls": (calls["spectral.spectral_matrix"], "count"),
            "spectral.matrix_self_s": (self_s["spectral.spectral_matrix"], "s"),
            "spectral.matrix_calls_per_eig": (
                calls["spectral.spectral_matrix"] / eigs if eigs else 0.0, "count"),
            "spectral.eigenfunctions_calls": (calls["spectral.eigenfunctions"], "count"),
            "spectral.eigenfunctions_self_s": (self_s["spectral.eigenfunctions"], "s"),
            "spectral.evolve_s": (incl_s["spectral.evolve"], "s"),
            "edge.scan_self_s": (self_s["edge.edge_scan"], "s"),
            "edge.find_calls_per_t": (inside_edge_finds / t_values if t_values else 0.0,
                                      "count"),
            "curves.index_s": (outer_s["curves"], "s"),
            "cli.parse_s": (outer_s["cli.parse"], "s"),
            "cli.format_s": (self_s["cli.run"], "s"),
            "oracle.fd_calls": (calls["oracle.fd_spectrum"], "count"),
            "oracle.fd_s": (outer_s["oracle"], "s"),
            "oracle.dense_bytes_computed": (self.counters["oracle.dense_bytes"], "B"),
            "trace.spans": (len(spans), "count"),
        }
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per aggregated leaf."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, child in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end,
                                     "self": end - start - child}) + "\n")
            for name, (n, s) in self.leaf.items():
                fh.write(json.dumps({"leaf": name, "calls": n, "seconds": s}) + "\n")


def purge_qwire() -> None:
    """Drop qwire from the module cache so the next import runs it afresh."""
    for name in [m for m in sys.modules if m == "qwire" or m.startswith("qwire.")]:
        del sys.modules[name]
