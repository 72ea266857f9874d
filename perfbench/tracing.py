"""Spans recorded around the public functions of twogridfem, from outside.

A :class:`Tracer` replaces each traced function in every twogridfem module
namespace that binds it (``twogridfem.solvers.pcg_solve`` and
``twogridfem.twogrid.pcg_solve`` are the same function bound twice), and
replaces the callbacks of every ``Problem`` the traced builders return with
``dataclasses.replace``.  Each call records a span: its name, start and end,
its parent span and the vertex count of the mesh it works on.  Spans stay in
memory and are written out when the run ends.  Nothing is wrapped until
:meth:`Tracer.install` runs, so untraced runs call the program unchanged.
"""

import dataclasses
import functools
import importlib
import json
import statistics
import time

MODULES = ("twogridfem", "twogridfem.mesh", "twogridfem.problems",
           "twogridfem.assembly", "twogridfem.solvers", "twogridfem.twogrid",
           "twogridfem.analysis", "twogridfem.cli")

TRACED = (
    "mesh.generate_interface_mesh",
    "mesh.refine_uniform",
    "problems.builtin_problem",
    "problems.manufactured_interface_problem",
    "assembly.assemble_stiffness",
    "assembly.assemble_load",
    "assembly.assemble_reaction_jacobian",
    "assembly.assemble_semilinear_residual",
    "assembly.apply_dirichlet",
    "solvers.pcg_solve",
    "solvers.newton_solve",
    "twogrid.prolongate",
    "twogrid.linearized_solve",
    "twogrid.two_grid_solve",
    "twogrid.nested_newton_solve",
    "analysis.error_norms",
    "analysis.energy_norm",
    "cli.main",
)

PHASE = "bench."

# Computed (not measured) bytes per Jacobi-PCG iteration: one pass over the
# CSR arrays for A @ p plus 27 passes over length-n float64 vectors
# (A @ p in/out, p @ ap, the x and r updates with their temporaries, the
# residual norm, z = minv * r, r @ z, the new p, and the best-iterate copy).
# Cache hits are ignored.
PCG_VECTOR_PASSES = 27

ASSEMBLY_SPANS = {
    "stiffness": "assembly.assemble_stiffness",
    "load": "assembly.assemble_load",
    "jacobian": "assembly.assemble_reaction_jacobian",
    "residual": "assembly.assemble_semilinear_residual",
    "dirichlet": "assembly.apply_dirichlet",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "n_vertices", "info",
                 "error")

    def __init__(self, name, parent, n_vertices):
        self.name = name
        self.parent = parent
        self.n_vertices = n_vertices
        self.start = self.end = 0.0
        self.info = None
        self.error = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index, self_time):
        return {"id": index, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "self": self_time,
                "n_vertices": self.n_vertices, "info": self.info,
                "error": self.error}


def _vertex_count(values):
    """Vertex count of the first mesh, P1 function or matrix among values."""
    for value in values:
        if hasattr(value, "n_vertices") and hasattr(value, "triangles"):
            return int(value.n_vertices)
        mesh = getattr(value, "mesh", None)
        if mesh is not None and hasattr(mesh, "n_vertices"):
            return int(mesh.n_vertices)
        shape = getattr(value, "shape", None)
        if shape is not None and len(shape) == 2 and shape[0] == shape[1]:
            return int(shape[0])
    return None


def _points(args):
    """Number of evaluation points of a problem callback call."""
    state = args[1] if len(args) > 1 else None
    if state is not None and hasattr(state, "size"):
        return int(state.size)
    coords = args[0]
    return int(coords.size // coords.shape[-1]) if coords.ndim else 1


class Tracer:
    """In-memory span recorder installed over twogridfem's namespaces."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def open(self, name, n_vertices=None, info=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, n_vertices)
        span.info = info
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, inspect=None):
        """Return fn recording one span per call under ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, _vertex_count(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                span.error = type(exc).__name__
                if inspect is not None:
                    inspect(span, args, None, exc)
                raise
            tracer.close(span)
            if inspect is not None:
                result = inspect(span, args, result, None)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a twogridfem module binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        inspectors = {
            "mesh.generate_interface_mesh": self._inspect_mesh,
            "mesh.refine_uniform": self._inspect_mesh,
            "problems.builtin_problem": self._inspect_builder,
            "problems.manufactured_interface_problem": self._inspect_builder,
            "assembly.assemble_stiffness": self._inspect_matrix,
            "solvers.pcg_solve": self._inspect_pcg,
            "solvers.newton_solve": self._inspect_newton,
        }
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(
                importlib.import_module(f"twogridfem.{module_name}"), attr)
            wrapped = self.wrap(name, original, inspectors.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def trace_problem(self, problem):
        """Copy of ``problem`` whose callbacks record problems.callback spans."""
        def callback(kind, fn):
            if fn is None:
                return None
            return self.wrap(f"problems.callback.{kind}", fn,
                             self._inspect_callback)

        nl = problem.nonlinearity
        nonlinearity = dataclasses.replace(
            nl, eval=callback("eval", nl.eval), d1=callback("d1", nl.d1))
        return dataclasses.replace(
            problem, nonlinearity=nonlinearity,
            source=callback("source", problem.source),
            interface_flux=callback("flux", problem.interface_flux))

    # -- per-function details ----------------------------------------------

    @staticmethod
    def _inspect_mesh(span, args, result, exc):
        if result is not None:
            span.n_vertices = int(result.n_vertices)
        return result

    def _inspect_builder(self, span, args, result, exc):
        if result is None:
            return result
        if isinstance(result, tuple):
            return (self.trace_problem(result[0]),) + result[1:]
        return self.trace_problem(result)

    @staticmethod
    def _inspect_callback(span, args, result, exc):
        span.info = {"points": _points(args)}
        return result

    @staticmethod
    def _inspect_matrix(span, args, result, exc):
        if result is not None:
            span.info = {"nnz": int(result.nnz)}
        return result

    @staticmethod
    def _inspect_pcg(span, args, result, exc):
        a = args[0]
        report = result[1] if result is not None else getattr(
            exc, "report", None)
        iters = report.iterations if report is not None else 0
        matrix_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        per_iter = matrix_bytes + PCG_VECTOR_PASSES * 8 * a.shape[0]
        span.info = {"iterations": iters, "bytes_computed": iters * per_iter,
                     "budget_hit": exc is not None
                     and type(exc).__name__ == "NoConvergence"}
        return result

    @staticmethod
    def _inspect_newton(span, args, result, exc):
        report = result[1] if result is not None else getattr(
            exc, "report", None)
        span.info = {
            "iterations": report.iterations if report is not None else 0,
            "linear_iterations":
                report.linear_iters_total if report is not None else 0,
        }
        return result

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Span duration minus the time covered by its child spans."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def roots(self):
        """Index of the top-level span that encloses each span."""
        roots = []
        for i, span in enumerate(self.spans):
            roots.append(i if span.parent < 0 else roots[span.parent])
        return roots

    def write(self, path):
        own = self.self_times()
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i, own[i])) + "\n")


def calibrate_overhead(calls=20000):
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    start = time.perf_counter()
    for i in range(calls):
        noop(i)
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(calls):
        traced(i)
    return max(time.perf_counter() - start - bare, 0.0) / calls


def _unit_metrics(spans, own, members):
    """Per-layer sums over the spans of one unit (a set-up or a round)."""
    m = {}
    by_name = {}
    for i in members:
        by_name.setdefault(spans[i].name, []).append(i)

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def under(name, parent_name):
        return [i for i in by_name.get(name, ())
                if spans[i].parent >= 0
                and spans[spans[i].parent].name == parent_name]

    m["mesh.generate_s"] = self_s("mesh.generate_interface_mesh")
    m["mesh.refine_s"] = self_s("mesh.refine_uniform")
    m["mesh.refine_calls"] = calls("mesh.refine_uniform")

    builders = ("problems.builtin_problem",
                "problems.manufactured_interface_problem")
    m["problems.build_s"] = sum(self_s(b) for b in builders)
    cb = [i for i in members
          if spans[i].name.startswith("problems.callback.")]
    m["problems.callback_s"] = sum(own[i] for i in cb)
    m["problems.callback_calls"] = len(cb)
    m["problems.callback_points"] = sum(spans[i].info["points"] for i in cb)

    for key, span_name in ASSEMBLY_SPANS.items():
        m[f"assembly.{key}_s"] = self_s(span_name)
        m[f"assembly.{key}_calls"] = calls(span_name)

    pcg = by_name.get("solvers.pcg_solve", [])
    m["solvers.pcg_s"] = self_s("solvers.pcg_solve")
    m["solvers.pcg_calls"] = len(pcg)
    m["solvers.pcg_iters"] = sum(spans[i].info["iterations"] for i in pcg)
    finest = max((spans[i].n_vertices for i in pcg), default=0)
    m["solvers.pcg_iters_finest"] = sum(
        spans[i].info["iterations"] for i in pcg
        if spans[i].n_vertices == finest)
    m["solvers.pcg_budget_hits"] = sum(
        spans[i].info["budget_hit"] for i in pcg)
    m["solvers.pcg_bytes_computed"] = sum(
        spans[i].info["bytes_computed"] for i in pcg)

    newton = by_name.get("solvers.newton_solve", [])
    m["solvers.newton_self_s"] = self_s("solvers.newton_solve")
    m["solvers.newton_iters"] = sum(
        spans[i].info["iterations"] for i in newton)
    # every Newton solve evaluates one residual before its first step
    m["solvers.linesearch_evals"] = max(
        len(under("assembly.assemble_semilinear_residual",
                  "solvers.newton_solve")) - len(newton), 0)

    coarse = under("solvers.newton_solve", "twogrid.two_grid_solve")
    m["twogrid.coarse_newton_s"] = sum(spans[i].duration for i in coarse)
    m["twogrid.coarse_newton_iters"] = sum(
        spans[i].info["iterations"] for i in coarse)
    m["twogrid.prolongate_s"] = self_s("twogrid.prolongate")
    m["twogrid.prolongate_calls"] = calls("twogrid.prolongate")
    m["twogrid.linearized_s"] = sum(
        spans[i].duration for i in by_name.get("twogrid.linearized_solve", ()))
    m["twogrid.fine_pcg_iters"] = sum(
        spans[i].info["iterations"]
        for i in under("solvers.pcg_solve", "twogrid.linearized_solve"))

    m["analysis.error_norms_s"] = self_s("analysis.error_norms")
    m["analysis.error_norms_calls"] = calls("analysis.error_norms")
    m["analysis.energy_norm_s"] = self_s("analysis.energy_norm")

    m["cli.main_s"] = sum(
        spans[i].duration for i in by_name.get("cli.main", ()))
    m["cli.self_s"] = self_s("cli.main")
    m["trace.spans"] = len(members)
    return m


def layer_metrics(tracer, span_cost):
    """Per-layer metrics of one set-up, reference solve and round.

    Every harness phase span (``bench.*``) carries ``info = {"unit": ...}``
    naming the set-up, reference solve or round it belongs to, as
    ``kind:index``.  Each metric is summed over the spans inside one unit;
    the result adds up the median unit of each kind.  Spans outside phases
    (warm-up, correctness checks) are left out.
    """
    spans = tracer.spans
    own = tracer.self_times()
    units = {}
    for i, root in enumerate(tracer.roots()):
        if spans[root].name.startswith(PHASE):
            units.setdefault(spans[root].info["unit"], []).append(i)
    per_kind = {}
    for unit, members in units.items():
        per_kind.setdefault(unit.split(":")[0], []).append(
            _unit_metrics(spans, own, members))

    metrics = {}
    for key in per_kind["round"][0]:
        metrics[key] = sum(statistics.median(u[key] for u in kind)
                           for kind in per_kind.values())
    metrics["solvers.step_accept_ratio"] = (
        metrics["solvers.newton_iters"] / metrics["solvers.linesearch_evals"]
        if metrics["solvers.linesearch_evals"] else 0.0)
    metrics["mesh.vertices_finest"] = max(
        (s.n_vertices or 0 for s in spans if s.name.startswith("mesh.")),
        default=0)
    metrics["assembly.nnz_finest"] = max(
        (s.info["nnz"] for s in spans
         if s.name == "assembly.assemble_stiffness" and s.info), default=0)
    metrics["trace.overhead_s"] = metrics["trace.spans"] * span_cost
    return metrics


def summary_rows(tracer):
    """Calls, self time and its share of each harness phase, per function.

    Calls and self time are means per unit (one set-up, one round), to
    match the per-layer metrics; shares are of the phase's whole time.  The
    self time of a phase span itself is harness time that no traced call
    covers; it is listed as "(untraced)".
    """
    spans = tracer.spans
    own = tracer.self_times()
    phase_time = {}
    phase_units = {}
    rows = {}
    for i, root in enumerate(tracer.roots()):
        if not spans[root].name.startswith(PHASE):
            continue
        phase = spans[root].name[len(PHASE):]
        name = spans[i].name
        if i == root:
            phase_time[phase] = phase_time.get(phase, 0.0) + spans[i].duration
            phase_units.setdefault(phase, set()).add(spans[i].info["unit"])
            name = "(untraced)"
        elif name.startswith("problems.callback."):
            name = "problems.callback"
        row = rows.setdefault(name, {})
        calls, self_s = row.get(phase, (0, 0.0))
        row[phase] = (calls + (i != root), self_s + own[i])
    result = []
    for name, row in rows.items():
        units = {phase: len(phase_units[phase]) for phase in row}
        result.append({
            "name": name,
            "calls": sum(c / units[p] for p, (c, _) in row.items()),
            "self_s": sum(t / units[p] for p, (_, t) in row.items()),
            "share": {p: t / phase_time[p] for p, (_, t) in row.items()
                      if phase_time[p] > 0},
        })
    result.sort(key=lambda r: -r["self_s"])
    return result, phase_time
