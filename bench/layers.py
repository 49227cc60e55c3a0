"""Span tracing of vicontrol's layers from outside the package.

`install()` wraps the public functions of each layer (mesh, assembly, vi,
control, harness, cli) and replaces every module binding of the original,
not just the one in the defining module: `from .mesh import interpolate`
leaves a second reference in the importing module that a patch of
`vicontrol.mesh` alone would miss. `ControlProblem` methods are patched on
the class, `spsolve` on `scipy.sparse.linalg` and `savetxt` on `numpy`.

Each wrapped call records one span (name, start, end, parent span, and a few
attributes read from its arguments or result). Spans stay in memory until
the run ends; `layer_metrics()` then reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._open[-1] if self._open else -1, time.perf_counter())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def ancestor(self, span: Span, names) -> Span | None:
        """Nearest enclosing span whose name is in `names`."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name in names:
                return span
        return None

    def outermost(self, name: str) -> list[Span]:
        """Spans called `name` not nested in another span of the same name."""
        return [s for s in self.spans if s.name == name and self.ancestor(s, {name}) is None]

    def total(self, name: str) -> float:
        """Inclusive time of `name`: its outermost spans' durations."""
        return sum(s.duration for s in self.outermost(name))

    def self_time(self, name: str) -> float:
        """Time of `name` spans not covered by their child spans.

        A span's children run one after another inside it, so the time they
        cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return sum(s.duration - covered[i] for i, s in enumerate(self.spans) if s.name == name)


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(value, dtype=float).tobytes()).hexdigest()
    return repr(value)


def _state_key(args, kwargs, result):
    # identifies the discrete problem: mesh, cost parameters and nodal control
    cp = args[0]
    g = args[1] if len(args) > 1 else kwargs["g"]
    warm = (args[2] if len(args) > 2 else kwargs.get("warm_start")) is not None
    mesh = cp.mesh
    return {
        "key": (mesh.nx, mesh.ny, mesh.domain, mesh.gamma1_sides, cp.params, _digest(g)),
        "warm": warm,
    }


def _stiffness_shape(args, kwargs, result):
    return {"nnz": int(result.nnz), "rows": int(result.shape[0])}


def _mesh_shape(args, kwargs, result):
    return {"grid": (result.nx, result.ny), "vertices": int(result.num_vertices)}


def _iterations(args, kwargs, result):
    return {"iters": int(result.iterations), "size": int(result.u.shape[0])}


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0])}


# (module, attribute, span name, attribute reader); "Class.method" patches a class
TARGETS = [
    ("vicontrol.mesh", "build_rectangle_mesh", "mesh.build", _mesh_shape),
    ("vicontrol.mesh", "refine_uniform", "mesh.refine", None),
    ("vicontrol.mesh", "refine_times", "mesh.refine", None),
    ("vicontrol.mesh", "interpolate", "mesh.interpolate", None),
    ("vicontrol.mesh", "prolongate", "mesh.prolongate", None),
    ("vicontrol.assembly", "assemble_stiffness", "assembly.stiffness", _stiffness_shape),
    ("vicontrol.assembly", "assemble_mass", "assembly.mass", None),
    ("vicontrol.assembly", "assemble_boundary_mass", "assembly.boundary", None),
    ("vicontrol.assembly", "assemble_boundary_flux", "assembly.boundary", None),
    ("vicontrol.assembly", "l2_norm", "assembly.norms", None),
    ("vicontrol.assembly", "h1_norm", "assembly.norms", None),
    ("vicontrol.assembly", "boundary_l2_norm", "assembly.norms", None),
    ("vicontrol.vi", "solve_pdas", "vi.pdas", _iterations),
    ("vicontrol.vi", "solve_psor", "vi.psor", _iterations),
    ("vicontrol.vi", "dump_solution", "cli.output", None),
    ("scipy.sparse.linalg", "spsolve", "spsolve", _rows),
    ("vicontrol.control", "ControlProblem.__init__", "control.setup", None),
    ("vicontrol.control", "ControlProblem.solve_state", "control.solve_state", _state_key),
    ("vicontrol.control", "ControlProblem.gradient", "control.gradient", None),
    ("vicontrol.control", "ControlProblem.optimize", "control.optimize",
     lambda args, kwargs, result: {"iters": int(result.iterations)}),
    ("vicontrol.harness", "run_state_convergence", "harness.state_convergence", None),
    ("vicontrol.harness", "run_cost_convergence", "harness.cost_convergence", None),
    ("vicontrol.harness", "run_open_problem_scan", "harness.scan", None),
    ("vicontrol.harness", "write_lines", "cli.output", None),
    ("vicontrol.harness", "write_json", "cli.output", None),
    ("numpy", "savetxt", "cli.output", None),
    ("vicontrol.cli", "main", "cli.main", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each module-level reference to it."""
    packages = [m for n, m in sys.modules.items() if n == "vicontrol" or n.startswith("vicontrol.")]
    for module_name, attr, span_name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), attrs))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, attrs)
        for namespace in {id(m): m for m in packages + [module]}.values():
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, wrapped)


def values(spans: list[Span], key: str) -> list:
    """Attribute `key` of the spans whose call returned (a call that raised has none)."""
    return [s.attrs[key] for s in spans if key in s.attrs]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (seconds) from the recorded spans.

    The control.* and harness.* times are self times: those layers call into
    mesh, assembly and vi, so their inclusive times would move with any of
    those. The other times are inclusive: assembly.norms, for one, includes
    the matrices it assembles when none are passed in, and vi.pdas.rest_s is
    the PDAS time outside spsolve.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    solver_of = {}
    for s in named("spsolve"):
        owner = tracer.ancestor(s, {"vi.pdas", "control.gradient"})
        solver_of.setdefault(owner.name if owner else None, []).append(s)
    pdas_solves = solver_of.get("vi.pdas", [])
    adjoint_solves = solver_of.get("control.gradient", [])

    builds = named("mesh.build")
    stiffness = named("assembly.stiffness")
    pdas = named("vi.pdas")
    psor = named("vi.psor")
    states = named("control.solve_state")
    optimize_iters = sum(values(named("control.optimize"), "iters"))
    trial_solves = sum(
        1 for s in states if s.attrs.get("warm") and tracer.ancestor(s, {"control.optimize"})
    )
    pdas_s = tracer.total("vi.pdas")
    factor_s = sum(s.duration for s in pdas_solves)
    psor_sweeps = sum(values(psor, "iters"))
    psor_s = tracer.total("vi.psor")

    return {
        "mesh.build.calls": len(builds),
        "mesh.build.s": tracer.total("mesh.build"),
        "mesh.build.vertices": sum(values(builds, "vertices")),
        "mesh.interpolate.s": tracer.total("mesh.interpolate"),
        "mesh.prolongate.s": tracer.total("mesh.prolongate"),
        "assembly.stiffness.s": tracer.total("assembly.stiffness"),
        "assembly.mass.s": tracer.total("assembly.mass"),
        "assembly.boundary.s": tracer.total("assembly.boundary"),
        "assembly.norms.s": tracer.total("assembly.norms"),
        "assembly.nnz_per_row": (
            sum(values(stiffness, "nnz")) / sum(values(stiffness, "rows"))
            if values(stiffness, "rows") else 0.0
        ),
        "vi.pdas.calls": len(pdas),
        "vi.pdas.s": pdas_s,
        "vi.pdas.iters": sum(values(pdas, "iters")),
        "vi.pdas.iters_max": max(values(pdas, "iters"), default=0),
        "vi.pdas.factor.calls": len(pdas_solves),
        "vi.pdas.factor_s": factor_s,
        "vi.pdas.factor_rows": sum(values(pdas_solves, "rows")),
        "vi.pdas.rest_s": pdas_s - factor_s,
        "vi.psor.sweeps": psor_sweeps,
        "vi.psor.s": psor_s,
        "vi.psor.s_per_sweep": psor_s / psor_sweeps if psor_sweeps else 0.0,
        "vi.unique_solve_ratio": (
            len(set(values(states, "key"))) / len(states) if states else 0.0
        ),
        "control.solve_state.calls": len(states),
        "control.solve_state.s": tracer.self_time("control.solve_state"),
        "control.setup_s": tracer.self_time("control.setup"),
        "control.gradient.calls": len(named("control.gradient")),
        "control.adjoint.factor_s": sum(s.duration for s in adjoint_solves),
        "control.optimize.iters": optimize_iters,
        "control.optimize.trial_solves": trial_solves,
        "control.optimize.accept_ratio": optimize_iters / trial_solves if trial_solves else 0.0,
        "harness.state_convergence.s": tracer.self_time("harness.state_convergence"),
        "harness.cost_convergence.s": tracer.self_time("harness.cost_convergence"),
        "harness.scan.s": tracer.self_time("harness.scan"),
        "cli.output.s": tracer.total("cli.output"),
    }


def observations(tracer: Tracer) -> list[str]:
    """Solver and mesh facts behind the metrics, one readable line each."""
    lines = []
    iters_by_size: dict[int, list[int]] = {}
    for s in tracer.spans:
        if s.name == "vi.pdas" and s.attrs:
            iters_by_size.setdefault(s.attrs["size"], []).append(s.attrs["iters"])
    for size, iters in sorted(iters_by_size.items()):
        lines.append(f"PDAS iterations on {size} vertices: {iters}")
    states = [s for s in tracer.spans if s.name == "control.solve_state"]
    if states:
        distinct = len(set(values(states, "key")))
        lines.append(f"{len(states)} state solves for {distinct} distinct problems")
    builds: dict[tuple, int] = {}
    for grid in values([s for s in tracer.spans if s.name == "mesh.build"], "grid"):
        builds[grid] = builds.get(grid, 0) + 1
    if builds:
        grids = ", ".join(f"{nx}x{ny} x{n}" for (nx, ny), n in sorted(builds.items()))
        lines.append(
            f"{sum(builds.values())} mesh builds for {len(builds)} distinct meshes: {grids}"
        )
    return lines
