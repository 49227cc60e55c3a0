"""Command-line front end: solve | optimize | sweep | scan.

Configuration lives in a YAML file (key: value tree, see docs/config.md);
command-line flags override file values. Exit codes: 0 success, 1 invalid
configuration, 2 solver non-convergence, 3 experiment assertion failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from . import harness
from .assembly import l2_norm
from .control import ControlProblem, CostParams
from .harness import write_json, write_lines
from .mesh import SIDES, Mesh, build_rectangle_mesh
from .vi import SolverError, dump_solution

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_ASSERTION = 3


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    """A finite int or float; bools and ints beyond the float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _list_of(check, length=None):
    return lambda v: (
        isinstance(v, (list, tuple))
        and (length is None or len(v) == length)
        and all(map(check, v))
    )


# Value check per RunConfig field annotation; q and g are checked by make_field_spec.
FIELD_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[float, float, float, float]": ("a list of 4 finite numbers", _list_of(_is_number, 4)),
    "tuple[str, ...]": ("a list of strings", _list_of(lambda v: isinstance(v, str))),
    "tuple[float, ...]": ("a list of finite numbers", _list_of(_is_number)),
}


@dataclass
class RunConfig:
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    nx: int = 8
    ny: int = 8
    gamma1_sides: tuple[str, ...] = ("left",)
    b: float = 1.0
    q: object = dc_field(default_factory=lambda: {"type": "constant", "value": 0.0})
    g: object = dc_field(default_factory=lambda: {"type": "constant", "value": 0.0})
    M: float = 1.0
    solver: str = "pdas"
    tol: float = 1e-10
    levels: int = 4
    oracle_extra_levels: int = 2
    optimize_levels: int = 4
    trials: int = 50
    mu_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    seed: int = 0
    amplitude: float = 10.0
    sweep_control: bool = False
    out: str = "out"

    def validate(self, command: str) -> tuple[object, object]:
        """Reject a config that `command` cannot run, naming its keys; return the q and g specs.

        Checks that need a mesh, fields or levels run only once the values they read are valid.
        """
        problems = []
        if self.nx < 1 or self.ny < 1:
            problems.append(f"nx/ny must be >= 1 (got nx={self.nx}, ny={self.ny})")
        if not self.gamma1_sides:
            problems.append("gamma1_sides must be nonempty")
        for side in self.gamma1_sides:
            if side not in SIDES:
                problems.append(f"gamma1_sides contains unknown side {side!r}")
        x0, y0, x1, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            problems.append(f"domain rectangle is degenerate: {self.domain}")
        if self.b < 0:
            problems.append(f"b must be >= 0 (got b={self.b})")
        if self.M <= 0:
            problems.append(f"M must be > 0 (got M={self.M})")
        if self.solver not in ("psor", "pdas"):
            problems.append(f"solver must be psor or pdas (got {self.solver!r})")
        if self.tol <= 0:
            problems.append(f"tol must be > 0 (got tol={self.tol})")
        if min(self.levels, self.optimize_levels, self.oracle_extra_levels) < 1:
            problems.append("levels, optimize_levels and oracle_extra_levels must be >= 1")
        if self.trials < 1:
            problems.append(f"trials must be >= 1 (got trials={self.trials})")
        if self.seed < 0:
            problems.append(f"seed must be >= 0 (got seed={self.seed})")
        if not self.mu_grid:
            problems.append("mu_grid must be nonempty")
        for mu in self.mu_grid:
            if not 0.0 <= mu <= 1.0:
                problems.append(f"mu_grid value {mu} outside [0, 1]")
        if self.amplitude < 0:
            problems.append(f"amplitude must be >= 0 (got amplitude={self.amplitude})")
        elif self.amplitude > sys.float_info.max / 2:  # uniform draws need 2 * amplitude
            problems.append(f"amplitude={self.amplitude!r}: the range 2*amplitude overflows")
        if problems:
            raise ConfigError("; ".join(problems))

        # the finest mesh a command builds is the base mesh or, in a sweep, the oracle `depth`
        # refinements past it; 2**20 cells bound it, as one 1024x1024 PDAS solve takes 1.6 GB
        depth, keys = 0, "nx/ny"
        if command == "sweep":
            depth = max(self.levels, self.optimize_levels if self.sweep_control else 1)
            depth += self.oracle_extra_levels - 1
            extra = "/optimize_levels" if self.sweep_control else ""
            keys += f"/levels/oracle_extra_levels{extra}"
        if self.nx * self.ny > 2**20 >> 2 * depth:  # (nx 2**depth)(ny 2**depth) > 2**20
            finest = f"the {self.nx}x{self.ny} mesh" + (f" refined {depth} times" if depth else "")
            raise ConfigError(f"{keys}: {finest} has more than 2**20 cells")

        # parse q and g once, and bound |q| and |g| over the domain and the controls a scan draws
        specs, sup = {}, {"q": 0.0, "g": 0.0, "amplitude": self.amplitude}
        vertices = (self.nx + 1) * (self.ny + 1)
        for name in ("q", "g"):
            try:
                spec = specs[name] = make_field_spec(getattr(self, name))
                if isinstance(spec, np.ndarray):
                    # every sweep level interpolates q and g on its own mesh: a nodal file cannot
                    if command == "sweep":
                        raise ConfigError("sweep needs a functional spec (constant/affine/gauss)")
                    if spec.shape != (vertices,):
                        raise ConfigError(f"nodal file has {spec.size} values, mesh has {vertices}")
                # an affine field takes its extremes at the corners, a gauss at its peak
                values = np.ravel(spec) if not callable(spec) else np.array(
                    [spec(x, y) for x in (x0, x1) for y in (y0, y1)] + [getattr(spec, "peak", 0.0)]
                )
                if not np.isfinite(values).all():
                    raise ConfigError("value at a corner of the domain or a node is not finite")
                sup[name] = float(np.abs(values).max(initial=0.0))
            except (ConfigError, ArithmeticError) as exc:
                problems.append(f"{name}: {exc}")
        g_key = max(("g", "amplitude"), key=sup.get)
        dx, dy = (x1 - x0) / self.nx, (y1 - y0) / self.ny
        cell = (dx * dx, dy * dy, dx * dy)  # areas and stiffness entries need these normal
        # grid lines as build_rectangle_mesh places them on the finest mesh, which hold those of
        # the coarser meshes: line k of n cells is line k * 2**d of n * 2**d, as fl(k*step) scales
        axes = ((x0, x1, self.nx << depth), (y0, y1, self.ny << depth))
        if not all(sys.float_info.min <= v <= sys.float_info.max for v in cell):
            problems.append(f"domain/nx/ny: cells of {dx!r} x {dy!r} leave the float range")
        elif not all(np.all(np.diff(np.linspace(lo, hi, n + 1)) > 0) for lo, hi, n in axes):
            problems.append(
                f"domain/nx/ny: grid lines of the {self.nx}x{self.ny} mesh refined {depth} times "
                "coincide in floating point"
            )
        # a row of |A| sums to at most 4 (dx/dy + dy/dx): bounds A u for u = b, the lift
        elif 4 * float(self.b) * (dx / dy + dy / dx) > sys.float_info.max:
            problems.append(f"b={self.b!r} makes the Dirichlet lift A b overflow")
        # rows of M_H sum to at most dx*dy, those of the Gamma2 mass to max(dx, dy)
        elif not dx * dy * sup[g_key] + max(dx, dy) * sup["q"] <= sys.float_info.max:
            problems.append(f"{g_key}, q: the load M_H g - F_q overflows on {dx!r} x {dy!r} cells")
        # optimize and sweep evaluate the cost of g: M/2 ||g||^2 <= M/2 |domain| sup|g|^2
        if command in ("optimize", "sweep") and (
            0.5 * self.M * (x1 - x0) * (y1 - y0) * sup["g"] * sup["g"] > sys.float_info.max
        ):
            problems.append("domain, g, M: the control term M/2 ||g||^2 of the cost overflows")
        if problems:
            raise ConfigError("; ".join(problems))
        return specs["q"], specs["g"]


def make_field_spec(spec):
    """Turn a q/g specification into a constant, a callable or a nodal array.

    Accepted forms: a plain number; {type: constant, value}; {type: affine,
    a, bx, cy}; {type: gauss, amplitude, x0, y0, sigma}; {type: file, path}.
    """
    if _is_number(spec):
        return float(spec)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"field spec must be a number or a mapping with 'type', got {spec!r}")
    kind = spec["type"]

    def number(key, default):
        value = spec.get(key, default)
        if not _is_number(value):
            raise ConfigError(f"{kind} field {key!r} must be a finite number, got {value!r}")
        return float(value)

    if kind == "constant":
        return number("value", 0.0)
    if kind == "affine":
        a, bx, cy = number("a", 0.0), number("bx", 0.0), number("cy", 0.0)
        return lambda x, y: a + bx * x + cy * y
    if kind == "gauss":
        amp, x0, y0 = number("amplitude", 1.0), number("x0", 0.5), number("y0", 0.5)
        sigma = number("sigma", 0.1)
        if sigma <= 0:
            raise ConfigError(f"gauss sigma must be > 0, got {sigma}")
        gauss = lambda x, y: amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * sigma**2))
        gauss.peak = amp  # its value at (x0, y0), where |gauss| is largest
        return gauss
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("file spec requires 'path', a file name")
        try:
            return np.loadtxt(path, ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read nodal file {path}: {exc}") from exc
    raise ConfigError(f"unknown field type {kind!r}")


def load_config(
    path: str | None, overrides: dict, command: str
) -> tuple[RunConfig, object, object]:
    """The config for `command`, with its q and g specs; raises ConfigError naming a bad key."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    fields = RunConfig.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(map(str, unknown))}")
    for key, value in data.items():
        kind = FIELD_KINDS.get(fields[key].type)
        if kind is not None and not kind[1](value):
            raise ConfigError(f"{key} must be {kind[0]}, got {value!r}")
    cfg = RunConfig(**data)
    return (cfg, *cfg.validate(command))


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create the output directory: {exc}") from exc
    snapshot = asdict(cfg)
    with open(out / "config.yaml", "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(snapshot, fh, sort_keys=True)
    return out


def cmd_solve(cfg: RunConfig, out: Path, mesh: Mesh, params: CostParams, g, quiet: bool) -> int:
    cp = ControlProblem(mesh, params)
    failure = None
    try:
        sol = cp.solve_state(g)
    except SolverError as exc:
        if exc.solution is None:
            raise
        sol, failure = exc.solution, exc
    dump_solution(mesh, sol, out / "solution.csv")
    write_json(
        out / "diagnostics.json",
        {
            "converged": bool(sol.converged),
            "iterations": sol.iterations,
            "complementarity_residual": sol.complementarity_residual,
            "active_set_size": int(sol.active_set.size),
            "method": sol.method,
            "vertices": mesh.num_vertices,
        },
    )
    if failure is not None:  # the outputs above are written first
        raise failure
    if not quiet:
        print(
            f"solved in {sol.iterations} iterations, "
            f"active set {sol.active_set.size}/{cp.dofs.free_nodes.size} free nodes"
        )
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out: Path, mesh: Mesh, params: CostParams, g, quiet: bool) -> int:
    cp = ControlProblem(mesh, params)
    res = cp.optimize(g)
    u0_norm = l2_norm(cp.solve_state(np.zeros(mesh.num_vertices)).u, mesh, cp.mass)
    trace = ["iteration,cost,gradient_norm,step,active_set_size"]
    for row in res.trace:
        trace.append(
            f"{row['iteration']},{row['cost']!r},{row['gradient_norm']!r},"
            f"{row['step']!r},{row['active_set_size']}"
        )
    write_lines(out / "trace.csv", trace)
    # the bytes np.savetxt writes, formatted from Python floats
    write_lines(out / "control.txt", ["%.18e" % v for v in res.control.tolist()])
    dump_solution(mesh, res.state, out / "state.csv")
    report = cp.cost(res.control, res.state)
    write_json(
        out / "cost_report.json",
        {
            "cost": report.cost,
            "state_term": report.state_term,
            "control_term": report.control_term,
            "gradient_norm": res.gradient_norm,
            "iterations": res.iterations,
            "converged": bool(res.converged),
            "control_norm": l2_norm(res.control, mesh, cp.mass),
            "control_norm_bound": u0_norm / params.weight,
        },
    )
    if not res.converged:  # the outputs above are written first
        raise SolverError(res.failure())
    if not quiet:
        print(f"optimized in {res.iterations} iterations, cost {res.cost:.6e}")
    return EXIT_OK


def _sweep_assertions(table: harness.ConvergenceTable, cost_run: dict) -> dict:
    checks = {}
    for study, measure, values, rate in (
        ("state", "errors", [r.error_v for r in table.rows], table.rate_v),
        ("cost", "gaps", [r["gap"] for r in cost_run["rows"]], cost_run["rate"]),
    ):
        if all(v <= 1e-11 for v in values):
            checks[f"{study}_{measure}_exact"] = True
        else:
            checks[f"{study}_{measure}_decreasing"] = all(b < a for a, b in zip(values, values[1:]))
            checks[f"{study}_rate_at_least_half"] = bool(rate >= 0.5)
    return checks


def cmd_sweep(cfg: RunConfig, out: Path, mesh: Mesh, params: CostParams, g, quiet: bool) -> int:
    table = harness.run_state_convergence(mesh, g, params, cfg.levels, cfg.oracle_extra_levels)
    cost_run = harness.run_cost_convergence(table)
    write_lines(out / "state_convergence.csv", table.csv_lines())
    cost_lines = ["level,h,cost,gap"]
    for r in cost_run["rows"]:
        cost_lines.append(f"{r['level']},{r['h']!r},{r['cost']!r},{r['gap']!r}")
    write_lines(out / "cost_convergence.csv", cost_lines)

    checks = _sweep_assertions(table, cost_run)
    summary = {
        "experiment": "sweep",
        "seed": cfg.seed,
        "levels": cfg.levels,
        "oracle_extra_levels": cfg.oracle_extra_levels,
        "reference": table.reference,
        "rate_V": table.rate_v,
        "rate_H": table.rate_h,
        "cost_rate": cost_run["rate"],
        "assertions": checks,
        "passed": all(checks.values()),
    }

    if cfg.sweep_control:
        ctable = harness.run_control_convergence(
            mesh, params, cfg.optimize_levels, cfg.oracle_extra_levels
        )
        write_lines(out / "control_convergence.csv", ctable.csv_lines())
        dists = [r.control_distance for r in ctable.rows]
        nonmono = sum(dists[k + 1] >= dists[k] for k in range(len(dists) - 1))
        ctrl_checks = {
            "control_distance_trend": nonmono <= 1,
            "control_distance_tenfold": dists[-1] <= dists[0] / 10.0 or dists[0] <= 1e-7,
        }
        summary["control_assertions"] = ctrl_checks
        summary["passed"] = summary["passed"] and all(ctrl_checks.values())

    write_json(out / "summary.json", summary)
    if not quiet:
        print(f"sweep rate_V={table.rate_v} cost_rate={cost_run['rate']} passed={summary['passed']}")
    return EXIT_OK if summary["passed"] else EXIT_ASSERTION


def cmd_scan(cfg: RunConfig, out: Path, mesh: Mesh, params: CostParams, g, quiet: bool) -> int:
    records, summary = harness.run_open_problem_scan(
        mesh, params, cfg.trials, cfg.mu_grid, cfg.seed, cfg.amplitude
    )
    write_lines(out / "scan.csv", harness.scan_csv_lines(records))
    summary["experiment"] = "open_problem_scan"
    write_json(out / "summary.json", summary)
    if not quiet:
        print(
            f"scan: {summary['records']} records, {summary['violations']} violations, "
            f"implication_holds={summary['implication_holds']}"
        )
    # the scanned ordering is an open question: report, never assert
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vicontrol",
        description="Obstacle-problem state solves, optimal control, and convergence experiments",
    )
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="experiment seed (overrides config)")
    parser.add_argument("--levels", type=int, help="refinement levels (overrides config)")
    parser.add_argument("--solver", choices=("psor", "pdas"), help="state solver")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "command", choices=("solve", "optimize", "sweep", "scan"), help="workflow to run"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "out": args.out,
        "seed": args.seed,
        "levels": args.levels,
        "solver": args.solver,
    }
    try:
        cfg, q, g = load_config(args.config, overrides, args.command)
        out = _prepare_out(cfg)  # the first write: load_config has run every check
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    handler = {
        "solve": cmd_solve,
        "optimize": cmd_optimize,
        "sweep": cmd_sweep,
        "scan": cmd_scan,
    }[args.command]
    mesh = build_rectangle_mesh(cfg.nx, cfg.ny, cfg.domain, cfg.gamma1_sides)
    params = CostParams(weight=cfg.M, flux=q, dirichlet=cfg.b, solver=cfg.solver, tol=cfg.tol)
    try:
        return handler(cfg, out, mesh, params, g, args.quiet)
    except SolverError as exc:
        print(f"solver failure during {args.command}: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
