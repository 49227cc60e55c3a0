"""Command-line front end: solve | optimize | sweep | scan.

Configuration lives in a YAML file (key: value tree, see docs/config.md);
command-line flags override file values. Exit codes: 0 success, 1 invalid
configuration, 2 solver non-convergence, 3 experiment assertion failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import harness
from .assembly import l2_norm
from .control import ControlProblem, CostParams, TraceRow
from .harness import write_json, write_lines
from .mesh import Mesh, build_rectangle_mesh, interpolate
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

    def validate(self, command: str) -> tuple[Mesh, CostParams, object]:
        """Reject a config that `command` cannot run, naming its keys; return its base mesh,
        CostParams (flux q) and g spec. The mesh and CostParams check their own keys, the first
        fault of each. Checks that need fields or levels run once the values they read are valid.
        """
        problems = []
        try:
            mesh = build_rectangle_mesh(self.nx, self.ny, self.domain, self.gamma1_sides)
        except ValueError as exc:
            problems.append(str(exc))
        try:
            params = CostParams(self.M, dirichlet=self.b, solver=self.solver, tol=self.tol)
        except ValueError as exc:
            problems.append(str(exc))
        if min(self.levels, self.optimize_levels) < 2 or self.oracle_extra_levels < 1:
            problems.append("levels and optimize_levels must be >= 2, oracle_extra_levels >= 1")
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
        # refinements past it; 2**20 cells bound it, as one 1024x1024 PDAS solve takes 1.5 GB
        depth, keys = 0, "nx/ny"
        if command == "sweep":
            depth = max(self.levels, self.optimize_levels if self.sweep_control else 1)
            depth += self.oracle_extra_levels - 1
            extra = "/optimize_levels" if self.sweep_control else ""
            keys += f"/levels/oracle_extra_levels{extra}"
        finest = f"the {self.nx}x{self.ny} mesh" + (f" refined {depth} times" if depth else "")
        if self.nx * self.ny > 2**20 >> 2 * depth:  # (nx 2**depth)(ny 2**depth) > 2**20
            raise ConfigError(f"{keys}: {finest} has more than 2**20 cells")

        # parse q and g once, and bound |q| and |g| over the domain and the controls a scan draws
        specs, sup = {}, {"q": 0.0, "g": 0.0, "amplitude": self.amplitude}
        x0, y0, x1, y1 = self.domain
        for name in ("q", "g"):
            try:
                spec = specs[name] = make_field_spec(getattr(self, name))
                if isinstance(spec, np.ndarray):
                    # every sweep level interpolates q and g on its own mesh: a nodal file cannot
                    if command == "sweep":
                        raise ConfigError("sweep needs a functional spec (constant/affine/gauss)")
                    interpolate(mesh, spec)  # the mesh's own check of its shape and finiteness
                # an affine field takes its extremes at the corners, a gauss at its peak
                values = np.ravel(spec) if not callable(spec) else np.array(
                    [spec(x, y) for x in (x0, x1) for y in (y0, y1)] + [getattr(spec, "peak", 0.0)]
                )
                if not np.isfinite(values).all():
                    raise ConfigError("value at a corner of the domain is not finite")
                sup[name] = float(np.abs(values).max(initial=0.0))
            except (ValueError, ArithmeticError) as exc:  # ConfigError is a ValueError
                problems.append(f"{name}: {exc}")
        g_key = max(("g", "amplitude"), key=sup.get)
        dx, dy = (x1 - x0) / self.nx, (y1 - y0) / self.ny
        narrowest = min(dx, dy) / 2**depth  # on the finest cells: dx*dx, dy*dy, dx*dy normal
        # assembly forms dx*dx + dy*dy, which bounds 2 dx dy, on the base cells, the largest
        if not (dx * dx + dy * dy <= sys.float_info.max and narrowest**2 >= sys.float_info.min):
            cells = f"{dx!r} x {dy!r} cells" + (f", refined {depth} times," if depth else "")
            problems.append(f"domain/nx/ny: {cells} leave the float range")
        # the finest mesh's grid lines hold those of the coarser meshes: line k of n cells is
        # line k * 2**d of n * 2**d, as fl(k*step) scales; read from the base mesh's domain
        elif not all(
            np.all(np.diff(line) > 0)
            for line in replace(mesh, nx=self.nx << depth, ny=self.ny << depth).lines
        ):
            problems.append(f"domain/nx/ny: grid lines of {finest} coincide in floating point")
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
        return mesh, replace(params, flux=specs["q"]), specs["g"]


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
) -> tuple[RunConfig, Mesh, CostParams, object]:
    """The config for `command`, its base mesh, CostParams and g; ConfigError names a bad key."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh) or {}
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    types = {f.name: f.type for f in fields(RunConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(map(str, unknown))}")
    for key, value in data.items():
        kind = FIELD_KINDS.get(types[key])
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
    try:
        sol, failure = cp.solve_state(g), None
    except SolverError as exc:
        if exc.solution is None:
            raise  # no state to write
        sol, failure = exc.solution, exc
    dump_solution(mesh, sol, out / "solution.csv")
    write_json(
        out / "diagnostics.json",
        {
            "converged": failure is None,
            "iterations": sol.iterations,
            "complementarity_residual": sol.complementarity_residual,
            "active_set_size": int(sol.active_set.size),
            "method": params.solver,
            "vertices": mesh.num_vertices,
        },
    )
    if failure is not None:  # the outputs above are written first
        raise failure
    if not quiet:
        print(
            f"solved in {sol.iterations} iterations, "
            f"active set {sol.active_set.size}/{mesh.free_nodes.size} free nodes"
        )
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out: Path, mesh: Mesh, params: CostParams, g, quiet: bool) -> int:
    cp = ControlProblem(mesh, params)
    res = cp.optimize(g)
    u0 = SolverError.staged("the g = 0 state of control_norm_bound", cp.solve_state, 0.0).u
    write_lines(out / "trace.csv", ",".join(TraceRow._fields), res.trace)
    # the bytes np.savetxt writes, formatted from Python floats
    write_lines(out / "control.txt", None, ["%.18e" % v for v in res.control.tolist()])
    report = res.report
    dump_solution(mesh, report.state, out / "state.csv")
    write_json(
        out / "cost_report.json",
        {
            "cost": report.cost,
            "state_term": report.state_term,
            "control_term": report.control_term,
            "gradient_norm": res.gradient_norm,
            "iterations": res.iterations,
            "converged": res.failure is None,
            "control_norm": l2_norm(res.control, cp.mass),
            "control_norm_bound": l2_norm(u0, cp.mass) / params.weight,
        },
    )
    if res.failure:  # the outputs above are written first
        raise SolverError(res.failure)
    if not quiet:
        print(f"optimized in {res.iterations} iterations, cost {report.cost:.6e}")
    return EXIT_OK


def _sweep_assertions(table: harness.ConvergenceTable, cost_run: dict) -> dict:
    checks = {}
    for study, measure, values, rate in (
        ("state", "errors", [r.error_V for r in table.rows], table.rate_v),
        ("cost", "gaps", [r.gap for r in cost_run["rows"]], cost_run["rate"]),
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
    header = ",".join(harness.ConvergenceRow._fields)  # of the control study's table too
    write_lines(out / "state_convergence.csv", header, table.rows)
    write_lines(out / "cost_convergence.csv", ",".join(harness.CostRow._fields), cost_run["rows"])

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
        write_lines(out / "control_convergence.csv", header, ctable.rows)
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
    write_lines(out / "scan.csv", ",".join(harness.OpenProblemRecord._fields), records)
    summary["experiment"] = "open_problem_scan"
    write_json(out / "summary.json", summary)
    if not quiet:
        print(
            f"scan: {summary['records']} records, {summary['violations']} violations, "
            f"implication_holds={summary['implication_holds']}"
        )
    # the ordering is a theorem for this discretization (see run_open_problem_scan); the
    # scan reports its margins, it never asserts them
    return EXIT_OK


COMMANDS = {"solve": cmd_solve, "optimize": cmd_optimize, "sweep": cmd_sweep, "scan": cmd_scan}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad flag is an invalid configuration: exit 1, write nothing
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vicontrol",
        description="Obstacle-problem state solves, optimal control, and convergence experiments",
    )
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="experiment seed (overrides config)")
    parser.add_argument("--levels", type=int, help="refinement levels (overrides config)")
    parser.add_argument("--solver", help="state solver: psor or pdas (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument("command", choices=COMMANDS, help="workflow to run")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {key: getattr(args, key) for key in ("out", "seed", "levels", "solver")}
        cfg, mesh, params, g = load_config(args.config, overrides, args.command)
        out = _prepare_out(cfg)  # the first write: load_config has run every check
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        return COMMANDS[args.command](cfg, out, mesh, params, g, args.quiet)
    except SolverError as exc:
        print(f"solver failure during {args.command}: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
