"""Numerical experiments: mesh-refinement convergence of states, costs and
optimal controls, the Lipschitz stability bound, and a randomized scan of the
ordering conjecture between combined solutions.

Continuous-problem quantities have no closed form here; every experiment
compares against a heavily refined discrete solve (the "oracle" level).
All experiments are deterministic given their seed and emit CSV rows plus a
JSON-able summary dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .assembly import coercivity_constant, h1_norm, l2_norm
from .control import ControlProblem, CostParams
from .mesh import Mesh, interpolate, prolongate, refine_times, refine_uniform
from .vi import SolverError


@dataclass
class ConvergenceRow:
    level: int
    h: float
    error_v: float
    error_h: float
    cost: float
    control_distance: float = float("nan")


@dataclass
class ConvergenceTable:
    reference: str
    rows: list[ConvergenceRow] = field(default_factory=list)
    rate_v: float = float("nan")
    rate_h: float = float("nan")
    oracle_level: int = -1
    oracle_cost: float = float("nan")

    def csv_lines(self) -> list[str]:
        lines = ["level,h,error_V,error_H,cost,control_distance"]
        for r in self.rows:
            lines.append(
                f"{r.level},{r.h!r},{r.error_v!r},{r.error_h!r},{r.cost!r},{r.control_distance!r}"
            )
        return lines


@dataclass
class OpenProblemRecord:
    trial: int
    mu: float
    pointwise_margin: float  # min over nodes of u3 - u4
    nonnegativity_margin: float  # min over nodes of u4
    norm_margin: float  # ||u3||_H - ||u4||_H
    violation: bool


def fit_rate(hs, errors, tail: int | None = None) -> float:
    """Least-squares slope of log(error) against log(h).

    Uses the last max(3, n-1) points by default to limit preasymptotic
    pollution. Degenerate (zero/nonpositive) errors give nan.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if tail is None:
        tail = max(3, len(hs) - 1)
    hs = hs[-tail:]
    errors = errors[-tail:]
    if len(hs) < 2 or np.any(errors <= 0):
        return float("nan")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)


def random_control(mesh: Mesh, rng: np.random.Generator, amplitude: float = 10.0) -> np.ndarray:
    """P1 control with nodal values uniform in [-amplitude, amplitude]."""
    return rng.uniform(-amplitude, amplitude, size=mesh.num_vertices)


def _convergence_study(base_mesh, params, levels, oracle_extra_levels, solve, oracle, rate_h):
    """The hierarchy/oracle driver of the convergence studies.

    base_mesh, its levels-1 uniform refinements and the oracle mesh,
    oracle_extra_levels above the finest, each get one ControlProblem, solved
    coarse to fine by solve(cp, below) -> (nodal state, nodal control or None,
    cost); below is the (mesh, state) solved before, or None. A SolverError is
    raised again naming its level. Rows hold distances to the oracle on the
    oracle mesh, the reference names it "<oracle> oracle", and rate_h is
    fitted to the row column named rate_h.
    """
    if levels < 1 or oracle_extra_levels < 1:
        raise ValueError("levels and oracle_extra_levels must be >= 1")
    meshes = [base_mesh]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    meshes.append(refine_times(meshes[-1], oracle_extra_levels))
    solved = []  # (mesh, state, control, cost) per level, coarse to fine, then the oracle
    for mesh in meshes:
        cp = ControlProblem(mesh, params)
        try:
            solved.append((mesh, *solve(cp, solved[-1][:2] if solved else None)))
        except SolverError as exc:
            raise SolverError(f"level {mesh.level} ({mesh.nx}x{mesh.ny}): {exc}", exc.solution)
    oracle_mesh, oracle_u, oracle_g, oracle_cost = solved.pop()
    a_o, m_o = cp.stiffness, cp.mass  # the oracle's, solved last

    table = ConvergenceTable(
        reference=f"{oracle} oracle at level {oracle_mesh.level} (h={oracle_mesh.h!r})",
        oracle_level=oracle_mesh.level,
        oracle_cost=oracle_cost,
    )
    for mesh, u, g, cost in solved:
        du = prolongate(mesh, u, oracle_mesh) - oracle_u
        dg = None if g is None else prolongate(mesh, g, oracle_mesh) - oracle_g
        table.rows.append(
            ConvergenceRow(
                level=mesh.level,
                h=mesh.h,
                error_v=h1_norm(du, oracle_mesh, a_o, m_o),
                error_h=l2_norm(du, oracle_mesh, m_o),
                cost=cost,
                control_distance=float("nan") if dg is None else l2_norm(dg, oracle_mesh, m_o),
            )
        )
    hs = [r.h for r in table.rows]
    table.rate_v = fit_rate(hs, [r.error_v for r in table.rows])
    table.rate_h = fit_rate(hs, [getattr(r, rate_h) for r in table.rows])
    return table


def run_state_convergence(
    base_mesh: Mesh,
    g,
    params: CostParams,
    levels: int = 4,
    oracle_extra_levels: int = 2,
) -> ConvergenceTable:
    """Errors of the state solution against a fine-mesh oracle, per level,
    with each level's cost and the oracle's cost. g is a callable or constant,
    interpolated on each mesh; each level is warm-started from the state before
    it prolongated (nested iteration)."""

    def solve(cp, below):
        warm_start = prolongate(*below, cp.mesh) if below else None
        g_h = interpolate(cp.mesh, g)
        state = cp.solve_state(g_h, warm_start)
        return state.u, None, cp.cost(g_h, state).cost

    return _convergence_study(
        base_mesh, params, levels, oracle_extra_levels, solve, "state", "error_h"
    )


def run_cost_convergence(table: ConvergenceTable) -> dict:
    """Per-level gap |J_level(g) - J_oracle(g)| and its fitted rate, read off
    a run_state_convergence table."""
    rows = [
        {"level": r.level, "h": r.h, "cost": r.cost, "gap": abs(r.cost - table.oracle_cost)}
        for r in table.rows
    ]
    return {
        "oracle_cost": table.oracle_cost,
        "oracle_level": table.oracle_level,
        "rows": rows,
        "rate": fit_rate([r["h"] for r in rows], [r["gap"] for r in rows]),
    }


def run_control_convergence(
    base_mesh: Mesh,
    params: CostParams,
    levels: int = 4,
    oracle_extra_levels: int = 2,
    g0=0.0,
    max_iter: int = 500,
) -> ConvergenceTable:
    """Distances of per-level optimal controls/states to the finest-level run.

    Each level is optimized cold from g0; one that stops unconverged raises
    SolverError naming its level. rate_h fits the control distances.
    """

    def solve(cp, below):
        res = cp.optimize(g0, max_iter=max_iter)
        if not res.converged:
            raise SolverError(f"optimizer did not converge (gradient norm {res.gradient_norm:.3e})")
        return res.state.u, res.control, res.cost

    return _convergence_study(
        base_mesh, params, levels, oracle_extra_levels, solve, "optimizer", "control_distance"
    )


def run_lipschitz_check(
    mesh: Mesh,
    params: CostParams,
    trials: int = 50,
    seed: int = 0,
    amplitude: float = 10.0,
) -> dict:
    """Worst ratio lambda_h * ||u2 - u1||_V / ||g2 - g1||_H over random pairs.

    The stability bound guarantees the ratio never exceeds 1; pairs with
    coinciding controls are resampled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    cp = ControlProblem(mesh, params)
    lam = coercivity_constant(mesh, cp.stiffness, cp.mass)
    a, m = cp.stiffness, cp.mass

    ratios = []
    for _ in range(trials):
        while True:
            g1 = random_control(mesh, rng, amplitude)
            g2 = random_control(mesh, rng, amplitude)
            dg = l2_norm(g2 - g1, mesh, m)
            if dg > 0:
                break
        du = cp.solve_state(g2).u - cp.solve_state(g1).u
        ratios.append(lam * h1_norm(du, mesh, a, m) / dg)
    return {
        "trials": trials,
        "seed": seed,
        "lambda_h": lam,
        "worst_ratio": max(ratios),
        "ratios": ratios,
    }


def run_open_problem_scan(
    mesh: Mesh,
    params: CostParams,
    trials: int = 100,
    mu_grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    seed: int = 0,
    amplitude: float = 10.0,
    tol: float = 1e-9,
) -> tuple[list[OpenProblemRecord], dict]:
    """Randomized search for violations of 0 <= u4(mu) <= u3(mu).

    u3 is the convex combination of the two states, u4 the state of the
    combined control. Whether the ordering can fail is open; the scan reports
    margins and counts, it does not assert an outcome. The implication
    (pointwise ordering holds => norm ordering holds) is recorded per record.
    """
    mu_grid = [float(mu) for mu in mu_grid]
    if any(mu < 0 or mu > 1 for mu in mu_grid):
        raise ValueError("mu_grid values must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    cp = ControlProblem(mesh, params)
    m = cp.mass

    records = []
    for trial in range(trials):
        g1 = random_control(mesh, rng, amplitude)
        g2 = random_control(mesh, rng, amplitude)
        u1 = cp.solve_state(g1).u
        u2 = cp.solve_state(g2).u
        for mu in mu_grid:
            u3 = mu * u1 + (1.0 - mu) * u2
            u4 = cp.solve_state(mu * g1 + (1.0 - mu) * g2).u
            pointwise = float(np.min(u3 - u4))
            nonneg = float(np.min(u4))
            norm_margin = l2_norm(u3, mesh, m) - l2_norm(u4, mesh, m)
            if not np.isfinite(norm_margin):
                raise SolverError(f"trial {trial}, mu={mu!r}: the H-norms of u3 and u4 overflow")
            records.append(
                OpenProblemRecord(
                    trial=trial,
                    mu=mu,
                    pointwise_margin=pointwise,
                    nonnegativity_margin=nonneg,
                    norm_margin=norm_margin,
                    violation=min(pointwise, nonneg, norm_margin) < -tol,
                )
            )
    pointwise_ok = [r for r in records if min(r.pointwise_margin, r.nonnegativity_margin) >= -tol]
    summary = {
        "trials": trials,
        "mu_grid": mu_grid,
        "seed": seed,
        "tolerance": tol,
        "records": len(records),
        "violations": sum(r.violation for r in records),
        "pointwise_violations": sum(
            1 for r in records if min(r.pointwise_margin, r.nonnegativity_margin) < -tol
        ),
        "norm_violations": sum(1 for r in records if r.norm_margin < -tol),
        "implication_holds": all(r.norm_margin >= -tol for r in pointwise_ok),
        "worst_pointwise_margin": min(r.pointwise_margin for r in records),
        "worst_norm_margin": min(r.norm_margin for r in records),
    }
    return records, summary


def scan_csv_lines(records: list[OpenProblemRecord]) -> list[str]:
    lines = ["trial,mu,pointwise_margin,nonnegativity_margin,norm_margin,violation"]
    for r in records:
        lines.append(
            f"{r.trial},{r.mu!r},{r.pointwise_margin!r},{r.nonnegativity_margin!r},"
            f"{r.norm_margin!r},{int(r.violation)}"
        )
    return lines


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(value):
    """Strict-JSON conversion: numpy scalars to Python, non-finite to null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    return value


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
