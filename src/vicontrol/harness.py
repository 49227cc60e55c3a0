"""Numerical experiments: mesh-refinement convergence of states, costs and
optimal controls, and one randomized scan over pairs of controls. The scan
reports the ordering between combined solutions, a theorem for this
discretization, and the worst ratio of the Lipschitz stability bound.

Continuous-problem quantities have no closed form here; every experiment
compares against a heavily refined discrete solve (the "oracle" level).
All experiments are deterministic given their seed and emit CSV rows plus a
JSON-able summary dict.
"""

from __future__ import annotations

import json
from collections import namedtuple

import numpy as np

from .assembly import coercivity_constant, h1_norm, l2_norm
from .control import ControlProblem, CostParams
from .mesh import Mesh, prolongate, refine_times
from .vi import SolverError


# one level of a convergence study; its fields are the columns of state_convergence.csv and
# control_convergence.csv, and control_distance is nan in the state study
ConvergenceRow = namedtuple("ConvergenceRow", "level h error_V error_H cost control_distance")

# a convergence study: its rows, coarse to fine, the rates fitted to them, and the oracle
# that `reference` names, with its level and cost
ConvergenceTable = namedtuple(
    "ConvergenceTable", "reference rows rate_v rate_h oracle_level oracle_cost"
)

# one level of run_cost_convergence; its fields are the columns of cost_convergence.csv
CostRow = namedtuple("CostRow", "level h cost gap")

# one (trial, mu) of the scan; its fields are the columns of scan.csv. The margins are
# min over nodes of u3 - u4 and of u4, and ||u3||_H - ||u4||_H
OpenProblemRecord = namedtuple(
    "OpenProblemRecord",
    "trial mu pointwise_margin nonnegativity_margin norm_margin violation",
)


def fit_rate(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Uses the last max(3, n-1) points to limit preasymptotic pollution.
    Degenerate (zero/nonpositive) errors give nan.
    """
    tail = max(3, len(hs) - 1)
    hs = np.asarray(hs, dtype=float)[-tail:]
    errors = np.asarray(errors, dtype=float)[-tail:]
    if len(hs) < 2 or np.any(errors <= 0):
        return float("nan")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)


def random_control(mesh: Mesh, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    """P1 control with nodal values uniform in [-amplitude, amplitude]."""
    return rng.uniform(-amplitude, amplitude, size=mesh.num_vertices)


def _convergence_study(base_mesh, params, levels, oracle_extra_levels, solve, oracle, rate_h):
    """The hierarchy/oracle driver of the convergence studies.

    Level k is base_mesh refined k times, for k = 0 .. levels-1, and the oracle
    is the level oracle_extra_levels above the finest; the study owns these
    level numbers, a mesh holds none. Each level gets one ControlProblem, solved
    coarse to fine by solve(cp) -> (nodal state, nodal control or None, cost).
    A SolverError, or an error or cost past the float range, is raised naming its
    level. Rows hold distances to the oracle on the oracle mesh, the reference
    names it "<oracle> oracle", and rate_h is fitted to the row column named rate_h.
    """
    if levels < 2 or oracle_extra_levels < 1:  # a rate needs two levels
        raise ValueError("levels must be >= 2 and oracle_extra_levels >= 1")
    solved = []  # (level, mesh, state, control, cost), coarse to fine, then the oracle
    for k in [*range(levels), levels - 1 + oracle_extra_levels]:
        mesh = refine_times(base_mesh, k)
        cp = ControlProblem(mesh, params)
        stage = f"level {k} ({mesh.nx}x{mesh.ny})"
        solved.append((k, mesh, *SolverError.staged(stage, solve, cp)))
    oracle_level, oracle_mesh, oracle_u, oracle_g, oracle_cost = solved.pop()
    a_o, m_o = cp.stiffness, cp.mass  # the oracle's, solved last

    rows = []
    for k, mesh, u, g, cost in solved:
        du = prolongate(mesh, u, oracle_mesh) - oracle_u
        dg = None if g is None else prolongate(mesh, g, oracle_mesh) - oracle_g
        error_v, error_h = h1_norm(du, a_o, m_o, with_l2=True)
        if not np.isfinite([error_v, error_h, cost, oracle_cost]).all():  # not control_distance
            stage = f"level {k} ({mesh.nx}x{mesh.ny})"
            raise SolverError(f"{stage}: its error or cost, or the oracle's, left the float range")
        distance = float("nan") if dg is None else l2_norm(dg, m_o)
        rows.append(ConvergenceRow(k, mesh.h, error_v, error_h, cost, distance))
    hs = [r.h for r in rows]
    return ConvergenceTable(
        f"{oracle} oracle at level {oracle_level} (h={oracle_mesh.h!r})",
        rows,
        fit_rate(hs, [r.error_V for r in rows]),
        fit_rate(hs, [getattr(r, rate_h) for r in rows]),
        oracle_level,
        oracle_cost,
    )


def run_state_convergence(
    base_mesh: Mesh, g, params: CostParams, levels: int, oracle_extra_levels: int
) -> ConvergenceTable:
    """Errors of the state solution against a fine-mesh oracle, per level,
    with each level's cost and the oracle's cost. g is a callable or constant,
    which the solve and the cost each interpolate on the mesh. Each level and
    the oracle is one cold solve_state, with its nested start."""

    def solve(cp):
        state = cp.solve_state(g)
        return state.u, None, cp.cost(g, state).cost

    return _convergence_study(
        base_mesh, params, levels, oracle_extra_levels, solve, "state", "error_H"
    )


def run_cost_convergence(table: ConvergenceTable) -> dict:
    """Per-level CostRows, with the gap |J_level(g) - J_oracle(g)|, and their fitted rate, read
    off a run_state_convergence table, which holds the oracle's cost and level."""
    rows = [CostRow(r.level, r.h, r.cost, abs(r.cost - table.oracle_cost)) for r in table.rows]
    return {"rows": rows, "rate": fit_rate([r.h for r in rows], [r.gap for r in rows])}


def run_control_convergence(
    base_mesh: Mesh, params: CostParams, levels: int, oracle_extra_levels: int
) -> ConvergenceTable:
    """Distances of per-level optimal controls/states to the finest-level run.

    Each level is optimized cold from g = 0; one that stops unconverged raises
    SolverError naming its level. rate_h fits the control distances.
    """

    def solve(cp):
        res = cp.optimize(0.0)
        if res.failure:
            raise SolverError(res.failure)
        return res.report.state.u, res.control, res.report.cost

    return _convergence_study(
        base_mesh, params, levels, oracle_extra_levels, solve, "optimizer", "control_distance"
    )


def run_open_problem_scan(
    mesh: Mesh, params: CostParams, trials: int, mu_grid, seed: int, amplitude: float
) -> tuple[list[OpenProblemRecord], dict]:
    """Randomized search for violations of 0 <= u4(mu) <= u3(mu).

    u3 is the convex combination of the two states, u4 the state of the
    combined control. For this discretization the ordering is a theorem, up to
    solver tolerance: A_FF is a Z-matrix, so u_g is the least element of the
    feasible set S(g); u3 lies in S(g_mu), as the load is affine in g, so
    0 <= u4 <= u3, and M_H >= 0 entrywise orders the norms. The scan reports
    margins and counts, it does not assert an outcome; a margin below -1e-9
    counts as a violation. The implication (pointwise ordering holds => norm
    ordering holds) is recorded per record.

    Each pair also gives the stability ratio lambda_h ||u2 - u1||_V / ||g2 - g1||_H,
    which the bound lambda_h ||u2 - u1||_V <= ||g2 - g1||_H keeps at most 1; the
    summary reports lambda_h and the worst ratio, null when no pair counts. A pair
    counts when its H-distance is positive and finite and its ratio finite; none does
    when lambda_h is null: Gamma1 covers every vertex, or ARPACK fails or gives <= 0.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got trials={trials})")
    if not amplitude >= 0:
        raise ValueError(f"amplitude must be >= 0 (got amplitude={amplitude})")
    mu_grid = [float(mu) for mu in mu_grid]
    if not mu_grid or not all(0.0 <= mu <= 1.0 for mu in mu_grid):  # NaN fails the comparison
        raise ValueError(f"mu_grid must be nonempty, with values in [0, 1] (got {mu_grid})")
    rng = np.random.default_rng(seed)
    cp = ControlProblem(mesh, params)
    a, m = cp.stiffness, cp.mass
    lam = coercivity_constant(a, m, mesh.free_nodes)  # None where lambda_h is undefined
    tol = 1e-9

    records, ratios = [], []
    for trial in range(trials):
        g1 = random_control(mesh, rng, amplitude)
        g2 = random_control(mesh, rng, amplitude)
        u1 = SolverError.staged(f"trial {trial}", cp.solve_state, g1).u
        u2 = SolverError.staged(f"trial {trial}", cp.solve_state, g2).u
        for mu in mu_grid:
            u3 = mu * u1 + (1.0 - mu) * u2
            g4 = mu * g1 + (1.0 - mu) * g2
            u4 = SolverError.staged(f"trial {trial}, mu={mu!r}", cp.solve_state, g4).u
            pointwise = float(np.min(u3 - u4))
            nonneg = float(np.min(u4))
            norm_margin = l2_norm(u3, m) - l2_norm(u4, m)
            if not np.isfinite(norm_margin):
                raise SolverError(f"trial {trial}, mu={mu!r}: the H-norms of u3 and u4 overflow")
            violation = min(pointwise, nonneg, norm_margin) < -tol
            records.append(OpenProblemRecord(trial, mu, pointwise, nonneg, norm_margin, violation))
        with np.errstate(all="ignore"):  # a pair past the float range counts no ratio, silently
            dg = l2_norm(g2 - g1, m)
            if lam is not None and 0 < dg < np.inf:
                ratios.append(lam * h1_norm(u2 - u1, a, m) / dg)
    pointwise_ok = [r for r in records if min(r.pointwise_margin, r.nonnegativity_margin) >= -tol]
    summary = {
        "trials": trials,
        "mu_grid": mu_grid,
        "seed": seed,
        "tolerance": tol,
        "records": len(records),
        "violations": sum(r.violation for r in records),
        "pointwise_violations": len(records) - len(pointwise_ok),
        "norm_violations": sum(1 for r in records if r.norm_margin < -tol),
        "implication_holds": all(r.norm_margin >= -tol for r in pointwise_ok),
        "worst_pointwise_margin": min(r.pointwise_margin for r in records),
        "worst_norm_margin": min(r.norm_margin for r in records),
        "lambda_h": lam,
        "worst_lipschitz_ratio": max((r for r in ratios if np.isfinite(r)), default=None),
    }
    return records, summary


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(int(value))


def write_lines(path, header: str | None, rows) -> None:
    """Write a table: the header line, if any, then one line per row. A row of cells is joined
    by commas, a float written as its repr and an int or bool as an integer; a str row is a
    line already formatted, and is written as it is."""
    lines = [] if header is None else [header]
    lines += [row if isinstance(row, str) else ",".join(map(_cell, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(value):
    """Strict JSON: every non-finite float, nested in dicts, lists or tuples, becomes null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
