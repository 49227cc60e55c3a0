"""End-to-end acceptance checks.

Each test covers one headline guarantee of the library at its stated
tolerance and prints a single PASS line when it holds. Configurations are
fixed (seeded) so reruns are reproducible.
"""

import time

import numpy as np
import pytest

from reference import brute_force_oracle
from vicontrol import harness
from vicontrol.assembly import coercivity_constant, h1_norm, l2_norm
from vicontrol.control import ControlProblem, CostParams
from vicontrol.mesh import build_rectangle_mesh, refine_uniform
from vicontrol.vi import solve_pdas, solve_psor


def obstacle_problem(mesh, g, q, b):
    return ControlProblem(mesh, CostParams(1.0, q, b)).as_obstacle_problem(g)


def report(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


def test_01_solvers_match_enumeration_oracle():
    """PSOR and PDAS agree with the 2^n enumeration oracle on random problems."""
    mesh = build_rectangle_mesh(3, 3, gamma1_sides=("left",))
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        g = rng.uniform(-60, 20, mesh.num_vertices)
        b = float(rng.uniform(0.02, 1.0))
        q = float(rng.uniform(-2, 2))
        prob = obstacle_problem(mesh, g, q, b)
        oracle = brute_force_oracle(prob)
        for solver in (solve_psor, solve_pdas):
            sol = solver(prob, tol=1e-12)
            assert sol.converged
            err = float(np.max(np.abs(sol.u - oracle.u)))
            assert err <= 1e-9
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("solver-vs-enumeration", f"worst error {worst:.2e}, {elapsed:.1f}s")


def test_02_constant_solution_exact_on_all_levels():
    """With g = 0, q = 0, b = 1 the state is identically 1 on every level."""
    mesh = build_rectangle_mesh(2, 2, gamma1_sides=("left",))
    worst = 0.0
    for _ in range(5):
        prob = obstacle_problem(mesh, 0.0, 0.0, 1.0)
        for solver in (solve_psor, solve_pdas):
            sol = solver(prob, tol=1e-12)
            assert sol.converged
            worst = max(worst, float(np.max(np.abs(sol.u - 1.0))))
        mesh = refine_uniform(mesh)
    assert worst <= 1e-12
    report("constant-solution-exactness", f"worst deviation {worst:.2e}")


def test_03_lipschitz_stability_bound():
    """lambda_h ||u2-u1||_V <= ||g2-g1||_H over 50 random control pairs."""
    mesh = build_rectangle_mesh(8, 8, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    # the scan solves the pairs it draws; its mu grid draws nothing
    _, summary = harness.run_open_problem_scan(mesh, params, trials=50, mu_grid=(0.5,), seed=0)
    worst = summary["worst_lipschitz_ratio"]
    assert worst <= 1.0 + 1e-9
    report("lipschitz-stability", f"worst ratio {worst:.4f}")


def test_04_parallelogram_identities():
    """Norm identity for convex combinations of states and controls."""
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    cp = ControlProblem(mesh, params)
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        g1 = rng.uniform(-10, 10, mesh.num_vertices)
        g2 = rng.uniform(-10, 10, mesh.num_vertices)
        mu = float(rng.uniform(0, 1))
        for v1, v2 in ((cp.solve_state(g1).u, cp.solve_state(g2).u), (g1, g2)):
            v3 = mu * v1 + (1 - mu) * v2
            lhs = l2_norm(v3, cp.mass) ** 2
            rhs = (
                mu * l2_norm(v1, cp.mass) ** 2
                + (1 - mu) * l2_norm(v2, cp.mass) ** 2
                - mu * (1 - mu) * l2_norm(v2 - v1, cp.mass) ** 2
            )
            gap = abs(lhs - rhs)
            assert gap <= 1e-11
            worst = max(worst, gap)
    report("parallelogram-identities", f"worst gap {worst:.2e}")


def test_05_smooth_state_and_cost_convergence():
    """Errors and cost gaps against a fine oracle decrease with rate >= 1/2."""
    base = build_rectangle_mesh(2, 2, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    t0 = time.perf_counter()
    table = harness.run_state_convergence(base, 10.0, params, levels=5, oracle_extra_levels=3)
    cost = harness.run_cost_convergence(table)
    elapsed = time.perf_counter() - t0
    errs = [r.error_V for r in table.rows]
    gaps = [r.gap for r in cost["rows"]]
    assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
    assert table.rate_v >= 0.5
    assert all(gaps[k + 1] < gaps[k] for k in range(len(gaps) - 1))
    assert cost["rate"] >= 0.5
    assert elapsed < 120.0
    report(
        "smooth-convergence",
        f"state rate {table.rate_v:.2f}, cost rate {cost['rate']:.2f}, {elapsed:.0f}s",
    )


def test_06_convergence_with_active_obstacle():
    """Same study where the constraint binds: nonempty active set every level."""
    base = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.05)
    mesh = base
    for _ in range(5):
        sol = solve_pdas(obstacle_problem(mesh, -50.0, 0.0, 0.05), tol=1e-12)
        assert sol.converged and sol.active_set.size > 0
        mesh = refine_uniform(mesh)
    table = harness.run_state_convergence(base, -50.0, params, levels=5, oracle_extra_levels=3)
    errs = [r.error_V for r in table.rows]
    assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
    assert table.rate_v >= 0.5
    report("active-set-convergence", f"rate {table.rate_v:.2f}")


def test_07_optimal_control_convergence():
    """Optimal controls and states approach the fine-level run (>= 10x)."""
    base = build_rectangle_mesh(1, 1, domain=(0, 0, 3, 1), gamma1_sides=("left", "right"))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    t0 = time.perf_counter()
    table = harness.run_control_convergence(base, params, levels=4, oracle_extra_levels=2)
    elapsed = time.perf_counter() - t0
    u_errs = [r.error_V for r in table.rows]
    g_dists = [r.control_distance for r in table.rows]
    assert all(u_errs[k + 1] < u_errs[k] for k in range(len(u_errs) - 1))
    assert all(g_dists[k + 1] < g_dists[k] for k in range(len(g_dists) - 1))
    assert u_errs[-1] <= u_errs[0] / 10.0
    assert g_dists[-1] <= g_dists[0] / 10.0
    assert elapsed < 300.0
    report(
        "optimal-control-convergence",
        f"state {u_errs[0] / u_errs[-1]:.1f}x, control {g_dists[0] / g_dists[-1]:.1f}x",
    )


def test_08_cost_coercivity_and_minimizer_bound():
    """J(g) >= (M/2)||g||^2 - C||g|| and the minimizer obeys ||g*|| <= ||u_0||/M."""
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    rng = np.random.default_rng(16)
    for weight in (1.0, 1e3):
        params = CostParams(weight=weight, flux=0.0, dirichlet=1.0)
        cp = ControlProblem(mesh, params)
        lam = coercivity_constant(cp.stiffness, cp.mass, cp.dofs.free_nodes)
        u0_norm = l2_norm(cp.solve_state(np.zeros(mesh.num_vertices)).u, cp.mass)
        c = u0_norm / lam
        for _ in range(50):
            g = rng.uniform(-10, 10, mesh.num_vertices)
            gn = l2_norm(g, cp.mass)
            assert cp.cost(g, cp.solve_state(g)).cost >= 0.5 * weight * gn**2 - c * gn - 1e-9
        res = cp.optimize(np.zeros(mesh.num_vertices))
        assert res.converged
        assert l2_norm(res.control, cp.mass) <= u0_norm / weight + 1e-12
    report("cost-coercivity-and-bound")


def test_09_adjoint_gradient_matches_finite_differences():
    """Adjoint gradient vs central differences on active-set-stable controls."""
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=0.5, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    rng = np.random.default_rng(6)
    step = 1e-5
    checked = 0
    worst = 0.0
    while checked < 10:
        x0, y0 = rng.uniform(0.25, 0.75, 2)
        bump = np.array(
            [
                -120.0 * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / 0.08)
                for x, y in mesh.vertices
            ]
        )
        g = bump + rng.uniform(-1, 1, mesh.num_vertices)
        state = cp.solve_state(g)
        if not 0 < state.active_set.size < cp.dofs.free_nodes.size:
            continue
        dirs = [rng.normal(size=mesh.num_vertices) for _ in range(10)]
        dirs = [d / np.linalg.norm(d) for d in dirs]
        if any(
            not np.array_equal(cp.solve_state(g + s * d).active_set, state.active_set)
            for d in dirs
            for s in (step, -step)
        ):
            continue
        grad = cp.gradient(g, state)
        for d in dirs:
            jp, jm = (cp.cost(gs, cp.solve_state(gs)).cost for gs in (g + step * d, g - step * d))
            fd = (jp - jm) / (2 * step)
            an = float(grad @ (cp.mass @ d))
            rel = abs(fd - an) / max(1e-12, abs(fd))
            assert rel <= 1e-5
            worst = max(worst, rel)
        checked += 1
    report("adjoint-gradient", f"10 controls x 10 directions, worst rel {worst:.1e}")


def test_10_combined_state_ordering_scan():
    """Randomized scan of 0 <= u4 <= u3: report counts, check the implication."""
    mesh = build_rectangle_mesh(6, 6, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    records, summary = harness.run_open_problem_scan(mesh, params, trials=100, seed=0)
    assert summary["records"] == 900
    assert summary["implication_holds"]
    report(
        "combined-state-scan",
        f"{summary['records']} records, {summary['violations']} violations, "
        f"{summary['pointwise_violations']} pointwise, {summary['norm_violations']} norm",
    )


def test_11_experiments_reproducible():
    """Identical seeds give byte-identical experiment outputs."""
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    r1, s1 = harness.run_open_problem_scan(mesh, params, trials=10, seed=42)
    r2, s2 = harness.run_open_problem_scan(mesh, params, trials=10, seed=42)
    assert repr(r1) == repr(r2)
    assert s1 == s2  # the worst Lipschitz ratio included
    report("reproducibility")
