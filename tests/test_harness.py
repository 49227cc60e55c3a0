import numpy as np
import pytest

from vicontrol import control, harness
from vicontrol.assembly import assemble_mass, assemble_stiffness, h1_norm, l2_norm
from vicontrol.control import CostParams
from vicontrol.mesh import build_rectangle_mesh, prolongate, refine_times
from vicontrol.vi import SolverError, solve_pdas


@pytest.fixture
def base():
    return build_rectangle_mesh(2, 2, gamma1_sides=("left",))


def test_fit_rate_recovers_slope():
    hs = [1.0, 0.5, 0.25, 0.125]
    errs = [3.0 * h**1.7 for h in hs]
    assert harness.fit_rate(hs, errs) == pytest.approx(1.7, abs=1e-12)


def test_fit_rate_degenerate_is_nan():
    assert np.isnan(harness.fit_rate([1.0, 0.5, 0.25], [1e-16, 0.0, 0.0]))


def test_nested_prolongation_preserves_norms(base):
    fine = refine_times(base, 2)
    rng = np.random.default_rng(1)
    field = rng.normal(size=base.num_vertices)
    lifted = prolongate(base, field, fine)
    a_c, m_c = assemble_stiffness(base), assemble_mass(base)
    a_f, m_f = assemble_stiffness(fine), assemble_mass(fine)
    assert l2_norm(lifted, fine, m_f) == pytest.approx(l2_norm(field, base, m_c), abs=1e-12)
    assert h1_norm(lifted, fine, a_f, m_f) == pytest.approx(
        h1_norm(field, base, a_c, m_c), abs=1e-12
    )


def test_state_convergence_exact_constant_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 0.0, params, levels=3, oracle_extra_levels=2)
    for row in table.rows:
        assert row.error_v <= 1e-11
        assert row.error_h <= 1e-11
        assert row.cost == pytest.approx(0.5, abs=1e-12)


def test_state_convergence_smooth_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 10.0, params, levels=4, oracle_extra_levels=2)
    errs = [r.error_v for r in table.rows]
    assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
    assert table.rate_v >= 0.9


def test_cost_convergence_smooth_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 10.0, params, levels=4, oracle_extra_levels=2)
    run = harness.run_cost_convergence(table)
    gaps = [r["gap"] for r in run["rows"]]
    assert all(gaps[k + 1] < gaps[k] for k in range(len(gaps) - 1))
    assert run["rate"] >= 0.5


def test_cost_convergence_exact_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 0.0, params, levels=3, oracle_extra_levels=2)
    run = harness.run_cost_convergence(table)
    assert all(r["gap"] <= 1e-11 for r in run["rows"])


def test_sweep_solves_each_problem_once(base, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_pdas(*args, **kwargs)

    monkeypatch.setattr(control, "solve_pdas", counting)
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 10.0, params, levels=3, oracle_extra_levels=2)
    run = harness.run_cost_convergence(table)
    assert len(calls) == 3 + 1  # three levels and the oracle
    assert run["oracle_level"] == 4
    assert [r["cost"] for r in run["rows"]] == [r.cost for r in table.rows]


def test_nested_iteration_changes_no_bits(monkeypatch):
    iterations = []  # (unknowns, PDAS iterations) per solve

    def counting(problem, **kwargs):
        sol = solve_pdas(problem, **kwargs)
        iterations.append((problem.size, sol.iterations))
        return sol

    monkeypatch.setattr(control, "solve_pdas", counting)
    base4 = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base4, -50.0, params, levels=4, oracle_extra_levels=2)

    # the same problems solved cold, one mesh at a time
    oracle_cp = control.ControlProblem(refine_times(base4, 5), params)
    oracle = oracle_cp.cost(-50.0)
    oracle_solves = [it for n, it in iterations if n == oracle_cp.mesh.num_vertices]
    assert len(oracle_solves) == 2
    warm_oracle_iterations, cold_oracle_iterations = oracle_solves
    assert table.oracle_cost == oracle.cost
    for k, row in enumerate(table.rows):
        mesh = refine_times(base4, k)
        report = control.ControlProblem(mesh, params).cost(-50.0)
        diff = prolongate(mesh, report.state.u, oracle_cp.mesh) - oracle.state.u
        assert row.cost == report.cost
        assert row.error_v == h1_norm(diff, oracle_cp.mesh, oracle_cp.stiffness, oracle_cp.mass)
        assert row.error_h == l2_norm(diff, oracle_cp.mesh, oracle_cp.mass)
    assert oracle.state.active_set.size > 0  # the obstacle is active
    assert warm_oracle_iterations < cold_oracle_iterations


def test_psor_sweep_agrees_with_pdas_sweep(base):
    def g(x, y):
        return -40.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.08)

    tables = [
        harness.run_state_convergence(
            base, g, CostParams(1.0, 0.0, 0.05, solver=solver), levels=3, oracle_extra_levels=1
        )
        for solver in ("pdas", "psor")
    ]
    assert tables[1].rate_v == pytest.approx(tables[0].rate_v, rel=1e-6)
    assert tables[1].rate_h == pytest.approx(tables[0].rate_h, rel=1e-6)


def test_failed_solve_names_its_level(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0, tol=1e-300)
    with pytest.raises(SolverError, match=r"^level \d+ \(\d+x\d+\): state solve") as info:
        harness.run_state_convergence(base, 10.0, params, levels=2, oracle_extra_levels=1)
    assert info.value.solution is not None


def test_control_study_names_its_level(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    with pytest.raises(SolverError, match=r"^level \d+ \(\d+x\d+\): optimizer did not converge"):
        harness.run_control_convergence(base, params, levels=2, oracle_extra_levels=1, max_iter=0)


def test_control_convergence_rows_match_cold_optimize_runs(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_control_convergence(base, params, levels=3, oracle_extra_levels=2)

    # the same problems optimized cold, one mesh at a time
    oracle_cp = control.ControlProblem(refine_times(base, 4), params)
    oracle = oracle_cp.optimize(0.0)
    assert table.oracle_level == oracle_cp.mesh.level
    assert table.oracle_cost == oracle.cost
    for k, row in enumerate(table.rows):
        mesh = refine_times(base, k)
        res = control.ControlProblem(mesh, params).optimize(0.0)
        du = prolongate(mesh, res.state.u, oracle_cp.mesh) - oracle.state.u
        dg = prolongate(mesh, res.control, oracle_cp.mesh) - oracle.control
        assert row.cost == res.cost
        assert row.error_v == h1_norm(du, oracle_cp.mesh, oracle_cp.stiffness, oracle_cp.mass)
        assert row.error_h == l2_norm(du, oracle_cp.mesh, oracle_cp.mass)
        assert row.control_distance == l2_norm(dg, oracle_cp.mesh, oracle_cp.mass)
    hs = [r.h for r in table.rows]
    assert table.rate_h == harness.fit_rate(hs, [r.control_distance for r in table.rows])


@pytest.mark.parametrize("levels, extra", [(0, 1), (2, 0)])
def test_convergence_studies_reject_empty_hierarchy(base, levels, extra):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    with pytest.raises(ValueError):
        harness.run_state_convergence(base, 10.0, params, levels, extra)
    with pytest.raises(ValueError):
        harness.run_control_convergence(base, params, levels, extra)


def test_control_convergence_trivial_optimum(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.0)
    table = harness.run_control_convergence(base, params, levels=3, oracle_extra_levels=1)
    for row in table.rows:
        assert row.control_distance <= 1e-7
        assert row.error_v <= 1e-7


def test_control_convergence_decreasing(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_control_convergence(base, params, levels=3, oracle_extra_levels=2)
    dists = [r.control_distance for r in table.rows]
    assert dists[1] < dists[0] and dists[2] < dists[1]


def test_lipschitz_check_bound():
    mesh = build_rectangle_mesh(6, 6, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    res = harness.run_lipschitz_check(mesh, params, trials=10, seed=3)
    assert res["worst_ratio"] <= 1.0 + 1e-9
    assert len(res["ratios"]) == 10


def test_lipschitz_check_validates_trials():
    mesh = build_rectangle_mesh(2, 2)
    with pytest.raises(ValueError):
        harness.run_lipschitz_check(mesh, CostParams(weight=1.0), trials=0)


def test_open_problem_scan_endpoints_and_identical_controls():
    mesh = build_rectangle_mesh(3, 3, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    records, summary = harness.run_open_problem_scan(
        mesh, params, trials=5, mu_grid=(0.0, 1.0), seed=7
    )
    # at the endpoints u3 and u4 coincide: no margins below roundoff
    for r in records:
        assert r.pointwise_margin >= -1e-12
        assert r.norm_margin >= -1e-12
        assert not r.violation
    assert summary["violations"] == 0


def test_open_problem_scan_summary_and_implication():
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    records, summary = harness.run_open_problem_scan(
        mesh, params, trials=10, mu_grid=(0.25, 0.5, 0.75), seed=11
    )
    assert summary["records"] == 30
    assert summary["implication_holds"]
    assert summary["violations"] == summary["pointwise_violations"] or True  # reported only
    csv = harness.scan_csv_lines(records)
    assert csv[0].startswith("trial,mu,")
    assert len(csv) == 31


def test_scan_rejects_bad_mu():
    mesh = build_rectangle_mesh(2, 2)
    with pytest.raises(ValueError):
        harness.run_open_problem_scan(mesh, CostParams(weight=1.0), trials=1, mu_grid=(1.5,))


def test_experiments_deterministic_given_seed():
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    r1, s1 = harness.run_open_problem_scan(mesh, params, trials=5, mu_grid=(0.5,), seed=42)
    r2, s2 = harness.run_open_problem_scan(mesh, params, trials=5, mu_grid=(0.5,), seed=42)
    assert harness.scan_csv_lines(r1) == harness.scan_csv_lines(r2)
    assert s1 == s2
    l1 = harness.run_lipschitz_check(mesh, params, trials=5, seed=42)
    l2 = harness.run_lipschitz_check(mesh, params, trials=5, seed=42)
    assert l1 == l2


def test_random_control_range_and_smoothing():
    mesh = build_rectangle_mesh(5, 5)
    rng = np.random.default_rng(0)
    g = harness.random_control(mesh, rng, amplitude=3.0)
    assert np.all(np.abs(g) <= 3.0)
