import numpy as np
import pytest

from vicontrol import control, harness
from vicontrol.assembly import (
    assemble_mass,
    assemble_stiffness,
    coercivity_constant,
    h1_norm,
    l2_norm,
)
from vicontrol.cli import RunConfig
from vicontrol.control import CostParams
from vicontrol.mesh import build_rectangle_mesh, prolongate, refine_times
from vicontrol.vi import SolverError, solve_pdas

MU_GRID = RunConfig.mu_grid  # the default mu grid, which the CLI config holds


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
    assert l2_norm(lifted, m_f) == pytest.approx(l2_norm(field, m_c), abs=1e-12)
    assert h1_norm(lifted, a_f, m_f) == pytest.approx(h1_norm(field, a_c, m_c), abs=1e-12)


def test_state_convergence_exact_constant_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 0.0, params, levels=3, oracle_extra_levels=2)
    for row in table.rows:
        assert row.error_V <= 1e-11
        assert row.error_H <= 1e-11
        assert row.cost == pytest.approx(0.5, abs=1e-12)


def test_state_convergence_smooth_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 10.0, params, levels=4, oracle_extra_levels=2)
    errs = [r.error_V for r in table.rows]
    assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
    assert table.rate_v >= 0.9


def test_cost_convergence_smooth_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 10.0, params, levels=4, oracle_extra_levels=2)
    run = harness.run_cost_convergence(table)
    gaps = [r.gap for r in run["rows"]]
    assert all(gaps[k + 1] < gaps[k] for k in range(len(gaps) - 1))
    assert run["rate"] >= 0.5


def test_cost_convergence_exact_case(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 0.0, params, levels=3, oracle_extra_levels=2)
    run = harness.run_cost_convergence(table)
    assert all(r.gap <= 1e-11 for r in run["rows"])


def test_sweep_solves_each_problem_once(base, monkeypatch):
    sizes = []  # unknowns per PDAS call

    def counting(problem, **kwargs):
        sizes.append(problem.mesh.num_vertices)
        return solve_pdas(problem, **kwargs)

    monkeypatch.setattr(control, "solve_pdas", counting)
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base, 10.0, params, levels=3, oracle_extra_levels=2)
    run = harness.run_cost_convergence(table)
    # three levels (2x2 to 8x8), the 16x16 start of the 32x32 oracle's cold solve, and the oracle
    assert len(sizes) == len(set(sizes)) == 3 + 1 + 1
    assert sizes.count(refine_times(base, 4).num_vertices) == 1
    assert table.oracle_level == 4
    assert [r.cost for r in run["rows"]] == [r.cost for r in table.rows]


def test_nested_iteration_changes_no_bits(monkeypatch):
    iterations = []  # (unknowns, PDAS iterations) per solve

    def counting(problem, **kwargs):
        sol = solve_pdas(problem, **kwargs)
        iterations.append((problem.mesh.num_vertices, sol.iterations))
        return sol

    monkeypatch.setattr(control, "solve_pdas", counting)
    base4 = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_state_convergence(base4, -50.0, params, levels=4, oracle_extra_levels=2)

    # the oracle solved truly cold, from u = b with no nested start, and the levels one mesh
    # at a time
    oracle_cp = control.ControlProblem(refine_times(base4, 5), params)
    oracle = oracle_cp.cost(-50.0, counting(oracle_cp.as_obstacle_problem(-50.0)))
    oracle_solves = [it for n, it in iterations if n == oracle_cp.mesh.num_vertices]
    assert len(oracle_solves) == 2
    warm_oracle_iterations, cold_oracle_iterations = oracle_solves
    assert table.oracle_cost == oracle.cost
    for k, row in enumerate(table.rows):
        mesh = refine_times(base4, k)
        cp = control.ControlProblem(mesh, params)
        report = cp.cost(-50.0, cp.solve_state(-50.0))
        diff = prolongate(mesh, report.state.u, oracle_cp.mesh) - oracle.state.u
        assert row.cost == report.cost
        assert row.error_V == h1_norm(diff, oracle_cp.stiffness, oracle_cp.mass)
        assert row.error_H == l2_norm(diff, oracle_cp.mass)
    assert oracle.state.active_set.size > 0  # the obstacle is active
    assert warm_oracle_iterations < cold_oracle_iterations


@pytest.mark.parametrize("extra", [1, 2])  # at 2, the 32x32 oracle starts from its 16x16 mesh
def test_psor_sweep_agrees_with_pdas_sweep(base, extra):
    def g(x, y):
        return -40.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.08)

    tables = [
        harness.run_state_convergence(
            base, g, CostParams(1.0, 0.0, 0.05, solver=solver), levels=3, oracle_extra_levels=extra
        )
        for solver in ("pdas", "psor")
    ]
    assert tables[1].rate_v == pytest.approx(tables[0].rate_v, rel=1e-6)
    assert tables[1].rate_h == pytest.approx(tables[0].rate_h, rel=1e-6)


def test_oracle_climb_settles_its_active_set_and_changes_no_bits(monkeypatch):
    iterations = []  # (unknowns, PDAS iterations) per solve

    def counting(problem, **kwargs):
        sol = solve_pdas(problem, **kwargs)
        iterations.append((problem.mesh.num_vertices, sol.iterations))
        return sol

    monkeypatch.setattr(control, "solve_pdas", counting)
    base4 = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.05)
    table = harness.run_state_convergence(base4, -50.0, params, levels=4, oracle_extra_levels=3)
    oracle_mesh = refine_times(base4, 6)  # 256x256, started from 128x128, from 64x64, ...
    assert [it for n, it in iterations if n == oracle_mesh.num_vertices] == [1]
    iterations.clear()

    # the same levels, then the oracle warm-started straight from the prolongated 32x32 state
    below = None
    states = []
    for k in range(4):
        cp = control.ControlProblem(refine_times(base4, k), params)
        state = cp.solve_state(-50.0, prolongate(*below, cp.mesh) if below else None)
        states.append((cp.mesh, state.u, cp.cost(-50.0, state).cost))
        below = cp.mesh, state.u
    oracle_cp = control.ControlProblem(oracle_mesh, params)
    oracle_state = oracle_cp.solve_state(-50.0, prolongate(*below, oracle_mesh))
    assert iterations[-1] == (oracle_mesh.num_vertices, 3)
    assert table.oracle_cost == oracle_cp.cost(-50.0, oracle_state).cost
    assert oracle_state.active_set.size > 0  # the obstacle is active
    for row, (mesh, u, cost) in zip(table.rows, states, strict=True):
        diff = prolongate(mesh, u, oracle_mesh) - oracle_state.u
        assert row.cost == cost
        assert row.error_V == h1_norm(diff, oracle_cp.stiffness, oracle_cp.mass)
        assert row.error_H == l2_norm(diff, oracle_cp.mass)


def test_sweep_levels_against_the_exact_state():
    # sweep-512's family: q = 0, Gamma1 = {left}, b = 0.05, g = -50, whose exact state is
    # u* = b (1 - x/a)_+^2 with a = sqrt(2b/|g|). The H1 distance of each level state to
    # I_512 u* falls at every refinement, at a rate of at least 1/2, and by the triangle
    # inequality lies within ||I_512 u* - u_512|| of the row's distance to the 512x512 oracle
    b, g = 0.05, -50.0
    base4 = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=b)
    table = harness.run_state_convergence(base4, g, params, levels=5, oracle_extra_levels=3)
    oracle_cp = control.ControlProblem(refine_times(base4, 7), params)
    a_o, m_o = oracle_cp.stiffness, oracle_cp.mass
    x = oracle_cp.mesh.vertices[:, 0]
    exact = b * np.maximum(1.0 - x / np.sqrt(2 * b / abs(g)), 0.0) ** 2
    bound = h1_norm(exact - oracle_cp.solve_state(g).u, a_o, m_o)
    assert 0 < bound < 1e-4
    errors = []
    for row in table.rows:
        cp = control.ControlProblem(refine_times(base4, row.level), params)
        lifted = prolongate(cp.mesh, cp.solve_state(g).u, oracle_cp.mesh)
        errors.append(h1_norm(lifted - exact, a_o, m_o))
        assert abs(errors[-1] - row.error_V) <= bound
    assert all(finer < coarser for coarser, finer in zip(errors, errors[1:]))
    assert harness.fit_rate([r.h for r in table.rows], errors) >= 0.5


def test_failed_start_is_skipped(base, monkeypatch):
    # a start only guesses PDAS's first active set: the 64x64 oracle, whose 32x32 start
    # fails, is solved from u = b, and its row values are those of that cold solve
    solve_state = control.ControlProblem.solve_state
    failed = []

    def failing_at_32(cp, g, warm_start=None):
        sol = solve_state(cp, g, warm_start)
        if cp.mesh.nx == 32:
            failed.append(sol)
            raise SolverError("state solve did not converge (residual 1.000e+00)", sol)
        return sol

    monkeypatch.setattr(control.ControlProblem, "solve_state", failing_at_32)
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.05)
    # levels 2x2 and 4x4; the 64x64 oracle starts from 32x32, which starts from 16x16
    table = harness.run_state_convergence(base, -50.0, params, levels=2, oracle_extra_levels=4)
    assert len(failed) == 1
    levels = [base, refine_times(base, 1)]
    oracle_cp = control.ControlProblem(refine_times(levels[-1], 4), params)
    cold = solve_pdas(oracle_cp.as_obstacle_problem(-50.0))
    assert cold.active_set.size > 0  # the obstacle is active
    assert table.oracle_cost == oracle_cp.cost(-50.0, cold).cost
    for row, mesh in zip(table.rows, levels, strict=True):
        u = control.ControlProblem(mesh, params).solve_state(-50.0).u
        diff = prolongate(mesh, u, oracle_cp.mesh) - cold.u
        assert row.error_V == h1_norm(diff, oracle_cp.stiffness, oracle_cp.mass)


def test_failed_solve_names_its_level(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0, tol=1e-300)
    with pytest.raises(SolverError, match=r"^level \d+ \(\d+x\d+\): state solve") as info:
        harness.run_state_convergence(base, 10.0, params, levels=2, oracle_extra_levels=1)
    assert info.value.solution is not None


def test_control_study_names_its_level(base, monkeypatch):
    optimize = control.ControlProblem.optimize

    def unconverged(self, *args, **kwargs):
        res = optimize(self, *args, **kwargs)
        return res._replace(failure="optimizer did not converge (gradient norm 1.000e+00)")

    monkeypatch.setattr(control.ControlProblem, "optimize", unconverged)
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    with pytest.raises(SolverError, match=r"^level \d+ \(\d+x\d+\): optimizer did not converge"):
        harness.run_control_convergence(base, params, levels=2, oracle_extra_levels=1)


def test_control_convergence_rows_match_cold_optimize_runs(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_control_convergence(base, params, levels=3, oracle_extra_levels=2)

    # the same problems optimized cold, one mesh at a time
    oracle_cp = control.ControlProblem(refine_times(base, 4), params)
    oracle = oracle_cp.optimize(0.0)
    assert table.oracle_level == 4
    assert table.oracle_cost == oracle.report.cost
    for k, row in enumerate(table.rows):
        mesh = refine_times(base, k)
        res = control.ControlProblem(mesh, params).optimize(0.0)
        du = prolongate(mesh, res.report.state.u, oracle_cp.mesh) - oracle.report.state.u
        dg = prolongate(mesh, res.control, oracle_cp.mesh) - oracle.control
        assert row.level == k and row.cost == res.report.cost
        assert row.error_V == h1_norm(du, oracle_cp.stiffness, oracle_cp.mass)
        assert row.error_H == l2_norm(du, oracle_cp.mass)
        assert row.control_distance == l2_norm(dg, oracle_cp.mass)
    hs = [r.h for r in table.rows]
    assert table.rate_h == harness.fit_rate(hs, [r.control_distance for r in table.rows])


@pytest.mark.parametrize("levels, extra", [(0, 1), (2, 0), (1, 1)])  # a rate needs two levels
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
        assert row.error_V <= 1e-7


def test_control_convergence_decreasing(base):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    table = harness.run_control_convergence(base, params, levels=3, oracle_extra_levels=2)
    dists = [r.control_distance for r in table.rows]
    assert dists[1] < dists[0] and dists[2] < dists[1]


def test_lipschitz_check_bound():
    mesh = build_rectangle_mesh(6, 6, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    _, summary = harness.run_open_problem_scan(mesh, params, 10, (0.5,), seed=3, amplitude=10.0)
    assert summary["worst_lipschitz_ratio"] <= 1.0 + 1e-9

    # the same pairs, drawn and solved one by one: the worst ratio agrees to the bit
    cp = control.ControlProblem(mesh, params)
    a, m = cp.stiffness, cp.mass
    lam = coercivity_constant(a, m, cp.mesh.free_nodes)
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(10):
        g1 = harness.random_control(mesh, rng, 10.0)
        g2 = harness.random_control(mesh, rng, 10.0)
        du = cp.solve_state(g2).u - cp.solve_state(g1).u
        ratios.append(lam * h1_norm(du, a, m) / l2_norm(g2 - g1, m))
    assert summary["lambda_h"] == lam
    assert summary["worst_lipschitz_ratio"] == max(ratios)


@pytest.mark.parametrize(
    "failing_call, stage",
    [(0, "trial 0"), (1, "trial 0"), (2, "trial 0, mu=0.5"), (4, "trial 1"), (5, "trial 1, mu=0.5")],
)
def test_scan_names_the_state_solve_that_failed(monkeypatch, failing_call, stage):
    # each trial solves u1, u2 and then u4 for each mu: the chosen call fails, and the
    # error names its trial (and mu for u4) and keeps the unconverged state
    solve_state = control.ControlProblem.solve_state
    calls = []

    def failing(cp, g, warm_start=None):
        sol = solve_state(cp, g, warm_start)
        calls.append(sol)
        if len(calls) - 1 == failing_call:
            raise SolverError("state solve did not converge (residual 1.000e+00)", sol)
        return sol

    monkeypatch.setattr(control.ControlProblem, "solve_state", failing)
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.05)
    with pytest.raises(SolverError) as info:
        harness.run_open_problem_scan(mesh, params, 2, (0.5,), seed=0, amplitude=10.0)
    assert str(info.value) == f"{stage}: state solve did not converge (residual 1.000e+00)"
    assert info.value.solution is calls[-1]


def test_lipschitz_check_validates_trials():
    mesh = build_rectangle_mesh(2, 2)
    with pytest.raises(ValueError, match="trials"):
        harness.run_open_problem_scan(mesh, CostParams(weight=1.0), 0, MU_GRID, 0, 10.0)


@pytest.mark.parametrize("amplitude", [0.0, -1.0, 1.0e-200])
def test_lipschitz_check_validates_amplitude(amplitude, monkeypatch):
    # at amplitude 0, and at 1e-200 where ||g2 - g1||_H underflows, every pair of controls is
    # 0 apart and counts no ratio; a capped draw count fails a scan that would resample them
    draws, draw = [], harness.random_control

    def capped(*args):
        draws.append(args)
        assert len(draws) <= 100, "controls resampled 100 times"
        return draw(*args)

    monkeypatch.setattr(harness, "random_control", capped)
    mesh, params = build_rectangle_mesh(2, 2), CostParams(weight=1.0)
    if amplitude < 0:
        with pytest.raises(ValueError, match="amplitude"):
            harness.run_open_problem_scan(mesh, params, 3, MU_GRID, 0, amplitude)
        return
    _, summary = harness.run_open_problem_scan(mesh, params, 3, (0.5,), 0, amplitude)
    assert summary["lambda_h"] > 0
    assert summary["worst_lipschitz_ratio"] is None


def test_open_problem_scan_endpoints_and_identical_controls():
    mesh = build_rectangle_mesh(3, 3, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    records, summary = harness.run_open_problem_scan(
        mesh, params, trials=5, mu_grid=(0.0, 1.0), seed=7, amplitude=10.0
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
        mesh, params, trials=10, mu_grid=(0.25, 0.5, 0.75), seed=11, amplitude=10.0
    )
    assert summary["records"] == 30
    assert summary["implication_holds"]
    # the ordering is a theorem for this discretization: no margin falls below the tolerance
    assert summary["violations"] == summary["pointwise_violations"] == 0
    assert summary["norm_violations"] == 0


def test_write_lines_writes_floats_as_repr_and_ints_as_integers(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        (0, 0.1, float("nan"), -0.0, 1e-300, True),
        (np.int64(7), np.float64(2.5), np.float64("-inf"), np.int32(-3), np.bool_(False), False),
    ]
    harness.write_lines(path, "a,b,c,d,e,f", rows)
    assert path.read_bytes() == b"a,b,c,d,e,f\n0,0.1,nan,-0.0,1e-300,1\n7,2.5,-inf,-3,0,0\n"
    # no header line; a str row is written as it is, a row of cells as above
    harness.write_lines(path, None, ["%.18e" % 0.1, (1.0,)])
    assert path.read_bytes() == b"1.000000000000000056e-01\n1.0\n"


def test_write_json_writes_non_finite_floats_as_null_at_any_depth(tmp_path):
    path = tmp_path / "summary.json"
    payload = {
        "b": [float("nan"), (float("inf"), 0.1), {"c": np.float64("nan")}],
        "a": {"ok": True, "n": 3, "x": np.float64(2.5), "y": -0.0, "z": None, "s": "pdas"},
        "d": -float("inf"),
    }
    harness.write_json(path, payload)
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": {\n    "n": 3,\n    "ok": true,\n    "s": "pdas",\n    "x": 2.5,\n'
        '    "y": -0.0,\n    "z": null\n  },\n  "b": [\n    null,\n    [\n      null,\n'
        '      0.1\n    ],\n    {\n      "c": null\n    }\n  ],\n  "d": null\n}\n'
    )


@pytest.mark.parametrize(
    "mu_grid", [(1.5,), (), (float("nan"),)], ids=["above_one", "empty", "nan"]
)
def test_scan_rejects_bad_mu(mu_grid, monkeypatch):
    # before any solve: not after every pair is solved (an empty grid), nor in interpolate (NaN)
    monkeypatch.setattr(harness.ControlProblem, "solve_state", lambda *_: pytest.fail("solved"))
    mesh = build_rectangle_mesh(2, 2)
    with pytest.raises(ValueError, match="mu_grid"):
        harness.run_open_problem_scan(mesh, CostParams(weight=1.0), 1, mu_grid, 0, 10.0)


def test_experiments_deterministic_given_seed():
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    r1, s1 = harness.run_open_problem_scan(mesh, params, 5, (0.5,), seed=42, amplitude=10.0)
    r2, s2 = harness.run_open_problem_scan(mesh, params, 5, (0.5,), seed=42, amplitude=10.0)
    assert repr(r1) == repr(r2)
    assert s1 == s2  # the worst Lipschitz ratio included


def test_random_control_range_and_smoothing():
    mesh = build_rectangle_mesh(5, 5)
    rng = np.random.default_rng(0)
    g = harness.random_control(mesh, rng, amplitude=3.0)
    assert np.all(np.abs(g) <= 3.0)
