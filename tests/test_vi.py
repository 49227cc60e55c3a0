import gc
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from reference import brute_force_oracle, residual_scale, verify_vi
from vicontrol import vi
from vicontrol.assembly import (
    assemble_mass,
    assemble_stiffness,
    block,
    coercivity_constant,
    h1_norm,
    l2_norm,
)
from vicontrol.control import ControlProblem, CostParams
from vicontrol.harness import random_control
from vicontrol.mesh import build_rectangle_mesh, prolongate, refine_uniform
from vicontrol.vi import (
    SolverError, dump_solution, lift_solution, solve_pdas, solve_psor, solve_reduced
)


def obstacle_problem(mesh, g, q, b):
    return ControlProblem(mesh, CostParams(1.0, q, b)).as_obstacle_problem(g)


@pytest.fixture
def mesh3():
    return build_rectangle_mesh(3, 3, gamma1_sides=("left",))


# non-square and one-cell-thin grids, one cell, and Gamma1 sides that leave vertex 0
# free, so that vertex 0 is not always a red Dirichlet node; each has <= 12 free nodes,
# which keeps the 2^n enumeration oracle fast
GRIDS = [
    (3, 3, ("left",)),
    (7, 2, ("left", "bottom", "top")),
    (2, 7, ("left", "right")),
    (1, 5, ("left",)),
    (5, 1, ("left",)),
    (1, 1, ("left",)),
    (3, 3, ("right",)),
    (3, 3, ("top",)),
]


def random_problem(mesh, rng):
    g = rng.uniform(-60, 20, mesh.num_vertices)
    b = rng.uniform(0.02, 1.0)
    q = rng.uniform(-2, 2)
    return obstacle_problem(mesh, g, float(q), float(b))


def test_constant_solution_both_solvers(mesh3):
    prob = obstacle_problem(mesh3, 0.0, 0.0, 1.0)
    for solver in (solve_psor, solve_pdas):
        sol = solver(prob)
        assert np.max(np.abs(sol.u - 1.0)) <= 1e-12
        assert sol.active_set.size == 0


def test_inactive_case_matches_linear_solve(mesh3):
    prob = obstacle_problem(mesh3, 10.0, 0.0, 1.0)
    free = prob.mesh.free_nodes
    dirichlet = prob.mesh.dirichlet_nodes
    a = prob.stiffness.tocsr()
    rhs = prob.load[free] - a[np.ix_(free, dirichlet)] @ np.ones(dirichlet.size)
    u_lin = np.ones(prob.mesh.num_vertices)
    u_lin[free] = spla.spsolve(a[np.ix_(free, free)].tocsc(), rhs)
    for solver in (solve_psor, solve_pdas):
        sol = solver(prob, tol=1e-12)
        assert sol.active_set.size == 0
        assert np.max(np.abs(sol.u - u_lin)) <= 1e-9


def test_active_case_matches_oracle():
    for nx, ny, sides in GRIDS:
        mesh = build_rectangle_mesh(nx, ny, gamma1_sides=sides)
        prob = obstacle_problem(mesh, -50.0, 0.0, 0.05)
        oracle = brute_force_oracle(prob)
        assert oracle.active_set.size > 0
        for solver in (solve_psor, solve_pdas):
            sol = solver(prob, tol=1e-12)
            assert np.max(np.abs(sol.u - oracle.u)) <= 1e-9
            assert np.array_equal(sol.active_set, oracle.active_set)


def test_all_active_when_b_zero(mesh3):
    prob = obstacle_problem(mesh3, -1.0, 0.0, 0.0)
    sol = solve_pdas(prob)
    assert np.all(sol.u == 0.0)
    assert np.array_equal(sol.active_set, prob.mesh.free_nodes)
    oracle = brute_force_oracle(prob)
    assert np.all(oracle.u == 0.0)


def test_pdas_one_update_when_inactive(mesh3):
    prob = obstacle_problem(mesh3, 10.0, 0.0, 1.0)
    sol = solve_pdas(prob)
    assert sol.iterations == 1


def test_pdas_started_from_its_own_state_takes_one_iteration_to_the_same_bits():
    # a warm start within tolerance still costs one solve: the optimizer's line search
    # relies on it (a start returned after 0 iterations stalls optimize-128 at iteration 4)
    mesh = build_rectangle_mesh(16, 16, gamma1_sides=("left",))
    prob = obstacle_problem(mesh, -10.0, 0.0, 1.0)
    cold = solve_pdas(prob)
    warm = solve_pdas(prob, u0=cold.u)
    assert (cold.iterations, warm.iterations) == (7, 1)
    assert warm.u.tobytes() == cold.u.tobytes()
    assert np.array_equal(warm.active_set, cold.active_set)


def test_pdas_peak_memory_of_a_warm_start():
    # sweep-512's data, warm-started from the state one level down, as the sweep does
    params = CostParams(1.0, 0.0, 0.05)
    coarse = build_rectangle_mesh(64, 64)
    fine = refine_uniform(coarse)
    u0 = prolongate(coarse, ControlProblem(coarse, params).solve_state(-50.0).u, fine)
    problem = ControlProblem(fine, params).as_obstacle_problem(-50.0)
    solve_pdas(problem, u0=u0)  # any one-time allocations made
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve_pdas(problem, u0=u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in full-length vectors of 8 n bytes: about 4.4 with the Dirichlet lift read from
    # each iteration's A u and A u - f released before each solve, 5.4
    # with the lift and A u - f both held over all n rows, 8.4 when u + mu < 0 and
    # the final residual formed their own temporaries
    assert (peak - before) / (8 * fine.num_vertices) <= 5.0


# the GRIDS on the unit square, larger and stretched ones, and a grid whose vertical
# couplings underflow to -0.0 (dx = 2.5e-164, so dx^2 is 0), which A stores and the
# CSR product drops
_LIFT_MESHES = [
    *((nx, ny, sides, (0.0, 0.0, 1.0, 1.0)) for nx, ny, sides in GRIDS),
    (13, 4, ("left", "top"), (-1.3, 0.2, 0.7, 3.1)),
    (48, 17, ("bottom",), (0.1, 0.0, 1.0, 1.7)),
    (4, 4, ("left",), (0.0, 0.0, 1e-163, 1.0)),
    (4, 4, ("right", "bottom"), (0.0, 0.0, 1e-163, 1.0)),
]


@pytest.mark.parametrize("nx, ny, sides, domain", _LIFT_MESHES)
def test_lift_rows_and_values_match_the_csr_computation(nx, ny, sides, domain):
    # solve_pdas's Dirichlet lift on an inactive set I, the rows I of A u with u = b on
    # Gamma1 and 0 elsewhere, against the CSR product A[I][:, D] b, to the bit: on all free
    # nodes, on a random half of them, and on the free nodes next to Gamma1 alone or with
    # none of them; b = 0 makes every product a signed zero
    mesh = build_rectangle_mesh(nx, ny, domain, sides)
    a = assemble_stiffness(mesh)
    free, dirichlet = mesh.free_nodes, mesh.dirichlet_nodes
    rng = np.random.default_rng(nx)
    drawn = rng.uniform(0.02, 1.0)
    csr = a.tocsr()
    coupled = np.isin(free, csr[dirichlet].indices)
    half = np.sort(rng.choice(free, free.size // 2 + 1, replace=False))
    for b in (drawn, 0.0):
        u = np.zeros(mesh.num_vertices)
        u[dirichlet] = b
        for inactive in (free, half, free[coupled], free[~coupled]):
            lift = csr[inactive][:, dirichlet] @ np.full(dirichlet.size, b)
            assert (a @ u)[inactive].tobytes() == lift.tobytes()


def test_solve_reduced_peak_memory_on_the_full_free_set():
    # in full-length vectors of 8 n bytes: about 14 for the block cut from A's
    # diagonals and released temporaries, 17.3 for a CSR slice and its tocsc()
    mesh = build_rectangle_mesh(128, 128)
    a, free = assemble_stiffness(mesh), mesh.free_nodes
    rhs = np.ones(free.size)
    solve_reduced(a, free, rhs)  # one-time allocations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve_reduced(a, free, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / (8 * mesh.num_vertices) <= 17


def test_singular_reduced_system_raises_without_a_warning():
    # a zero column makes the block exactly singular: SuperLU's warning would only repeat
    # what the SolverError says, so none escapes, even where warnings are errors
    a = sp.dia_matrix((np.array([[1.0, 0.0, 1.0]]), [0]), shape=(3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"^solution of the reduced system is not finite$"):
            solve_reduced(a, np.arange(3), np.ones(3))


def test_psor_not_converged_flagged():
    # no sweep reaches tol 1e-300, so PSOR stops at its cap of 50 sweeps per vertex and raises
    mesh = build_rectangle_mesh(6, 6, gamma1_sides=("left",))
    prob = obstacle_problem(mesh, 10.0, 0.0, 1.0)
    with pytest.raises(SolverError) as failed:
        solve_psor(prob, tol=1e-300)
    assert failed.value.solution.iterations == 50 * prob.mesh.num_vertices


@pytest.mark.parametrize(
    "solve, n, g, b, cap",
    [
        (solve_pdas, 8, 10.0, 1.0, lambda size: 100),
        (solve_psor, 6, 10.0, 1.0, lambda size: 50 * size),
        (lift_solution, 4, 0.0, 0.05, lambda size: 0),  # no load: the lift is the state
    ],
    ids=["pdas", "psor", "lift"],
)
def test_every_state_path_returns_only_a_solution_within_tolerance(solve, n, g, b, cap):
    # a returned solution's complementarity residual, recomputed here, is within
    # tol * max(1, ||f||_inf, b); at tol 1e-300 each path misses after its cap and raises
    # SolverError carrying the unconverged solution, whose residual its reason reads
    prob = obstacle_problem(build_rectangle_mesh(n, n, gamma1_sides=("left",)), g, 0.0, b)
    free = prob.mesh.free_nodes

    def residual(sol):
        r = prob.stiffness @ sol.u - prob.load
        return float(np.abs(np.minimum(sol.u[free], r[free])).max())

    sol = solve(prob, tol=1e-10)
    assert sol.complementarity_residual == residual(sol) <= 1e-10 * residual_scale(prob)
    with pytest.raises(SolverError, match=r"^state solve did not converge \(residual ") as failed:
        solve(prob, tol=1e-300)
    missed = failed.value.solution
    assert missed.complementarity_residual == residual(missed) > 1e-300
    assert missed.iterations == cap(prob.mesh.num_vertices)
    assert str(failed.value) == (
        f"state solve did not converge (residual {missed.complementarity_residual:.3e})"
    )


@pytest.mark.parametrize("solve", [solve_pdas, solve_psor], ids=["pdas", "psor"])
@pytest.mark.parametrize("b", [1e3, 1e5, 1e6])
def test_tolerance_scales_with_the_dirichlet_value(solve, b):
    # the residual min(u, A u - f) is formed through A u, whose roundoff grows with b: PDAS's
    # exact solve at b = 1e5 leaves 1.019e-10 against ||f||_inf = 0.078, so the tolerance
    # must scale with b for any solve to meet it
    prob = obstacle_problem(build_rectangle_mesh(8, 8, gamma1_sides=("left",)), -5.0, 0.0, b)
    assert residual_scale(prob) == b
    sol = solve(prob, tol=1e-10)
    assert sol.complementarity_residual <= 1e-10 * b


def test_psor_sweeps_on_32x32():
    # the psor-32 bench problem takes 350 red-black sweeps; an ordering in which
    # neighbours share a colour updates them Jacobi-like and needs far more
    mesh = build_rectangle_mesh(32, 32, gamma1_sides=("left",))
    def g(x, y):
        return -40.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * 0.2**2))

    sol = solve_psor(obstacle_problem(mesh, g, 0.0, 1.0))
    assert sol.iterations <= 380


def test_psor_colours_split_free_nodes(monkeypatch):
    # PSOR cuts each colour's rows from A: the two colours split the free nodes, and A
    # couples no two nodes of one colour, so a colour's half-sweep is one array update
    cut = []

    def recording_block(a, rows, cols):
        cut.append(rows)
        return block(a, rows, cols)

    monkeypatch.setattr(vi, "block", recording_block)
    grids = [(2, 2, ("left",)), (7, 2, ("right",)), (2, 7, ("top", "bottom")), (1, 1, ("top",))]
    for nx, ny, sides in grids:
        m = build_rectangle_mesh(nx, ny, gamma1_sides=sides)
        cut.clear()
        solve_psor(obstacle_problem(m, -5.0, 0.0, 0.5))
        assert len(cut) == 2
        assert np.array_equal(np.sort(np.concatenate(cut)), m.free_nodes)
        a = assemble_stiffness(m).tocsr()
        for nodes in cut:
            colour = a[np.ix_(nodes, nodes)]
            assert colour.nnz == nodes.size and np.all(colour.diagonal() > 0)


def test_negative_dirichlet_rejected(mesh3):
    with pytest.raises(ValueError):
        obstacle_problem(mesh3, 0.0, 0.0, -1.0)


def test_brute_force_limits():
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))  # 20 free nodes
    prob = obstacle_problem(mesh, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        brute_force_oracle(prob)


def test_brute_force_unique_partition(mesh3):
    rng = np.random.default_rng(5)
    prob = random_problem(mesh3, rng)
    oracle = brute_force_oracle(prob)
    # re-running from scratch gives the same active set; solvers agree
    again = brute_force_oracle(prob)
    assert np.array_equal(oracle.active_set, again.active_set)
    sol = solve_pdas(prob, tol=1e-12)
    assert np.max(np.abs(sol.u - oracle.u)) <= 1e-9


def test_uniqueness_from_random_starts(mesh3):
    prob = obstacle_problem(mesh3, -30.0, 1.0, 0.4)
    rng = np.random.default_rng(9)
    ref = solve_psor(prob, tol=1e-12).u
    for _ in range(5):
        u0 = rng.uniform(0.0, 2.0, prob.mesh.num_vertices)
        sol = solve_psor(prob, tol=1e-12, u0=u0)
        assert np.max(np.abs(sol.u - ref)) <= 1e-8


def test_cross_method_agreement_in_v_norm():
    rng = np.random.default_rng(17)
    for nx, ny, sides in [(6, 6, ("left", "bottom")), *GRIDS[1:]]:
        mesh = build_rectangle_mesh(nx, ny, gamma1_sides=sides)
        a, m = assemble_stiffness(mesh), assemble_mass(mesh)
        for _ in range(5):
            g = rng.uniform(-40, 10, mesh.num_vertices)
            prob = obstacle_problem(mesh, g, 0.5, 0.3)
            u1 = solve_psor(prob, tol=1e-12).u
            u2 = solve_pdas(prob, tol=1e-12).u
            assert h1_norm(u1 - u2, a, m) <= 1e-8


def test_kkt_invariants_of_solution(mesh3):
    prob = obstacle_problem(mesh3, -50.0, 0.0, 0.05)
    sol = solve_pdas(prob, tol=1e-12)
    tol = 1e-9 * residual_scale(prob)
    assert np.all(sol.u[prob.mesh.dirichlet_nodes] == 0.05)
    assert np.all(sol.u >= -tol)
    r = prob.stiffness @ sol.u - prob.load
    free = prob.mesh.free_nodes
    active = set(sol.active_set.tolist())
    for i in free:
        if i in active:
            assert r[i] >= -tol and sol.u[i] <= tol
        else:
            assert abs(r[i]) <= tol


OPTIMAL_CONTROL_8X8 = Path(__file__).parent / "data" / "optimal_control_8x8.txt"


def test_pdas_settles_on_an_active_set_cycle_longer_than_two():
    # at the optimal control of the 8x8, M = 1e-3 problem, u and A u - f both vanish to
    # roundoff on nodes that flip from step to step: the active sets cycle with period 3
    # and never settle, but the states are within tolerance, which alone ends the run
    mesh = build_rectangle_mesh(8, 8, gamma1_sides=("left",))
    g = np.loadtxt(OPTIMAL_CONTROL_8X8)
    prob = obstacle_problem(mesh, g, 0.0, 0.05)
    sol = solve_pdas(prob)
    assert sol.iterations <= 10
    assert sol.complementarity_residual <= 1e-10 * residual_scale(prob)


def test_optimal_control_fixture_is_the_8x8_optimum():
    # the fixture's recorded J, and the sign conditions of its KKT point: the optimal
    # control is -lambda/M on the free nodes, with lambda >= 0, and 0 on Gamma1
    mesh = build_rectangle_mesh(8, 8, gamma1_sides=("left",))
    g = np.loadtxt(OPTIMAL_CONTROL_8X8)
    cp = ControlProblem(mesh, CostParams(1e-3, 0.0, 0.05))
    report = cp.cost(g, cp.solve_state(g))
    assert report.cost == pytest.approx(1.6364016482e-4, rel=1e-10)
    assert np.all(g <= 0.0)
    assert np.all(g[mesh.dirichlet_nodes] == 0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: optimize stalls at iteration 41")
def test_optimize_reaches_the_8x8_optimum_at_a_small_weight():
    # from g0 = -50 the BB/Armijo loop stalls at biactive nodes, 3.0e-4 above the fixture's J
    mesh = build_rectangle_mesh(8, 8, gamma1_sides=("left",))
    res = ControlProblem(mesh, CostParams(1e-3, 0.0, 0.05)).optimize(-50.0)
    assert res.failure is None
    assert res.report.cost == pytest.approx(1.6364016482e-4, rel=1e-10)
    assert np.all(res.control <= 0.0)
    assert np.all(res.control[mesh.dirichlet_nodes] == 0.0)


@pytest.mark.parametrize("width", [1e-100, 8e-150])
def test_pdas_converges_on_cells_too_thin_for_their_active_sets_to_settle(width):
    # on cells 1e100 times longer than wide, u and A u - f vanish to roundoff together and
    # the predicted active set never repeats, but the first solved state is within tolerance
    mesh = build_rectangle_mesh(8, 8, (0.0, 0.0, width, 1.0), ("bottom",))
    cp = ControlProblem(mesh, CostParams(1.0, 0.0, 0.05))
    g = random_control(mesh, np.random.default_rng(0), 10.0)
    sol = cp.solve_state(g)  # raises SolverError unless converged
    assert sol.complementarity_residual <= 1e-10 * residual_scale(cp.as_obstacle_problem(g))


def test_verify_vi_probes(mesh3):
    prob = obstacle_problem(mesh3, -50.0, 0.0, 0.05)
    sol = solve_pdas(prob, tol=1e-12)
    # v = u gives exactly zero
    assert verify_vi(prob, sol, [sol.u]) == pytest.approx(0.0, abs=1e-30)
    # constant b is in the feasible set
    assert verify_vi(prob, sol, [np.full(prob.mesh.num_vertices, 0.05)]) >= -1e-10
    rng = np.random.default_rng(23)
    probes = []
    for _ in range(100):
        v = rng.uniform(0.0, 1.0, prob.mesh.num_vertices)
        v[prob.mesh.dirichlet_nodes] = 0.05
        probes.append(v)
    assert verify_vi(prob, sol, probes) >= -1e-9


def test_verify_vi_rejects_infeasible_probe(mesh3):
    prob = obstacle_problem(mesh3, 0.0, 0.0, 1.0)
    sol = solve_pdas(prob)
    bad = np.full(prob.mesh.num_vertices, -1.0)
    with pytest.raises(ValueError):
        verify_vi(prob, sol, [bad])


def test_uniform_bound_over_levels():
    # fixed g, refinement levels 0..4: V-norms stay bounded, no growth trend
    params_g = -20.0
    norms = []
    mesh = build_rectangle_mesh(2, 2, gamma1_sides=("left",))
    for _ in range(5):
        prob = obstacle_problem(mesh, params_g, 0.0, 0.5)
        sol = solve_pdas(prob, tol=1e-12)
        norms.append(h1_norm(sol.u, prob.stiffness, assemble_mass(mesh)))
        mesh = refine_uniform(mesh)
    assert max(norms) / min(norms) < 10.0
    # no growth trend once resolved: the tail levels plateau
    assert norms[-1] <= norms[-2] * 1.05


def test_lipschitz_bound_random_pairs():
    mesh = build_rectangle_mesh(5, 5, gamma1_sides=("left",))
    a, m = assemble_stiffness(mesh), assemble_mass(mesh)
    lam = coercivity_constant(a, m, mesh.free_nodes)
    rng = np.random.default_rng(31)
    for _ in range(20):
        g1 = rng.uniform(-10, 10, mesh.num_vertices)
        g2 = rng.uniform(-10, 10, mesh.num_vertices)
        u1 = solve_pdas(obstacle_problem(mesh, g1, 0.0, 0.5), tol=1e-12).u
        u2 = solve_pdas(obstacle_problem(mesh, g2, 0.0, 0.5), tol=1e-12).u
        lhs = h1_norm(u2 - u1, a, m)
        rhs = l2_norm(g2 - g1, m) / lam
        assert lhs <= rhs + 1e-9


def test_strong_continuity_in_g():
    # g_n -> g strongly: states converge (Lipschitz consequence)
    mesh = build_rectangle_mesh(4, 4, gamma1_sides=("left",))
    rng = np.random.default_rng(37)
    g = rng.uniform(-20, 5, mesh.num_vertices)
    u = solve_pdas(obstacle_problem(mesh, g, 0.0, 0.3), tol=1e-12).u
    d = rng.normal(size=mesh.num_vertices)
    a, m = assemble_stiffness(mesh), assemble_mass(mesh)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        un = solve_pdas(obstacle_problem(mesh, g + eps * d, 0.0, 0.3), tol=1e-12).u
        errs.append(h1_norm(un - u, a, m))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-2


def test_solution_dump(tmp_path, mesh3):
    prob = obstacle_problem(mesh3, -50.0, 0.0, 0.05)
    sol = solve_pdas(prob)
    path = tmp_path / "sol.csv"
    dump_solution(mesh3, sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u,active"
    assert len(lines) == mesh3.num_vertices + 1
    assert sum(l.endswith(",1") for l in lines[1:]) == sol.active_set.size
