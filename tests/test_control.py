import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from vicontrol import control
from vicontrol.assembly import assemble_boundary_flux, assemble_mass, l2_norm
from vicontrol.control import ControlProblem, CostParams
from vicontrol.mesh import build_rectangle_mesh, prolongate
from vicontrol.vi import SolverError, solve_pdas


@pytest.fixture
def mesh():
    return build_rectangle_mesh(4, 4, gamma1_sides=("left",))


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(weight=0.0)
    with pytest.raises(ValueError):
        CostParams(weight=1.0, dirichlet=-0.1)


def test_cost_of_zero_control_unit_square(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    report = cp.cost(0.0, cp.solve_state(0.0))
    # state is identically 1, so J = 1/2 * area = 1/2
    assert report.control_term == 0.0
    assert report.cost == pytest.approx(0.5, abs=1e-12)
    assert report.state_term == pytest.approx(0.5, abs=1e-12)


def test_cost_linear_in_weight(mesh):
    g = np.full(mesh.num_vertices, 2.0)
    cp1 = ControlProblem(mesh, CostParams(weight=1.0, dirichlet=1.0))
    cp2 = ControlProblem(mesh, CostParams(weight=2.0, dirichlet=1.0))
    r1, r2 = cp1.cost(g, cp1.solve_state(g)), cp2.cost(g, cp2.solve_state(g))
    assert r2.cost - r1.cost == pytest.approx(r1.control_term, rel=1e-12)
    assert r2.state_term == pytest.approx(r1.state_term, rel=1e-12)


def test_cost_report_consistency(mesh):
    params = CostParams(weight=0.7, flux=0.5, dirichlet=0.8)
    rng = np.random.default_rng(2)
    g = rng.uniform(-5, 5, mesh.num_vertices)
    cp = ControlProblem(mesh, params)
    report = cp.cost(g, cp.solve_state(g))
    assert report.cost == pytest.approx(report.state_term + report.control_term, rel=1e-14)
    assert report.state_term >= 0 and report.control_term >= 0


def test_gradient_zero_at_trivial_optimum(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.0)
    cp = ControlProblem(mesh, params)
    grad = cp.gradient(0.0, cp.solve_state(0.0))
    assert np.max(np.abs(grad)) <= 1e-14


def test_gradient_all_active_is_penalty_only(mesh):
    params = CostParams(weight=2.0, flux=0.0, dirichlet=0.0)
    g = np.full(mesh.num_vertices, -1.0)
    cp = ControlProblem(mesh, params)
    state = cp.solve_state(g)
    assert state.active_set.size == cp.dofs.free_nodes.size
    grad = cp.gradient(g, state)
    assert np.allclose(grad, 2.0 * g, atol=1e-14)


def cost_of(cp, g):
    return cp.cost(g, cp.solve_state(g)).cost


def finite_difference_check(cp, g, directions, step=1e-5):
    grad = cp.gradient(g, cp.solve_state(g))
    worst = 0.0
    for d in directions:
        jp = cost_of(cp, g + step * d)
        jm = cost_of(cp, g - step * d)
        fd = (jp - jm) / (2 * step)
        an = float(grad @ (cp.mass @ d))
        worst = max(worst, abs(fd - an) / max(1e-12, abs(fd)))
    return worst


def test_gradient_matches_finite_differences_inactive(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    rng = np.random.default_rng(4)
    g = rng.uniform(-2, 2, mesh.num_vertices)
    assert cp.solve_state(g).active_set.size == 0
    dirs = [rng.normal(size=mesh.num_vertices) for _ in range(10)]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    assert finite_difference_check(cp, g, dirs) <= 1e-5


def test_gradient_matches_finite_differences_with_active_set(mesh):
    # localized strongly-negative control: active set nonempty and stable
    params = CostParams(weight=0.5, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    rng = np.random.default_rng(6)
    bump = np.array(
        [
            -120.0 * np.exp(-((x - 0.6) ** 2 + (y - 0.5) ** 2) / 0.08)
            for x, y in mesh.vertices
        ]
    )
    g = bump + rng.uniform(-1, 1, mesh.num_vertices)
    state = cp.solve_state(g)
    assert 0 < state.active_set.size < cp.dofs.free_nodes.size
    dirs = [rng.normal(size=mesh.num_vertices) for _ in range(5)]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    for d in dirs:
        for s in (1e-6, -1e-6):
            assert np.array_equal(cp.solve_state(g + s * d).active_set, state.active_set)
    assert finite_difference_check(cp, g, dirs) <= 1e-5


def test_optimize_trivial_problem(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.0)
    rng = np.random.default_rng(8)
    g0 = rng.uniform(-3, 3, mesh.num_vertices)
    res = ControlProblem(mesh, params).optimize(g0)
    assert res.converged
    assert res.report.cost <= 1e-12
    assert np.max(np.abs(res.control)) <= 1e-5


def test_optimize_rejects_a_cost_past_the_float_range():
    # cells of 2.5e152 square: the mass entries times g = -50 overflow in ||g||_H
    mesh = build_rectangle_mesh(4, 4, domain=(0, 0, 1.0e153, 1.0e153), gamma1_sides=("left",))
    cp = ControlProblem(mesh, CostParams(weight=1.0, flux=0.0, dirichlet=0.05))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(control.SolverError, match="is not finite"):
            cp.optimize(-50.0)


@pytest.mark.parametrize(
    "method, fails_at, stage",
    [
        ("solve_state", 0, "first state solve"),
        ("gradient", 0, "adjoint at iteration 0"),
        ("solve_state", 1, "line-search trial at iteration 1"),
        ("gradient", 2, "adjoint at iteration 2"),
    ],
)
def test_optimize_names_the_stage_that_failed(mesh, monkeypatch, method, fails_at, stage):
    # the call numbered fails_at (from 0) of `method` fails; the reason names its stage and
    # the exception still carries the failed solve's state
    real, calls, state = getattr(ControlProblem, method), [], object()

    def failing(self, *args, **kwargs):
        calls.append(method)
        if len(calls) > fails_at:
            raise SolverError("state solve did not converge (residual 1.000e+00)", state)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ControlProblem, method, failing)
    cp = ControlProblem(mesh, CostParams(weight=1.0, flux=0.0, dirichlet=0.05))
    with pytest.raises(SolverError, match=rf"^{stage}: state solve did not") as info:
        cp.optimize(-50.0)
    assert info.value.solution is state


def test_optimize_large_weight_bound(mesh):
    params = CostParams(weight=1e3, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    res = cp.optimize(np.zeros(mesh.num_vertices))
    assert res.converged
    u0_norm = l2_norm(cp.solve_state(np.zeros(mesh.num_vertices)).u, cp.mass)
    assert l2_norm(res.control, cp.mass) <= u0_norm / params.weight + 1e-12


def test_optimize_cost_history_monotone(mesh):
    params = CostParams(weight=0.5, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    res = cp.optimize(0.0)
    assert res.converged
    hist = [cost_of(cp, 0.0)] + [row.cost for row in res.trace]
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))
    assert res.report.state.converged  # final state is a valid VI solution


def test_optimize_stops_at_a_stall():
    # from iteration 41 on, Armijo accepts steps that leave the cost exactly
    # unchanged; without the stall stop the run took 500 iterations
    mesh = build_rectangle_mesh(8, 8, gamma1_sides=("left",))
    res = ControlProblem(mesh, CostParams(weight=1e-3, flux=0.0, dirichlet=0.05)).optimize(-50.0)
    assert not res.converged
    assert 0 < res.stalled == res.iterations < 500
    hist = [row.cost for row in res.trace]
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))
    assert res.report.cost == hist[-1] and len(hist) == res.iterations - 1
    assert f"stalled at iteration {res.iterations}," in res.failure()


def test_failed_line_search_ends_optimize_at_the_last_accepted_step(mesh, monkeypatch):
    # once iteration 1 is accepted, every trial cost lies above the current one: no trial of
    # iteration 2 gives the Armijo decrease, and the run stops unconverged, with no stall
    cost, gradient, adjoints, trials = ControlProblem.cost, ControlProblem.gradient, [], []

    def recording_gradient(self, g, state):
        adjoints.append(g.copy())
        return gradient(self, g, state)

    def rising_cost(self, g, state):
        report = cost(self, g, state)
        if len(adjoints) < 2:  # the first cost and iteration 1's trials are honest
            return report
        trials.append(report)
        return report._replace(cost=report.cost + 1.0)

    monkeypatch.setattr(ControlProblem, "gradient", recording_gradient)
    monkeypatch.setattr(ControlProblem, "cost", rising_cost)
    res = ControlProblem(mesh, CostParams(1.0, 0.0, 0.05)).optimize(-50.0)
    assert (res.converged, res.stalled, res.iterations, len(trials)) == (False, 0, 2, 60)
    assert [row.iteration for row in res.trace] == [1]
    assert res.report.cost == res.trace[-1].cost
    assert res.gradient_norm == res.trace[-1].gradient_norm
    assert res.control.tobytes() == adjoints[1].tobytes()
    assert len(adjoints) == 2  # the failed search computes no gradient
    assert res.failure() == f"optimizer did not converge (gradient norm {res.gradient_norm:.3e})"


def test_optimize_takes_a_converging_step_that_leaves_the_cost_unchanged():
    # iteration 7 reaches the gradient tolerance at a cost equal to iteration 6's to the
    # bit; the stall rule takes such a step, as a converged point ends the run anyway
    mesh = build_rectangle_mesh(8, 8, gamma1_sides=("right",))
    res = ControlProblem(mesh, CostParams(weight=0.3, flux=0.0, dirichlet=1.0)).optimize(0.0)
    assert res.converged and res.stalled == 0 and res.iterations == 7
    hist = [row.cost for row in res.trace]
    assert len(hist) == 7 and hist[-1] == hist[-2] == res.report.cost


def test_optimize_multistart_agreement(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    rng = np.random.default_rng(10)
    costs = []
    for _ in range(3):
        g0 = rng.uniform(-2, 2, mesh.num_vertices)
        res = ControlProblem(mesh, params).optimize(g0)
        assert res.converged
        costs.append(res.report.cost)
    assert max(costs) - min(costs) <= 1e-6 * max(costs)


def test_state_parallelogram_identity(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    cp = ControlProblem(mesh, params)
    rng = np.random.default_rng(14)
    for _ in range(20):
        g1 = rng.uniform(-10, 10, mesh.num_vertices)
        g2 = rng.uniform(-10, 10, mesh.num_vertices)
        mu = rng.uniform(0, 1)
        u1 = cp.solve_state(g1).u
        u2 = cp.solve_state(g2).u
        u3 = mu * u1 + (1 - mu) * u2
        lhs = l2_norm(u3, cp.mass) ** 2
        rhs = (
            mu * l2_norm(u1, cp.mass) ** 2
            + (1 - mu) * l2_norm(u2, cp.mass) ** 2
            - mu * (1 - mu) * l2_norm(u2 - u1, cp.mass) ** 2
        )
        assert abs(lhs - rhs) <= 1e-11
        # same identity for the controls themselves
        g3 = mu * g1 + (1 - mu) * g2
        lhs_g = l2_norm(g3, cp.mass) ** 2
        rhs_g = (
            mu * l2_norm(g1, cp.mass) ** 2
            + (1 - mu) * l2_norm(g2, cp.mass) ** 2
            - mu * (1 - mu) * l2_norm(g2 - g1, cp.mass) ** 2
        )
        assert abs(lhs_g - rhs_g) <= 1e-11


def test_cost_lower_bound(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    from vicontrol.assembly import coercivity_constant

    lam = coercivity_constant(cp.stiffness, cp.mass, cp.dofs.free_nodes)
    u0_norm = l2_norm(cp.solve_state(np.zeros(mesh.num_vertices)).u, cp.mass)
    c = u0_norm / lam
    rng = np.random.default_rng(16)
    for _ in range(50):
        g = rng.uniform(-10, 10, mesh.num_vertices)
        report = cp.cost(g, cp.solve_state(g))
        gn = l2_norm(g, cp.mass)
        assert report.cost >= 0.5 * params.weight * gn**2 - c * gn - 1e-9


def test_strict_convexity_surrogate():
    # J_h lies below its chord by at least the quadratic control term on every triple: the
    # state term is convex too, as 0 <= u4 <= u3 (the scan's theorem) and M_H >= 0 entrywise
    rng = np.random.default_rng(18)
    for sides in (("left",), ("left", "bottom")):
        mesh = build_rectangle_mesh(4, 4, gamma1_sides=sides)
        for weight in (1.0, 1e-2, 1e-3):
            cp = ControlProblem(mesh, CostParams(weight=weight, flux=0.0, dirichlet=0.5))
            for _ in range(20):
                g1 = rng.uniform(-10, 10, mesh.num_vertices)
                g2 = rng.uniform(-10, 10, mesh.num_vertices)
                mu = rng.uniform(0.1, 0.9)
                chord = mu * cost_of(cp, g1) + (1 - mu) * cost_of(cp, g2)
                dg = l2_norm(g2 - g1, cp.mass)
                bound = chord - 0.5 * weight * mu * (1 - mu) * dg**2 + 1e-9
                assert cost_of(cp, mu * g1 + (1 - mu) * g2) <= bound


@pytest.mark.parametrize("domain", [(0.0, 0.0, 1.0, 1.0), (0.3, -0.2, 1.1, 0.9)])
def test_one_dimensional_state_against_the_exact_solution(domain):
    # q = 0, Gamma1 = {left}, g < 0: the exact state is u* = b (1 - (x - x0)/a)_+^2 with
    # a = sqrt(2b/|g|), whose state term is b^2 a (y1 - y0)/10. The discrete free boundary
    # lags x0 + a by 0.43 to 1.45 cells on these strips, not within one cell on every level
    x0, y0, x1, y1 = domain
    b, g = 0.05, -50.0
    a = np.sqrt(2 * b / abs(g))
    exact = b * b * a * (y1 - y0) / 10
    gaps = []
    for n in (16, 32, 64, 128, 256, 512):
        mesh = build_rectangle_mesh(n, 4, domain, ("left",))
        cp = ControlProblem(mesh, CostParams(weight=1.0, flux=0.0, dirichlet=b))
        state = cp.solve_state(g)
        x = mesh.vertices[:, 0]
        lag = (x0 + a - x[state.u > 0].max()) / ((x1 - x0) / n)
        assert 0 < lag < 2
        gaps.append(abs(cp.cost(g, state).state_term - exact) / exact)
    assert all(finer < coarser for coarser, finer in zip(gaps, gaps[1:]))


def test_every_reduced_solve_is_one_minimum_degree_spsolve(monkeypatch):
    # b = 1, g = -10: every PDAS iteration and every adjoint has a nonempty
    # inactive set (at b = 0.05, g = -50 the first state is all active)
    mesh = build_rectangle_mesh(16, 16, gamma1_sides=("left",))
    cp = ControlProblem(mesh, CostParams(weight=1.0, flux=0.0, dirichlet=1.0))
    orderings, pdas_iters, gradients = [], [], []
    spsolve, solve_pdas, gradient = spla.spsolve, control.solve_pdas, ControlProblem.gradient

    def recording_spsolve(a, b, **kwargs):
        orderings.append(kwargs.get("permc_spec"))
        return spsolve(a, b, **kwargs)

    def recording_pdas(*args, **kwargs):
        sol = solve_pdas(*args, **kwargs)
        pdas_iters.append(sol.iterations)
        return sol

    def recording_gradient(self, *args, **kwargs):
        gradients.append(1)
        return gradient(self, *args, **kwargs)

    monkeypatch.setattr(spla, "spsolve", recording_spsolve)
    monkeypatch.setattr(control, "solve_pdas", recording_pdas)
    monkeypatch.setattr(ControlProblem, "gradient", recording_gradient)
    res = cp.optimize(-10.0)
    assert res.converged and res.iterations > 0
    assert len(orderings) == sum(pdas_iters) + len(gradients)
    assert set(orderings) == {"MMD_AT_PLUS_A"}

    # the initial state, which touches the obstacle, and its adjoint against
    # dense solves on the same inactive set
    g = np.full(mesh.num_vertices, -10.0)
    state = cp.solve_state(g)
    assert 0 < state.active_set.size < cp.dofs.free_nodes.size
    a = cp.stiffness.toarray()
    inactive = np.setdiff1d(cp.dofs.free_nodes, state.active_set)
    dirichlet = cp.dofs.dirichlet_nodes
    rhs = cp.as_obstacle_problem(g).load[inactive] - a[np.ix_(inactive, dirichlet)].sum(1)  # b = 1
    a_ii = a[np.ix_(inactive, inactive)]
    u = np.linalg.solve(a_ii, rhs)
    p = np.linalg.solve(a_ii, (cp.mass @ state.u)[inactive])
    p_sparse = (gradient(cp, g, state) - g)[inactive]
    assert np.linalg.norm(state.u[inactive] - u) <= 1e-12 * np.linalg.norm(u)
    assert np.linalg.norm(p_sparse - p) <= 1e-12 * np.linalg.norm(p)


_ALL_SIDES = ("left", "right", "bottom", "top")


@pytest.mark.parametrize("sides", [("left",), ("left", "top"), ("bottom", "right", "top"), _ALL_SIDES])
def test_load_is_mass_times_g_minus_the_boundary_flux(sides):
    # the flux is held only on Gamma2, and the load is M_H g - F_q to the bit
    mesh = build_rectangle_mesh(12, 7, (-1.3, 0.2, 0.7, 3.1), sides)
    q = lambda x, y: 0.7 - 2.0 * x + y
    g = np.random.default_rng(3).standard_normal(mesh.num_vertices)
    cp = ControlProblem(mesh, CostParams(weight=1.0, flux=q))
    expected = assemble_mass(mesh) @ g - assemble_boundary_flux(mesh, q)
    assert cp.as_obstacle_problem(g).load.tobytes() == expected.tobytes()
    assert cp.flux.size == cp.gamma2.size < mesh.num_vertices


def test_control_problem_keeps_only_its_operators():
    # in vectors of 8 n bytes: A as its 5 diagonals, M_H as its 7, the free nodes
    # (1) and the flux on Gamma2 make 13.0; A in CSR (5 slots of 12 bytes and the
    # row pointers, 8) made 16.0, and M_H in CSR and a full-length flux load 20.9
    params = CostParams(1.0, 0.0, 0.05)
    ControlProblem(build_rectangle_mesh(4, 4), params)  # one-time allocations
    mesh = build_rectangle_mesh(256, 256)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cp = ControlProblem(mesh, params)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cp.stiffness.format == cp.mass.format == "dia"
    assert (after - before) / (8 * mesh.num_vertices) <= 14


def psor32_control(x, y):  # the psor-32 bench control, with b = 1, q = 0 and Gamma1 = {left}
    return -40.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * 0.2**2))


def test_cold_pdas_takes_at_most_10_iterations_on_every_mesh_of_its_chain(monkeypatch):
    # from u = b, PDAS took 10, 20, 36 and 70 iterations on 16x16 to 128x128; a cold
    # 128x128 solve starts from 64x64, which starts from 32x32, which starts from 16x16
    chain = []  # (unknowns, PDAS iterations) per solve, coarse to fine

    def counting(problem, **kwargs):
        sol = solve_pdas(problem, **kwargs)
        chain.append((problem.size, sol.iterations))
        return sol

    monkeypatch.setattr(control, "solve_pdas", counting)
    cp = ControlProblem(build_rectangle_mesh(128, 128), CostParams(1.0, 0.0, 1.0))
    state = cp.solve_state(psor32_control)
    assert [n for n, _ in chain] == [(k + 1) ** 2 for k in (16, 32, 64, 128)]
    assert max(it for _, it in chain) <= 10
    assert state.iterations == chain[-1][1]  # the finest solve's alone


@pytest.mark.parametrize("nx, ny", [(64, 64), (64, 32)])
def test_psor_with_omega_from_the_grid_takes_at_most_400_sweeps(nx, ny):
    # with omega = 1.5 and from u = b, 64x64 took 1,369 sweeps and 64x32 874
    cp = ControlProblem(build_rectangle_mesh(nx, ny), CostParams(1.0, 0.0, 1.0, "psor"))
    assert cp.solve_state(psor32_control).iterations <= 400


@pytest.mark.parametrize("solver", ["pdas", "psor"])
@pytest.mark.parametrize("g", [0.0, -0.0, np.zeros(65 * 65)])
def test_no_load_makes_the_lift_the_state_without_a_solve(monkeypatch, solver, g):
    # A's rows sum to zero, so with g = q = 0 the lift u = b solves the VI: no solver runs,
    # no nested start is built and no reduced system is factored
    calls = []
    init, spsolve = ControlProblem.__init__, spla.spsolve

    def recording_init(self, mesh, params):
        calls.append(("ControlProblem", mesh.nx))
        init(self, mesh, params)

    def recording_spsolve(*args, **kwargs):
        calls.append("spsolve")
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(ControlProblem, "__init__", recording_init)
    monkeypatch.setattr(spla, "spsolve", recording_spsolve)
    for name in ("solve_pdas", "solve_psor"):
        monkeypatch.setattr(control, name, lambda *args, **kwargs: calls.append("solver"))
    cp = ControlProblem(build_rectangle_mesh(64, 64), CostParams(1.0, 0.0, 0.05, solver))
    state = cp.solve_state(g)
    assert calls == [("ControlProblem", 64)]
    assert state.u.tobytes() == np.full(cp.mesh.num_vertices, 0.05).tobytes()
    assert (state.iterations, state.converged) == (0, True)
    assert state.active_set.size == 0 and state.complementarity_residual <= 1e-10


def test_a_lift_that_misses_the_tolerance_raises_carrying_the_lift():
    # A u for u = b leaves a rounding residual below 1e-16 on 4x4 (6.9e-18), above 1e-300
    cp = ControlProblem(build_rectangle_mesh(4, 4), CostParams(1.0, 0.0, 0.05, tol=1e-300))
    with pytest.raises(SolverError, match=r"^state solve did not converge \(residual ") as failed:
        cp.solve_state(0.0)
    lift = failed.value.solution
    assert lift.u.tobytes() == np.full(25, 0.05).tobytes()
    assert (lift.iterations, lift.converged) == (0, False)
    assert 0 < lift.complementarity_residual < 1e-16


def _state_of_the_chain(params, g):
    """The 64x64 state solve_state gave before a problem with no load had the lift: the
    solver, cold on 16x16 from u = b and from each mesh's state prolongated on the next,
    every mesh solved whether or not its data vanish; g's nodal values are injected."""
    solver = control.solve_psor if params.solver == "psor" else solve_pdas
    state = coarse = None
    for k in (16, 32, 64):
        mesh = build_rectangle_mesh(k, k)
        g_k = np.reshape(g, (65, 65))[:: 64 // k, :: 64 // k].ravel()
        u0 = None if coarse is None else prolongate(coarse, state.u, mesh)
        problem = ControlProblem(mesh, params).as_obstacle_problem(g_k)
        state, coarse = solver(problem, tol=params.tol, u0=u0), mesh
    return state


@pytest.mark.parametrize(
    "solver, vertex, q",
    [
        ("pdas", 32 * 65 + 32, 0.0),  # a nonzero g on every mesh of the chain
        ("psor", 32 * 65 + 32, 0.0),
        ("pdas", 33 * 65 + 31, 0.0),  # a nonzero g on 64x64 alone: its start is the lift
        ("pdas", None, 1.0),  # g = 0 with a flux
        ("psor", None, 1.0),
    ],
)
def test_a_load_takes_the_solver_to_the_same_bits(solver, vertex, q):
    params = CostParams(1.0, q, 0.05, solver)
    g = np.zeros(65 * 65)
    if vertex is not None:
        g[vertex] = -50.0
    state = ControlProblem(build_rectangle_mesh(64, 64), params).solve_state(g)
    before = _state_of_the_chain(params, g)
    assert state.iterations == before.iterations > 0
    assert state.u.tobytes() == before.u.tobytes()
    assert np.array_equal(state.active_set, before.active_set)


def test_a_callable_control_is_a_load():
    cp = ControlProblem(build_rectangle_mesh(4, 4), CostParams(1.0, 0.0, 0.05))
    assert cp.solve_state(lambda x, y: 0.0 * x).iterations > 0


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    sides=st.sampled_from([("left",), ("top",), ("left", "bottom"), ("left", "right")]),
    b=st.floats(0.0, 1.0),
    q=st.floats(-2.0, 2.0),
    solver=st.sampled_from(["pdas", "psor"]),
    mu=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_is_monotone_and_convex_in_the_control(nx, ny, sides, b, q, solver, mu, seed):
    # u_g is the least element of {u : u_F >= 0, u_D = b, (A u - M_H g + F_q)_F >= 0}, and
    # M_H >= 0 entrywise: so g1 <= g2 gives u1 <= u2, and u is convex in g componentwise
    mesh = build_rectangle_mesh(nx, ny, gamma1_sides=sides)
    cp = ControlProblem(mesh, CostParams(1.0, q, b, solver))
    rng = np.random.default_rng(seed)
    g1 = rng.uniform(-60.0, 20.0, mesh.num_vertices)
    g2 = g1 + rng.uniform(0.0, 20.0, mesh.num_vertices)
    g3 = rng.uniform(-60.0, 20.0, mesh.num_vertices)
    u1, u2, u3 = (cp.solve_state(g).u for g in (g1, g2, g3))
    assert np.all(u1 <= u2 + 1e-8 * max(1.0, np.abs(u1).max(), np.abs(u2).max()))
    combined = mu * u1 + (1.0 - mu) * u3
    u_mu = cp.solve_state(mu * g1 + (1.0 - mu) * g3).u
    assert np.all(u_mu <= combined + 1e-8 * max(1.0, np.abs(u_mu).max(), np.abs(combined).max()))
