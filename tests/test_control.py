import numpy as np
import pytest
import scipy.sparse.linalg as spla

from vicontrol import control
from vicontrol.control import ControlProblem, CostParams
from vicontrol.mesh import build_rectangle_mesh


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
    report = ControlProblem(mesh, params).cost(0.0)
    # state is identically 1, so J = 1/2 * area = 1/2
    assert report.control_term == 0.0
    assert report.cost == pytest.approx(0.5, abs=1e-12)
    assert report.state_term == pytest.approx(0.5, abs=1e-12)


def test_cost_linear_in_weight(mesh):
    g = np.full(mesh.num_vertices, 2.0)
    r1 = ControlProblem(mesh, CostParams(weight=1.0, dirichlet=1.0)).cost(g)
    r2 = ControlProblem(mesh, CostParams(weight=2.0, dirichlet=1.0)).cost(g)
    assert r2.cost - r1.cost == pytest.approx(r1.control_term, rel=1e-12)
    assert r2.state_term == pytest.approx(r1.state_term, rel=1e-12)


def test_cost_report_consistency(mesh):
    params = CostParams(weight=0.7, flux=0.5, dirichlet=0.8)
    rng = np.random.default_rng(2)
    g = rng.uniform(-5, 5, mesh.num_vertices)
    report = ControlProblem(mesh, params).cost(g)
    assert report.cost == pytest.approx(report.state_term + report.control_term, rel=1e-14)
    assert report.state_term >= 0 and report.control_term >= 0


def test_gradient_zero_at_trivial_optimum(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.0)
    grad = ControlProblem(mesh, params).gradient(0.0)
    assert np.max(np.abs(grad)) <= 1e-14


def test_gradient_all_active_is_penalty_only(mesh):
    params = CostParams(weight=2.0, flux=0.0, dirichlet=0.0)
    g = np.full(mesh.num_vertices, -1.0)
    cp = ControlProblem(mesh, params)
    state = cp.solve_state(g)
    assert state.active_set.size == cp.dofs.free_nodes.size
    grad = cp.gradient(g, state)
    assert np.allclose(grad, 2.0 * g, atol=1e-14)


def finite_difference_check(cp, g, directions, step=1e-5):
    grad = cp.gradient(g)
    worst = 0.0
    for d in directions:
        jp = cp.cost(g + step * d).cost
        jm = cp.cost(g - step * d).cost
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
    assert res.cost <= 1e-12
    assert np.max(np.abs(res.control)) <= 1e-5


def test_optimize_rejects_a_cost_past_the_float_range():
    # cells of 2.5e152 square: the mass entries times g = -50 overflow in ||g||_H
    mesh = build_rectangle_mesh(4, 4, domain=(0, 0, 1.0e153, 1.0e153), gamma1_sides=("left",))
    cp = ControlProblem(mesh, CostParams(weight=1.0, flux=0.0, dirichlet=0.05))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(control.SolverError, match="is not finite"):
            cp.optimize(-50.0)


def test_optimize_large_weight_bound(mesh):
    params = CostParams(weight=1e3, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    res = cp.optimize(np.zeros(mesh.num_vertices))
    assert res.converged
    u0_norm = cp.l2_norm(cp.solve_state(np.zeros(mesh.num_vertices)).u)
    assert cp.l2_norm(res.control) <= u0_norm / params.weight + 1e-12


def test_optimize_cost_history_monotone(mesh):
    params = CostParams(weight=0.5, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    res = cp.optimize(0.0)
    assert res.converged
    hist = [cp.cost(0.0).cost] + [row["cost"] for row in res.trace]
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))
    assert res.state.converged  # final state is a valid VI solution


def test_optimize_multistart_agreement(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    rng = np.random.default_rng(10)
    costs = []
    for _ in range(3):
        g0 = rng.uniform(-2, 2, mesh.num_vertices)
        res = ControlProblem(mesh, params).optimize(g0)
        assert res.converged
        costs.append(res.cost)
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
        lhs = cp.l2_norm(u3) ** 2
        rhs = (
            mu * cp.l2_norm(u1) ** 2
            + (1 - mu) * cp.l2_norm(u2) ** 2
            - mu * (1 - mu) * cp.l2_norm(u2 - u1) ** 2
        )
        assert abs(lhs - rhs) <= 1e-11
        # same identity for the controls themselves
        g3 = mu * g1 + (1 - mu) * g2
        lhs_g = cp.l2_norm(g3) ** 2
        rhs_g = (
            mu * cp.l2_norm(g1) ** 2
            + (1 - mu) * cp.l2_norm(g2) ** 2
            - mu * (1 - mu) * cp.l2_norm(g2 - g1) ** 2
        )
        assert abs(lhs_g - rhs_g) <= 1e-11


def test_cost_lower_bound(mesh):
    params = CostParams(weight=1.0, flux=0.0, dirichlet=1.0)
    cp = ControlProblem(mesh, params)
    from vicontrol.assembly import coercivity_constant

    lam = coercivity_constant(mesh, cp.stiffness, cp.mass)
    u0_norm = cp.l2_norm(cp.solve_state(np.zeros(mesh.num_vertices)).u)
    c = u0_norm / lam
    rng = np.random.default_rng(16)
    for _ in range(50):
        g = rng.uniform(-10, 10, mesh.num_vertices)
        report = cp.cost(g)
        gn = cp.l2_norm(g)
        assert report.cost >= 0.5 * params.weight * gn**2 - c * gn - 1e-9


def test_strict_convexity_surrogate(mesh):
    # whenever the combined state sits below the combination, the cost gap
    # is at least the quadratic control term
    params = CostParams(weight=1.0, flux=0.0, dirichlet=0.5)
    cp = ControlProblem(mesh, params)
    rng = np.random.default_rng(18)
    checked = 0
    for _ in range(20):
        g1 = rng.uniform(-10, 10, mesh.num_vertices)
        g2 = rng.uniform(-10, 10, mesh.num_vertices)
        mu = rng.uniform(0.1, 0.9)
        u1 = cp.solve_state(g1).u
        u2 = cp.solve_state(g2).u
        u3 = mu * u1 + (1 - mu) * u2
        g3 = mu * g1 + (1 - mu) * g2
        u4 = cp.solve_state(g3).u
        if cp.l2_norm(u4) > cp.l2_norm(u3):
            continue
        checked += 1
        gap = mu * cp.cost(g1, None).cost + (1 - mu) * cp.cost(g2, None).cost - cp.cost(g3, None).cost
        bound = 0.5 * params.weight * mu * (1 - mu) * cp.l2_norm(g2 - g1) ** 2
        assert gap >= bound - 1e-9
    assert checked > 0


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
