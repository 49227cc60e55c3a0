"""Quadratic cost over distributed controls and its minimization.

The cost of a control g is J(g) = 1/2 ||u_g||_L2^2 + M/2 ||g||_L2^2 where
u_g solves the discrete obstacle problem. The gradient is computed with the
active set of u_g frozen (the solution map is piecewise linear in g, so this
is the exact gradient wherever the active set is locally constant), and the
minimization uses gradient descent with Barzilai-Borwein steps safeguarded
by Armijo backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    assemble_boundary_flux,
    assemble_mass,
    assemble_stiffness,
    dof_map,
)
from .mesh import Mesh, interpolate
from .vi import ObstacleProblem, SolverError, VISolution, solve_pdas, solve_psor, solve_reduced


@dataclass(frozen=True)
class CostParams:
    """Cost weight M, the state-problem data q (flux) and b (Dirichlet), and
    the state solver with its complementarity tolerance."""

    weight: float
    flux: object = 0.0  # callable, constant or nodal array on Gamma2
    dirichlet: float = 1.0
    solver: str = "pdas"
    tol: float = 1e-10

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"cost weight M must be > 0, got {self.weight}")
        if self.dirichlet < 0:
            raise ValueError(f"dirichlet value must be >= 0, got {self.dirichlet}")
        if self.solver not in ("pdas", "psor"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not self.tol > 0:
            raise ValueError(f"solver tolerance must be > 0, got {self.tol}")


@dataclass
class CostReport:
    cost: float
    state_term: float
    control_term: float
    state: VISolution


@dataclass
class OptimizerResult:
    control: np.ndarray
    state: VISolution
    cost: float
    gradient_norm: float
    iterations: int
    converged: bool
    trace: list[dict] = field(default_factory=list)


class ControlProblem:
    """The discrete state problem and cost at one mesh: caches the assembled
    operators and is the one place that builds and solves a state problem."""

    def __init__(self, mesh: Mesh, params: CostParams):
        self.mesh = mesh
        self.params = params
        self.stiffness = assemble_stiffness(mesh)
        self.mass = assemble_mass(mesh)
        self.flux_load = assemble_boundary_flux(mesh, params.flux)
        self.dofs = dof_map(mesh)

    def as_obstacle_problem(self, g) -> ObstacleProblem:
        return ObstacleProblem(
            stiffness=self.stiffness,
            load=self.mass @ interpolate(self.mesh, g) - self.flux_load,
            dirichlet_value=self.params.dirichlet,
            dofs=self.dofs,
        )

    def solve_state(self, g, warm_start: np.ndarray | None = None) -> VISolution:
        """State for control g; raises SolverError, carrying the unconverged
        solution, when the solver misses params.tol."""
        problem = self.as_obstacle_problem(g)
        solver = solve_psor if self.params.solver == "psor" else solve_pdas
        sol = solver(problem, tol=self.params.tol, u0=warm_start)
        if not sol.converged:
            raise SolverError(
                f"state solve did not converge (residual {sol.complementarity_residual:.3e})",
                sol,
            )
        return sol

    def l2_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ (self.mass @ v), 0.0)))

    def cost(self, g, state: VISolution | None = None) -> CostReport:
        g = interpolate(self.mesh, g)
        if state is None:
            state = self.solve_state(g)
        state_term = 0.5 * self.l2_norm(state.u) ** 2
        control_term = 0.5 * self.params.weight * self.l2_norm(g) ** 2
        return CostReport(
            cost=state_term + control_term,
            state_term=state_term,
            control_term=control_term,
            state=state,
        )

    def gradient(self, g, state: VISolution | None = None) -> np.ndarray:
        """H-representative of the cost gradient with the active set frozen.

        Solve A_II p = (M_H u)_I on the inactive free nodes (p = 0 on active
        and Dirichlet nodes); the gradient field is M*g + p.
        """
        g = interpolate(self.mesh, g)
        if state is None:
            state = self.solve_state(g)
        inactive = np.setdiff1d(self.dofs.free_nodes, state.active_set)
        p = np.zeros(self.mesh.num_vertices)
        if inactive.size:
            p[inactive] = solve_reduced(self.stiffness, inactive, (self.mass @ state.u)[inactive])
        return self.params.weight * g + p

    def optimize(
        self,
        g0,
        gtol: float | None = None,
        max_iter: int = 500,
        armijo: float = 1e-4,
        backtrack: float = 0.5,
    ) -> OptimizerResult:
        """Minimize the cost from g0; monotone descent via Armijo backtracking.

        The first trial step per iteration is the Barzilai-Borwein length from
        the latest curvature pair (fall back to 1 when it is unusable). A state
        solve that misses the tolerance, trial steps included, raises
        SolverError, and so does a cost or gradient norm that is not finite.
        """
        g = interpolate(self.mesh, g0).copy()
        state = self.solve_state(g)
        report = self.cost(g, state)
        grad = self.gradient(g, state)
        gnorm = self.l2_norm(grad)
        if gtol is None:
            gtol = 1e-8 * max(1.0, gnorm)

        def converged_at(cost, gnorm):  # a cost or gradient past the float range ends the run
            if not (np.isfinite(cost) and np.isfinite(gnorm)):
                raise SolverError(f"cost {cost!r} or gradient norm {gnorm!r} is not finite")
            return gnorm <= gtol

        trace = []
        alpha = 1.0
        prev_g = None
        prev_grad = None
        converged = converged_at(report.cost, gnorm)
        it = 0
        while not converged and it < max_iter:
            it += 1
            if prev_g is not None:
                s = g - prev_g
                y = grad - prev_grad
                sy = float(s @ (self.mass @ y))
                if sy > 0:
                    alpha = float(s @ (self.mass @ s)) / sy
                else:
                    alpha = 1.0
                alpha = min(max(alpha, 1e-12), 1e6)
            step = alpha
            slope = -(gnorm**2)
            accepted = False
            for _ in range(60):
                g_try = g - step * grad
                state_try = self.solve_state(g_try, warm_start=state.u)
                report_try = self.cost(g_try, state_try)
                if report_try.cost <= report.cost + armijo * step * slope:
                    accepted = True
                    break
                step *= backtrack
            if not accepted:
                break
            prev_g, prev_grad = g, grad
            g, state, report = g_try, state_try, report_try
            grad = self.gradient(g, state)
            gnorm = self.l2_norm(grad)
            trace.append(
                {
                    "iteration": it,
                    "cost": report.cost,
                    "gradient_norm": gnorm,
                    "step": step,
                    "active_set_size": int(state.active_set.size),
                }
            )
            converged = converged_at(report.cost, gnorm)
        return OptimizerResult(
            control=g,
            state=state,
            cost=report.cost,
            gradient_norm=gnorm,
            iterations=it,
            converged=converged,
            trace=trace,
        )

