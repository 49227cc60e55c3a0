"""Quadratic cost over distributed controls and its minimization.

The cost of a control g is J(g) = 1/2 ||u_g||_L2^2 + M/2 ||g||_L2^2 where
u_g solves the discrete obstacle problem. The gradient is computed with the
active set of u_g frozen (the solution map is piecewise linear in g, so this
is the exact gradient wherever the active set is locally constant), and the
minimization uses gradient descent with Barzilai-Borwein steps safeguarded
by Armijo backtracking.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    assemble_boundary_flux,
    assemble_mass,
    assemble_stiffness,
    l2_norm,
)
from .mesh import Mesh, build_rectangle_mesh, interpolate, prolongate
from .vi import (
    ObstacleProblem, SolverError, VISolution, lift_solution, solve_pdas, solve_psor, solve_reduced
)

NESTED_START = 32  # a cold solve with nx, ny even and at least this starts from its half mesh

# one accepted optimizer step; its fields are the columns of trace.csv
TraceRow = namedtuple("TraceRow", "iteration cost gradient_norm step active_set_size")


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
            raise ValueError(f"cost weight M must be > 0 (got M={self.weight})")
        if self.dirichlet < 0:
            raise ValueError(f"Dirichlet value b must be >= 0 (got b={self.dirichlet})")
        if self.solver not in ("pdas", "psor"):
            raise ValueError(f"solver must be psor or pdas (got {self.solver!r})")
        if not self.tol > 0:
            raise ValueError(f"solver tolerance tol must be > 0 (got tol={self.tol})")


# J(g) = state_term + control_term, with the state it was evaluated at
CostReport = namedtuple("CostReport", "cost state_term control_term state")


# an optimizer run: its final control with the CostReport of it, and the gradient norm there,
# the iterations, the trace of accepted steps and why it stopped unconverged, or None
OptimizerResult = namedtuple(
    "OptimizerResult", "control report gradient_norm iterations trace failure"
)


class ControlProblem:
    """The discrete state problem and cost at one mesh: caches the assembled
    operators and is the one place that builds and solves a state problem.
    `flux` is F_q on its support, the mesh's Gamma2 vertices `gamma2_nodes`."""

    def __init__(self, mesh: Mesh, params: CostParams):
        self.mesh = mesh
        self.params = params
        self.stiffness = assemble_stiffness(mesh)
        self.mass = assemble_mass(mesh)
        self.flux = assemble_boundary_flux(mesh, params.flux)[mesh.gamma2_nodes]

    def as_obstacle_problem(self, g) -> ObstacleProblem:
        load = self.mass @ interpolate(self.mesh, g)
        load[self.mesh.gamma2_nodes] -= self.flux  # off Gamma2, x - 0.0 is x to the bit
        if not np.all(np.isfinite(load)):  # a load past the float range, as in a solve
            raise SolverError("load vector contains non-finite entries")
        return ObstacleProblem(self.stiffness, load, self.params.dirichlet, self.mesh)

    def solve_state(self, g, warm_start: np.ndarray | None = None) -> VISolution:
        """State for control g; the solver, or the lift, raises SolverError carrying the
        unconverged solution when it misses params.tol. With no load (g and the flux have no
        nonzero entry, and g is no callable) the state is the lift u = b, solved in 0
        iterations. Otherwise a cold solve (no warm_start) with nx and ny even and at least
        NESTED_START starts from the state on the mesh with half the cells per side,
        prolongated (nested iteration), unless that solve raises SolverError: a mere guess, so
        numpy's floating-point warnings are silenced while it is made."""
        mesh = self.mesh
        loaded = callable(g) or np.any(g) or self.flux.any()  # read before any load is built
        even = mesh.nx % 2 == mesh.ny % 2 == 0
        if loaded and warm_start is None and even and min(mesh.nx, mesh.ny) >= NESTED_START:
            half = build_rectangle_mesh(mesh.nx // 2, mesh.ny // 2, mesh.domain, mesh.gamma1_sides)

            def inject(v):  # a nodal array's values at the vertices the half mesh keeps
                if callable(v) or np.ndim(v) == 0:
                    return v
                return np.reshape(v, (mesh.ny + 1, mesh.nx + 1))[::2, ::2].ravel()

            params = replace(self.params, flux=inject(self.params.flux))
            with suppress(SolverError), np.errstate(all="ignore"):
                u = ControlProblem(half, params).solve_state(inject(g)).u
                warm_start = prolongate(half, u, mesh)
            half = u = None  # the half mesh, its cached node sets and its state are not held
        problem = self.as_obstacle_problem(g)
        if not loaded:  # A's rows sum to zero, so the lift u = b solves a problem with no load
            return lift_solution(problem, self.params.tol)
        solver = solve_psor if self.params.solver == "psor" else solve_pdas
        return solver(problem, tol=self.params.tol, u0=warm_start)

    def cost(self, g, state: VISolution) -> CostReport:
        """J(g), with `state` g's state from solve_state."""
        g = interpolate(self.mesh, g)
        state_term = 0.5 * l2_norm(state.u, self.mass) ** 2
        control_term = 0.5 * self.params.weight * l2_norm(g, self.mass) ** 2
        return CostReport(state_term + control_term, state_term, control_term, state)

    def gradient(self, g, state: VISolution) -> np.ndarray:
        """H-representative of the cost gradient at g, with the active set of `state`, g's
        state from solve_state, frozen.

        Solve A_II p = (M_H u)_I on the inactive free nodes (p = 0 on active
        and Dirichlet nodes); the gradient field is M*g + p.
        """
        g = interpolate(self.mesh, g)
        # both ascending without repeats: the active set is cut from the free nodes
        inactive = np.setdiff1d(self.mesh.free_nodes, state.active_set, assume_unique=True)
        p = np.zeros(self.mesh.num_vertices)
        if inactive.size:
            p[inactive] = solve_reduced(self.stiffness, inactive, (self.mass @ state.u)[inactive])
        return self.params.weight * g + p

    def optimize(self, g0) -> OptimizerResult:
        """Minimize the cost from g0; monotone descent via Armijo backtracking.

        The first trial step per iteration is the Barzilai-Borwein length from
        the latest curvature pair (fall back to 1 when it is unusable), and each
        of at most 60 trial steps is half the one before; the Armijo parameter
        is 1e-4. The run stops converged once the gradient norm is at most
        1e-8 * max(1, ||grad J(g0)||), and unconverged after 500 iterations, a
        failed line search, or a stall: an accepted step whose cost is not below
        the current one, to a point that has not converged, is not taken. The
        iterate is returned either way, with `failure` None when the run converged
        and otherwise the reason its callers raise, which names a stall's iteration.
        The solver raises SolverError for a state solve that misses the tolerance,
        trial steps included, and optimize for a cost or gradient norm that is not
        finite.
        """
        g = interpolate(self.mesh, g0).copy()
        staged = SolverError.staged  # a failed solve's reason names its stage and iteration
        report = self.cost(g, staged("first state solve", self.solve_state, g))
        grad = staged("adjoint at iteration 0", self.gradient, g, report.state)
        gnorm = l2_norm(grad, self.mass)
        gtol = 1e-8 * max(1.0, gnorm)

        def converged_at(cost, gnorm):  # a cost or gradient past the float range ends the run
            if not (np.isfinite(cost) and np.isfinite(gnorm)):
                raise SolverError(f"cost {cost!r} or gradient norm {gnorm!r} is not finite")
            return gnorm <= gtol

        trace, alpha, prev_g, prev_grad = [], 1.0, None, None
        converged = converged_at(report.cost, gnorm)
        it, stall = 0, ""
        while not converged and it < 500:
            it += 1
            if prev_g is not None:  # Barzilai-Borwein length, or 1 without positive curvature
                s, y = g - prev_g, grad - prev_grad
                sy = float(s @ (self.mass @ y))
                alpha = min(max(float(s @ (self.mass @ s)) / sy if sy > 0 else 1.0, 1e-12), 1e6)
            step = alpha
            for _ in range(60):
                g_try = g - step * grad
                trial = f"line-search trial at iteration {it}"
                state_try = staged(trial, self.solve_state, g_try, report.state.u)
                report_try = self.cost(g_try, state_try)
                if report_try.cost <= report.cost - 1e-4 * step * gnorm**2:
                    break
                step *= 0.5
            else:  # no trial step gave the Armijo decrease
                break
            grad_try = staged(f"adjoint at iteration {it}", self.gradient, g_try, state_try)
            gnorm_try = l2_norm(grad_try, self.mass)
            converged = converged_at(report_try.cost, gnorm_try)
            if not (converged or report_try.cost < report.cost):
                stall = f"stalled at iteration {it}, "
                break
            prev_g, prev_grad = g, grad
            g, report, grad, gnorm = g_try, report_try, grad_try, gnorm_try
            trace.append(TraceRow(it, report.cost, gnorm, step, report.state.active_set.size))
        failure = f"optimizer did not converge ({stall}gradient norm {gnorm:.3e})"
        return OptimizerResult(g, report, gnorm, it, trace, None if converged else failure)

