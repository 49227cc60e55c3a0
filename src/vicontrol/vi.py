"""Solvers for the discrete obstacle-type variational inequality.

Find u with u = b on the Dirichlet nodes, u >= 0 elsewhere, and
A u - f complementarity: (A u - f)[i] >= 0 wherever u[i] = 0 and
(A u - f)[i] = 0 wherever u[i] > 0.

Two iterative solvers: projected SOR and a primal-dual active set method.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import block
from .mesh import Mesh


class SolverError(RuntimeError):
    """A failed solve, or a number past the float range. `vi` raises it when a state solve
    misses its tolerance, with the unconverged state as `solution`, and when a reduced system
    is not finite or a free node's diagonal is not positive; `control` when a load is not
    finite; the harness and cli raise an optimizer run's `failure`; `optimize`, the harness
    and the scan raise it for a cost, norm or error that overflows."""

    def __init__(self, message: str, solution: VISolution | None = None):
        super().__init__(message)
        self.solution = solution

    @classmethod
    def staged(cls, stage: str, step, *args):
        """step(*args), where a SolverError's reason is prefixed with the stage that failed."""
        try:
            return step(*args)
        except cls as exc:
            raise cls(f"{stage}: {exc}", exc.solution)


# the discrete obstacle problem, built by `ControlProblem.as_obstacle_problem`: the stiffness
# A (symmetric, its 5-point stencil in DIA), the full-length load f = M_H g - F_q (F_q lives on
# Gamma2), the boundary temperature b and the mesh solved on, whose Dirichlet and free nodes
# the solvers read
ObstacleProblem = namedtuple("ObstacleProblem", "stiffness load dirichlet_value mesh")

# a state solve's result, returned only within tolerance: the state u, its active set (the
# free nodes where u = 0), the complementarity residual and the iteration count
VISolution = namedtuple("VISolution", "u active_set complementarity_residual iterations")


def _complementarity_residual(
    problem: ObstacleProblem, u: np.ndarray, r: np.ndarray | None = None
) -> float:
    """Max-norm of min(u, A u - f) over the free nodes (0 at the solution);
    r is A u - f where the caller already has it."""
    free = problem.mesh.free_nodes
    r = problem.stiffness @ u - problem.load if r is None else r
    gathered = u[free]  # a copy of its own, which the rest works in
    np.minimum(gathered, r[free], out=gathered)
    return float(np.abs(gathered, out=gathered).max(initial=0.0))


def _start(problem, u0, tol) -> tuple[np.ndarray, float]:
    """Where a state path starts: u = b on the Dirichlet nodes and elsewhere u0 projected onto
    u >= 0, or b without u0; and the absolute tolerance tol * max(1, ||f||_inf, b)."""
    n = problem.mesh.num_vertices
    if u0 is None:
        u = np.full(n, problem.dirichlet_value, dtype=float)
    else:
        u = np.array(u0, dtype=float)
        if u.shape != (n,):
            raise ValueError("starting vector has wrong length")
        np.maximum(u, 0.0, out=u)
    u[problem.mesh.dirichlet_nodes] = problem.dirichlet_value
    return u, tol * max(1.0, float(np.abs(problem.load).max(initial=0.0)), problem.dirichlet_value)


def _finalize(problem, u, iters, tol_abs, residual) -> VISolution:
    """The solution u, or SolverError carrying it when its residual misses tol_abs (NaN does)."""
    free = problem.mesh.free_nodes
    sol = VISolution(u, free[u[free] <= tol_abs], residual, iters)
    if not residual <= tol_abs:
        raise SolverError(f"state solve did not converge (residual {residual:.3e})", sol)
    return sol


def lift_solution(problem: ObstacleProblem, tol: float) -> VISolution:
    """The lift u = b on every node, in no iteration: the solution of a problem with no load,
    as A's rows sum to zero. Its complementarity residual is held to tol * max(1, ||f||_inf, b),
    as a solver's is."""
    u, tol_abs = _start(problem, None, tol)
    return _finalize(problem, u, 0, tol_abs, _complementarity_residual(problem, u))


def solve_reduced(stiffness: sp.dia_matrix, nodes: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A[nodes, nodes] x = rhs (a PDAS step or an adjoint) by sparse LU on the CSC
    block of the ascending nodes, ordered by minimum degree on A + A^T since A is SPD on free
    nodes. SuperLU signals overflow or singularity by non-finite values: those raise SolverError,
which names the fault that SuperLU's singularity warning would, so that warning is silenced."""
    if not np.all(np.isfinite(rhs)):
        raise SolverError("right-hand side of the reduced system is not finite")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = spla.spsolve(block(stiffness, nodes, nodes), rhs, permc_spec="MMD_AT_PLUS_A")
    if not np.all(np.isfinite(x)):
        raise SolverError("solution of the reduced system is not finite")
    return x


def solve_psor(
    problem: ObstacleProblem, tol: float = 1e-10, u0: np.ndarray | None = None
) -> VISolution:
    """Projected SOR sweeps over the free nodes with projection max(., 0), in
    red-black order, the free nodes whose grid row plus column is even and odd,
    split afresh on each call: the stiffness couples a colour only to the other
    one, so each colour's Gauss-Seidel half-sweep is one array update. omega is
    2 / (1 + sin(pi / n)) with n = max(nx, ny, 2), Young's optimum for the
    model problem on an n x n grid.

    tol is relative to max(1, ||f||_inf, b). Raises SolverError carrying the last
    sweep (never a silent wrong answer) if 50 sweeps per vertex do not reach it.
    """
    a, mesh, free = problem.stiffness, problem.mesh, problem.mesh.free_nodes
    diag = a.diagonal()
    if np.any(diag[free] <= 0):
        raise SolverError("nonpositive diagonal on a free node")
    f = problem.load
    u, tol_abs = _start(problem, u0, tol)
    every = np.arange(mesh.num_vertices)
    black = np.add(*np.divmod(free, mesh.nx + 1)) % 2 == 1  # grid row + column odd
    colours = [(c, block(a, c, every), f[c], diag[c]) for c in (free[~black], free[black])]
    max_sweeps = 50 * mesh.num_vertices
    omega = 2.0 / (1.0 + np.sin(np.pi / max(mesh.nx, mesh.ny, 2)))

    for it in range(1, max_sweeps + 1):
        for c, a_c, f_c, diag_c in colours:
            u[c] = np.maximum(u[c] + omega * (f_c - a_c @ u) / diag_c, 0.0)
        if (residual := _complementarity_residual(problem, u)) <= tol_abs:
            break
    return _finalize(problem, u, it, tol_abs, residual)


def solve_pdas(
    problem: ObstacleProblem, tol: float = 1e-10, u0: np.ndarray | None = None
) -> VISolution:
    """Primal-dual active set iteration, at most 100 steps.

    From the multiplier estimate mu = f - A u, a free node is predicted active
    when u + mu < 0, tested as u < A u - f (with gradual underflow, x - y < 0
    exactly when x < y); ties count as inactive, so a strictly interior solution
    is a fixed point of the all-inactive set. The weight of mu is 1: it only
    steers the path, since the reduced system on the final inactive nodes is
    solved exactly by `solve_reduced`.

    The run stops at the first solved state within tolerance: its
    complementarity residual max|min(u, A u - f)| over the free nodes is at most
    tol * max(1, ||f||_inf, b), which is what a solution within tolerance means.
    Raises SolverError carrying the 100th state if none is.
    """
    free, dirichlet = problem.mesh.free_nodes, problem.mesh.dirichlet_nodes
    a, f, b = problem.stiffness, problem.load, problem.dirichlet_value
    u, tol_abs = _start(problem, u0, tol)
    r = a @ u - f  # -mu to the bit: IEEE subtraction is sign-symmetric
    for it in range(1, 101):
        inactive = free[~(u < r)[free]]
        del r  # recomputed after the solve, so not held through it
        u = np.zeros(problem.mesh.num_vertices)
        u[dirichlet] = b
        if inactive.size:  # f less the lift A[I, D] b = (A u)[I], summed from +0.0 by column
            u[inactive] = solve_reduced(a, inactive, f[inactive] - (a @ u)[inactive])
        r = a @ u - f
        if (residual := _complementarity_residual(problem, u, r)) <= tol_abs:
            break
    return _finalize(problem, u, it, tol_abs, residual)


def dump_solution(mesh: Mesh, solution: VISolution, path) -> None:
    """Per-vertex `x,y,u,active` dump for plotting the discrete free boundary."""
    active = np.zeros(mesh.num_vertices, dtype=int)
    active[solution.active_set] = 1
    # Python floats and ints from tolist() print as repr(float(x)) and int(a) would; the
    # vertices run row-major, so each grid line's x or y is printed once
    xs, ys = ([repr(v) for v in line.tolist()] for line in mesh.lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,u,active\n")
        rows = zip(product(ys, xs), solution.u.tolist(), active.tolist())
        fh.writelines(f"{x},{y},{u!r},{a}\n" for (y, x), u, a in rows)
