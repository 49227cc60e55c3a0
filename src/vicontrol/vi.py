"""Solvers for the discrete obstacle-type variational inequality.

Find u with u = b on the Dirichlet nodes, u >= 0 elsewhere, and
A u - f complementarity: (A u - f)[i] >= 0 wherever u[i] = 0 and
(A u - f)[i] = 0 wherever u[i] > 0.

Two iterative solvers: projected SOR and a primal-dual active set method.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DofMap, block
from .mesh import Mesh


class SolverError(RuntimeError):
    """A state solve or the optimizer failed, or a cost or norm overflowed;
    `solution` is the unconverged state iterate, if any."""

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


@dataclass(frozen=True)
class ObstacleProblem:
    """Discrete obstacle problem data.

    stiffness : global stiffness matrix A: symmetric, its 5-point stencil in DIA
    load      : f = M_H g - F_q (full-length vector; F_q lives on Gamma2)
    dirichlet_value : boundary temperature b >= 0
    dofs      : Dirichlet/free node partition
    """

    stiffness: sp.dia_matrix
    load: np.ndarray
    dirichlet_value: float
    dofs: DofMap

    def __post_init__(self):
        if self.dirichlet_value < 0:
            raise ValueError(f"dirichlet value must be >= 0, got {self.dirichlet_value}")
        if not np.all(np.isfinite(self.load)):  # a load past the float range, as in a solve
            raise SolverError("load vector contains non-finite entries")

    @property
    def size(self) -> int:
        return self.load.shape[0]

    def residual_scale(self) -> float:
        return max(1.0, float(np.abs(self.load).max(initial=0.0)))


# a state solve's result: the state u, its active set (the free nodes where u = 0), the
# complementarity residual, the iteration count and whether it met its tolerance
VISolution = namedtuple("VISolution", "u active_set complementarity_residual iterations converged")


def _complementarity_residual(
    problem: ObstacleProblem, u: np.ndarray, r: np.ndarray | None = None
) -> float:
    """Max-norm of min(u, A u - f) over the free nodes (0 at the solution);
    r is A u - f where the caller already has it."""
    free = problem.dofs.free_nodes
    r = problem.stiffness @ u - problem.load if r is None else r
    gathered = u[free]  # a copy of its own, which the rest works in
    np.minimum(gathered, r[free], out=gathered)
    return float(np.abs(gathered, out=gathered).max(initial=0.0))


def _initial_state(problem: ObstacleProblem, u0: np.ndarray | None) -> np.ndarray:
    if u0 is None:
        u = np.full(problem.size, problem.dirichlet_value, dtype=float)
    else:
        u = np.array(u0, dtype=float)
        if u.shape != (problem.size,):
            raise ValueError("starting vector has wrong length")
        np.maximum(u, 0.0, out=u)
    u[problem.dofs.dirichlet_nodes] = problem.dirichlet_value
    return u


def _finalize(problem, u, iters, converged, tol_abs, residual) -> VISolution:
    free = problem.dofs.free_nodes
    active = free[u[free] <= tol_abs]
    return VISolution(u, active, residual, iters, converged)


def lift_solution(problem: ObstacleProblem, tol: float) -> VISolution:
    """The lift u = b on every node, in no iteration: the solution of a problem with no load,
    as A's rows sum to zero. It has converged when its complementarity residual is within
    tol * max(1, ||f||_inf), as a solver's would."""
    u = _initial_state(problem, None)
    tol_abs = tol * problem.residual_scale()
    residual = _complementarity_residual(problem, u)
    return _finalize(problem, u, 0, residual <= tol_abs, tol_abs, residual)


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
    red-black order: the stiffness couples a colour only to the other one, so
    each colour's Gauss-Seidel half-sweep is one array update. omega is
    2 / (1 + sin(pi / n)) with n = max(nx, ny, 2), Young's optimum for the
    model problem on an n x n grid.

    tol is relative to max(1, ||f||_inf). Returns converged=False (never a
    silent wrong answer) if 50 sweeps per vertex do not reach the tolerance.
    """
    a = problem.stiffness
    diag = a.diagonal()
    if np.any(diag[problem.dofs.free_nodes] <= 0):
        raise SolverError("nonpositive diagonal on a free node")
    f = problem.load
    u = _initial_state(problem, u0)
    tol_abs = tol * problem.residual_scale()
    every = np.arange(problem.size)
    colours = [(c, block(a, c, every), f[c], diag[c]) for c in problem.dofs.colours]
    max_sweeps = 50 * problem.size
    width = problem.dofs.width  # nx + 1 vertices per grid row, of ny + 1 rows
    omega = 2.0 / (1.0 + np.sin(np.pi / max(width - 1, problem.size // width - 1, 2)))

    for it in range(1, max_sweeps + 1):
        for c, a_c, f_c, diag_c in colours:
            u[c] = np.maximum(u[c] + omega * (f_c - a_c @ u) / diag_c, 0.0)
        if (residual := _complementarity_residual(problem, u)) <= tol_abs:
            return _finalize(problem, u, it, True, tol_abs, residual)
    return _finalize(problem, u, max_sweeps, False, tol_abs, residual)


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

    The run stops converged at the first solved state within tolerance: its
    complementarity residual max|min(u, A u - f)| over the free nodes is at most
    tol * max(1, ||f||_inf), which is what a solution within tolerance means.
    """
    free, dirichlet = problem.dofs.free_nodes, problem.dofs.dirichlet_nodes
    a, f, b = problem.stiffness, problem.load, problem.dirichlet_value
    u = _initial_state(problem, u0)
    tol_abs = tol * problem.residual_scale()
    r = a @ u - f  # -mu to the bit: IEEE subtraction is sign-symmetric
    for it in range(1, 101):
        inactive = free[~(u < r)[free]]
        del r  # recomputed after the solve, so not held through it
        u = np.zeros(problem.size)
        u[dirichlet] = b
        if inactive.size:  # f less the lift A[I, D] b = (A u)[I], summed from +0.0 by column
            u[inactive] = solve_reduced(a, inactive, f[inactive] - (a @ u)[inactive])
        r = a @ u - f
        if (residual := _complementarity_residual(problem, u, r)) <= tol_abs:
            return _finalize(problem, u, it, True, tol_abs, residual)
    return _finalize(problem, u, 100, False, tol_abs, residual)


def dump_solution(mesh: Mesh, solution: VISolution, path) -> None:
    """Per-vertex `x,y,u,active` dump for plotting the discrete free boundary."""
    active = np.zeros(mesh.num_vertices, dtype=int)
    active[solution.active_set] = 1
    # Python floats and ints from tolist() print as repr(float(x)) and int(a) would; the
    # vertices run row-major, so each grid column's x and each grid row's y is printed once
    width, coordinates = mesh.nx + 1, mesh.vertices.T
    xs = [repr(x) for x in coordinates[0, :width].tolist()]
    ys = [repr(y) for y in coordinates[1, ::width].tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,u,active\n")
        rows = zip(product(ys, xs), solution.u.tolist(), active.tolist())
        fh.writelines(f"{x},{y},{u!r},{a}\n" for (y, x), u, a in rows)
