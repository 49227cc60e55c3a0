"""Solvers for the discrete obstacle-type variational inequality.

Find u with u = b on the Dirichlet nodes, u >= 0 elsewhere, and
A u - f complementarity: (A u - f)[i] >= 0 wherever u[i] = 0 and
(A u - f)[i] = 0 wherever u[i] > 0.

Two iterative solvers (projected SOR and a primal-dual active set method)
plus a 2^n enumeration oracle for small problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DofMap
from .mesh import Mesh


class SolverError(RuntimeError):
    """A state solve or the optimizer failed, or a cost or norm overflowed;
    `solution` is the unconverged state iterate, if any."""

    def __init__(self, message: str, solution: VISolution | None = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class ObstacleProblem:
    """Discrete obstacle problem data.

    stiffness : global stiffness matrix A
    load      : f = M_H g - F_q (full-length vector)
    dirichlet_value : boundary temperature b >= 0
    dofs      : Dirichlet/free node partition
    """

    stiffness: sp.csr_matrix
    load: np.ndarray
    dirichlet_value: float
    dofs: DofMap

    def __post_init__(self):
        if self.dirichlet_value < 0:
            raise ValueError(f"dirichlet value must be >= 0, got {self.dirichlet_value}")
        if not np.all(np.isfinite(self.load)):
            raise ValueError("load vector contains non-finite entries")

    @property
    def size(self) -> int:
        return self.load.shape[0]

    def residual_scale(self) -> float:
        return max(1.0, float(np.abs(self.load).max(initial=0.0)))


@dataclass
class VISolution:
    """State vector plus complementarity diagnostics."""

    u: np.ndarray
    active_set: np.ndarray  # free-node indices where u = 0
    complementarity_residual: float
    iterations: int
    converged: bool
    method: str = "unknown"


def _complementarity_residual(problem: ObstacleProblem, u: np.ndarray) -> float:
    """Max-norm of min(u, A u - f) over the free nodes (0 at the solution)."""
    free = problem.dofs.free_nodes
    r = (problem.stiffness @ u - problem.load)[free]
    return float(np.abs(np.minimum(u[free], r)).max(initial=0.0))


def _initial_state(problem: ObstacleProblem, u0: np.ndarray | None) -> np.ndarray:
    if u0 is None:
        u = np.full(problem.size, problem.dirichlet_value, dtype=float)
    else:
        u = np.array(u0, dtype=float)
        if u.shape != (problem.size,):
            raise ValueError("starting vector has wrong length")
        u = np.maximum(u, 0.0)
    u[problem.dofs.dirichlet_nodes] = problem.dirichlet_value
    return u


def _finalize(problem, u, iters, converged, method, tol_abs) -> VISolution:
    free = problem.dofs.free_nodes
    active = free[u[free] <= tol_abs]
    return VISolution(u, active, _complementarity_residual(problem, u), iters, converged, method)


def solve_reduced(stiffness: sp.csr_matrix, nodes: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A[nodes, nodes] x = rhs (a PDAS step or an adjoint) by sparse LU,
    ordered by minimum degree on A + A^T since A is SPD on free nodes. SuperLU
    signals overflow or singularity by non-finite values: those raise SolverError."""
    if not np.all(np.isfinite(rhs)):
        raise SolverError("right-hand side of the reduced system is not finite")
    x = spla.spsolve(stiffness[np.ix_(nodes, nodes)].tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
    if not np.all(np.isfinite(x)):
        raise SolverError("solution of the reduced system is not finite")
    return x


def solve_psor(
    problem: ObstacleProblem,
    omega: float = 1.5,
    tol: float = 1e-10,
    max_iter: int | None = None,
    u0: np.ndarray | None = None,
) -> VISolution:
    """Projected SOR sweeps over the free nodes with projection max(., 0).

    tol is relative to max(1, ||f||_inf). Returns converged=False (never a
    silent wrong answer) if max_iter sweeps do not reach the tolerance.
    """
    if not 0.0 < omega < 2.0:
        raise ValueError(f"omega must be in (0, 2), got {omega}")
    free = problem.dofs.free_nodes
    n = problem.size
    if max_iter is None:
        max_iter = 50 * n
    a = problem.stiffness.tocsr()
    indptr, indices, data = a.indptr, a.indices, a.data
    diag = a.diagonal()
    if np.any(diag[free] <= 0):
        raise SolverError("nonpositive diagonal on a free node")
    f = problem.load
    u = _initial_state(problem, u0)
    tol_abs = tol * problem.residual_scale()

    for it in range(1, max_iter + 1):
        for i in free:
            row = slice(indptr[i], indptr[i + 1])
            r = f[i] - data[row] @ u[indices[row]]
            u[i] = max(u[i] + omega * r / diag[i], 0.0)
        if _complementarity_residual(problem, u) <= tol_abs:
            return _finalize(problem, u, it, True, "psor", tol_abs)
    return _finalize(problem, u, max_iter, False, "psor", tol_abs)


def solve_pdas(
    problem: ObstacleProblem,
    c: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 100,
    u0: np.ndarray | None = None,
) -> VISolution:
    """Primal-dual active set iteration.

    From the multiplier estimate mu = f - A u, a free node is predicted
    active when u + mu/c < 0 (ties count as inactive, so a strictly interior
    solution is a fixed point of the all-inactive set). The reduced system on
    the inactive nodes is solved exactly by `solve_reduced`.
    """
    if c <= 0:
        raise ValueError(f"active-set weight c must be > 0, got {c}")
    free = problem.dofs.free_nodes
    dirichlet = problem.dofs.dirichlet_nodes
    a = problem.stiffness.tocsr()
    f = problem.load
    b = problem.dirichlet_value
    u = _initial_state(problem, u0)
    tol_abs = tol * problem.residual_scale()

    # the Dirichlet lift A[:, D] b, taken on each iteration's inactive rows
    lift = a[:, dirichlet] @ np.full(dirichlet.size, b)
    mu = f - a @ u
    older_mask = active_mask = (u[free] + mu[free] / c) < 0.0
    for it in range(1, max_iter + 1):
        inactive = free[~active_mask]
        u = np.zeros(problem.size)
        u[dirichlet] = b
        if inactive.size:
            u[inactive] = solve_reduced(a, inactive, f[inactive] - lift[inactive])
        mu = f - a @ u
        new_mask = (u[free] + mu[free] / c) < 0.0
        # accept a fixed point, or a two-cycle, of the active set within tolerance
        settled = np.array_equal(new_mask, active_mask) or np.array_equal(new_mask, older_mask)
        if settled and _complementarity_residual(problem, u) <= tol_abs:
            return _finalize(problem, u, it, True, "pdas", tol_abs)
        older_mask, active_mask = active_mask, new_mask
    return _finalize(problem, u, max_iter, False, "pdas", tol_abs)


def brute_force_oracle(problem: ObstacleProblem, tol: float = 1e-11) -> VISolution:
    """Enumerate every active/inactive partition of the free nodes.

    For each partition the reduced equality system is solved and the KKT sign
    conditions checked; the unique feasible partition gives the solution.
    Only for problems with at most 16 free nodes.
    """
    free = problem.dofs.free_nodes
    dirichlet = problem.dofs.dirichlet_nodes
    n = free.size
    if n > 16:
        raise ValueError(f"brute force limited to 16 free nodes, got {n}")
    a = problem.stiffness.tocsr()
    f = problem.load
    b = problem.dirichlet_value
    scale = problem.residual_scale()

    # dense free-node reduction; one 2^n sweep over active/inactive partitions
    a_ff = a[np.ix_(free, free)].toarray()
    rhs_free = f[free] - a[np.ix_(free, dirichlet)].toarray() @ np.full(dirichlet.size, b)
    ks = np.arange(n)

    for bits in range(1 << n):
        active_mask = ((bits >> ks) & 1).astype(bool)
        inact = ~active_mask
        u_free = np.zeros(n)
        if inact.any():
            try:
                u_free[inact] = np.linalg.solve(
                    a_ff[np.ix_(inact, inact)], rhs_free[inact]
                )
            except np.linalg.LinAlgError:
                continue
        if np.any(u_free < -tol * max(1.0, abs(b))):
            continue
        nu = a_ff[active_mask] @ u_free - rhs_free[active_mask]
        if np.any(nu < -tol * scale):
            continue
        u = np.zeros(problem.size)
        u[dirichlet] = b
        u[free] = np.maximum(u_free, 0.0)
        return _finalize(problem, u, bits + 1, True, "brute_force", tol)
    raise SolverError("no KKT-feasible active set found (numerical inconsistency)")


def verify_vi(
    problem: ObstacleProblem,
    solution: VISolution,
    probes: list[np.ndarray],
    feas_tol: float = 1e-9,
) -> float:
    """Worst value of a(u, v-u) - (f, v-u) over the probe directions.

    Nonnegative (up to solver tolerance) for a valid solution. Probes must be
    feasible: v >= 0 everywhere, v = b on the Dirichlet nodes.
    """
    u = solution.u
    b = problem.dirichlet_value
    residual = problem.stiffness @ u - problem.load
    worst = np.inf
    for k, v in enumerate(probes):
        v = np.asarray(v, dtype=float)
        if v.shape != u.shape:
            raise ValueError(f"probe {k} has wrong length")
        if np.any(v < -feas_tol):
            raise ValueError(f"probe {k} violates v >= 0")
        if np.any(np.abs(v[problem.dofs.dirichlet_nodes] - b) > feas_tol):
            raise ValueError(f"probe {k} violates v = b on Gamma1")
        worst = min(worst, float(residual @ (v - u)))
    return worst


def dump_solution(mesh: Mesh, solution: VISolution, path) -> None:
    """Per-vertex `x,y,u,active` dump for plotting the discrete free boundary."""
    active = np.zeros(mesh.num_vertices, dtype=int)
    active[solution.active_set] = 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,u,active\n")
        for (x, y), ui, ai in zip(mesh.vertices, solution.u, active):
            fh.write(f"{float(x)!r},{float(y)!r},{float(ui)!r},{int(ai)}\n")
