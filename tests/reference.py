"""Reference computations that the tests check the package against: the scale
of a state solve's tolerance, a 2^n enumeration oracle for the discrete obstacle
problem, a probe check of the variational inequality, and pointwise evaluation
of a P1 field."""

import numpy as np

from vicontrol.mesh import Mesh, _nodal, _p1
from vicontrol.vi import ObstacleProblem, SolverError, VISolution, _complementarity_residual


def residual_scale(problem: ObstacleProblem) -> float:
    """max(1, ||f||_inf, b), the scale that a state solve's tolerance is relative to."""
    return max(1.0, float(np.abs(problem.load).max(initial=0.0)), problem.dirichlet_value)


def brute_force_oracle(problem: ObstacleProblem) -> VISolution:
    """Enumerate every active/inactive partition of the free nodes.

    For each partition the reduced equality system is solved and the KKT sign
    conditions checked, to 1e-11 relative to max(1, b) and to `residual_scale`;
    the unique feasible partition gives the solution. Only for problems with
    at most 16 free nodes.
    """
    free = problem.mesh.free_nodes
    dirichlet = problem.mesh.dirichlet_nodes
    n = free.size
    if n > 16:
        raise ValueError(f"brute force limited to 16 free nodes, got {n}")
    a = problem.stiffness.tocsr()
    f = problem.load
    b = problem.dirichlet_value
    scale = residual_scale(problem)
    tol = 1e-11

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
        u = np.zeros(problem.mesh.num_vertices)
        u[dirichlet] = b
        u[free] = np.maximum(u_free, 0.0)
        # the active set to the absolute 1e-11, which is not a solver's relative tolerance
        active = free[u[free] <= tol]
        return VISolution(u, active, _complementarity_residual(problem, u), bits + 1)
    raise SolverError("no KKT-feasible active set found (numerical inconsistency)")


def verify_vi(problem: ObstacleProblem, solution: VISolution, probes: list[np.ndarray]) -> float:
    """Worst value of a(u, v-u) - (f, v-u) over the probe directions.

    Nonnegative (up to solver tolerance) for a valid solution. Probes must be
    feasible to 1e-9: v >= 0 everywhere, v = b on the Dirichlet nodes.
    """
    u = solution.u
    b = problem.dirichlet_value
    residual = problem.stiffness @ u - problem.load
    worst = np.inf
    for k, v in enumerate(probes):
        v = np.asarray(v, dtype=float)
        if v.shape != u.shape:
            raise ValueError(f"probe {k} has wrong length")
        if np.any(v < -1e-9):
            raise ValueError(f"probe {k} violates v >= 0")
        if np.any(np.abs(v[problem.mesh.dirichlet_nodes] - b) > 1e-9):
            raise ValueError(f"probe {k} violates v = b on Gamma1")
        worst = min(worst, float(residual @ (v - u)))
    return worst


def evaluate_p1(mesh: Mesh, field: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 function with nodal values `field` at arbitrary points.

    Exact point location via the structured grid; points must lie in the
    closed domain rectangle (clamped to guard against roundoff on edges).
    """
    field = _nodal(mesh, field)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x0, y0, x1, y1 = mesh.domain
    dx = (x1 - x0) / mesh.nx
    dy = (y1 - y0) / mesh.ny
    ix = np.clip(((pts[:, 0] - x0) // dx).astype(int), 0, mesh.nx - 1)
    iy = np.clip(((pts[:, 1] - y0) // dy).astype(int), 0, mesh.ny - 1)
    s = (pts[:, 0] - x0) / dx - ix  # local coords in [0, 1]
    t = (pts[:, 1] - y0) / dy - iy
    stride = mesh.nx + 1
    k = iy * stride + ix
    return _p1(field[k], field[k + 1], field[k + stride], field[k + stride + 1], s, t)
