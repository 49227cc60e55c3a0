"""P1 finite element assembly: stiffness, mass, boundary mass, loads, norms.

All integrands are polynomial on each triangle/edge, so every matrix and
vector here is integrated exactly; no quadrature error enters downstream
convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import BoundaryTag, Mesh, interpolate


@dataclass(frozen=True)
class DofMap:
    """Partition of vertex indices into Dirichlet (on Gamma1) and free nodes.

    Corner vertices shared by Gamma1 and Gamma2 edges count as Dirichlet.
    """

    dirichlet_nodes: np.ndarray
    free_nodes: np.ndarray


def dof_map(mesh: Mesh) -> DofMap:
    on_gamma1 = np.zeros(mesh.num_vertices, dtype=bool)
    on_gamma1[mesh.boundary_edges[mesh.boundary_tags == BoundaryTag.GAMMA1]] = True
    dirichlet = np.flatnonzero(on_gamma1)
    free = np.flatnonzero(~on_gamma1)
    return DofMap(dirichlet_nodes=dirichlet, free_nodes=free)


def _areas(coords: np.ndarray) -> np.ndarray:
    x, y = coords[:, 0], coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
    if np.any(area <= 0):
        raise ValueError("degenerate or negatively oriented triangle")
    return area


def local_stiffness(coords: np.ndarray) -> np.ndarray:
    """Element stiffness (3, 3, ...) of triangles with vertex coords (3, 2, ...)."""
    x, y = coords[:, 0], coords[:, 1]
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return (b[:, None] * b + c[:, None] * c) / (4.0 * _areas(coords))


def local_mass(coords: np.ndarray) -> np.ndarray:
    """Element mass (3, 3, ...): area * [[2,1,1],[1,2,1],[1,1,2]] / 12."""
    return np.multiply.outer((np.ones((3, 3)) + np.eye(3)) / 12.0, _areas(coords))


# Neighbour (row, column) grid offsets of a vertex in increasing index order:
# -(nx+2), -(nx+1), -1, 0, 1, nx+1, nx+2. Every coupling of the mesh is one.
_OFFSETS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
# local vertices of a cell's lower and upper triangle, as (row, column) corners
_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))


def _assemble(mesh: Mesh, kernel) -> sp.csr_matrix:
    """Global CSR matrix from the element matrices kernel(coords) of both
    triangles of every cell, summed straight into each row's stencil slots."""
    nx, ny = mesh.nx, mesh.ny
    grid = mesh.vertices.T.reshape(2, ny + 1, nx + 1)
    stencil = np.zeros((len(_OFFSETS), ny + 1, nx + 1))
    for corners in _CORNERS:
        local = kernel(np.stack([grid[:, r : r + ny, c : c + nx] for r, c in corners]))
        for i, (ri, ci) in enumerate(corners):
            for j, (rj, cj) in enumerate(corners):
                slot = _OFFSETS.index((rj - ri, cj - ci))
                stencil[slot, ri : ri + ny, ci : ci + nx] += local[i, j]
    # a slot is stored where its neighbour lies on the grid: no duplicates, sorted columns
    dr, dc = np.array(_OFFSETS).T
    rows = np.arange(ny + 1)[:, None, None] + dr
    cols = np.arange(nx + 1)[:, None] + dc
    stored = (rows >= 0) & (rows <= ny) & (cols >= 0) & (cols <= nx)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=2).ravel())])
    n = mesh.num_vertices
    return sp.csr_matrix(
        (stencil.transpose(1, 2, 0)[stored], (rows * (nx + 1) + cols)[stored], indptr),
        shape=(n, n),
    )


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Global stiffness A[i,j] = integral of grad(phi_i) . grad(phi_j)."""
    a = _assemble(mesh, local_stiffness)
    # the hypotenuse couplings of right triangles with axis-parallel legs are
    # exact zeros: dropping them leaves the 5-point stencil
    a.eliminate_zeros()
    return a


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Global mass M[i,j] = integral of phi_i * phi_j over the domain."""
    return _assemble(mesh, local_mass)


def assemble_boundary_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix of the Gamma2 trace: integral of phi_i phi_j over Gamma2."""
    n = mesh.num_vertices
    edges = mesh.boundary_edges[mesh.boundary_tags == BoundaryTag.GAMMA2]
    length = np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)
    # edge mass (L/6) * [[2,1],[1,2]], exact for products of linears
    vals = np.column_stack([length / 3.0, length / 6.0, length / 6.0, length / 3.0]).ravel()
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, 2).ravel()
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_boundary_flux(mesh: Mesh, q) -> np.ndarray:
    """Load vector F[i] = integral over Gamma2 of q * phi_i ds.

    q is replaced by its piecewise-linear interpolant on boundary edges;
    the edge integrals are then exact. q may be a callable, a constant or
    nodal values.
    """
    q_nodal = interpolate(mesh, q)
    return assemble_boundary_mass(mesh) @ q_nodal


def _check_field(field: np.ndarray, n: int) -> np.ndarray:
    field = np.asarray(field, dtype=float)
    if field.shape != (n,):
        raise ValueError(f"field has shape {field.shape}, expected ({n},)")
    return field


def l2_norm(field: np.ndarray, mesh: Mesh, mass: sp.csr_matrix | None = None) -> float:
    """L2(Omega) norm of a P1 field: sqrt(v' M_H v)."""
    v = _check_field(field, mesh.num_vertices)
    m = assemble_mass(mesh) if mass is None else mass
    return float(np.sqrt(max(v @ (m @ v), 0.0)))


def h1_norm(
    field: np.ndarray,
    mesh: Mesh,
    stiffness: sp.csr_matrix | None = None,
    mass: sp.csr_matrix | None = None,
) -> float:
    """Full H1(Omega) norm: sqrt(v' (A + M_H) v)."""
    v = _check_field(field, mesh.num_vertices)
    a = assemble_stiffness(mesh) if stiffness is None else stiffness
    m = assemble_mass(mesh) if mass is None else mass
    return float(np.sqrt(max(v @ (a @ v) + v @ (m @ v), 0.0)))


def boundary_l2_norm(
    field: np.ndarray, mesh: Mesh, boundary_mass: sp.csr_matrix | None = None
) -> float:
    """L2(Gamma2) norm of the trace of a P1 field."""
    v = _check_field(field, mesh.num_vertices)
    m = assemble_boundary_mass(mesh) if boundary_mass is None else boundary_mass
    return float(np.sqrt(max(v @ (m @ v), 0.0)))


def coercivity_constant(
    mesh: Mesh,
    stiffness: sp.csr_matrix | None = None,
    mass: sp.csr_matrix | None = None,
    rel_tol: float = 1e-10,
    max_iter: int = 10_000,
) -> float:
    """Discrete coercivity constant of the stiffness form on the free nodes.

    Smallest eigenvalue of A x = lambda (A + M_H) x restricted to nodes off
    Gamma1, by inverse power iteration on the pencil. By the Rayleigh
    characterization, a(v, v) >= lambda * ||v||_V^2 for all discrete v
    vanishing on Gamma1.
    """
    a = assemble_stiffness(mesh) if stiffness is None else stiffness
    m = assemble_mass(mesh) if mass is None else mass
    free = dof_map(mesh).free_nodes
    if free.size == 0:
        raise ValueError("no free nodes: Gamma1 covers every vertex")
    a_ff = a[np.ix_(free, free)].tocsc()
    b_ff = (a_ff + m[np.ix_(free, free)]).tocsr()
    try:
        solve = spla.factorized(a_ff)
    except RuntimeError as exc:  # pragma: no cover - requires meas(Gamma1)=0
        raise ValueError("restricted stiffness matrix is singular") from exc

    x = np.ones(free.size)
    lam_old = np.inf
    for _ in range(max_iter):
        y = solve(b_ff @ x)
        y /= np.linalg.norm(y)
        lam = float((y @ (a_ff @ y)) / (y @ (b_ff @ y)))
        x = y
        if abs(lam - lam_old) <= rel_tol * abs(lam):
            return lam
        lam_old = lam
    return lam

