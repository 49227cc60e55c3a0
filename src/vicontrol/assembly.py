"""P1 finite element assembly: stiffness, mass, boundary mass, loads, norms.

All integrands are polynomial on each triangle/edge, so every matrix and
vector here is integrated exactly; no quadrature error enters downstream
convergence studies.
"""

from __future__ import annotations

import functools
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


def _areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
    if np.any(area <= 0):
        raise ValueError("degenerate or negatively oriented triangle")
    return area


def local_stiffness(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element stiffness (3, 3, ...) of triangles with vertex x- and
    y-coordinates x, y (3, ...); the two broadcast against each other."""
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    # divided in place, so the sum is the one (3, 3, ...) temporary; float even for int input
    stiffness = (b[:, None] * b + c[:, None] * c).astype(float, copy=False)
    stiffness /= 4.0 * _areas(x, y)
    return stiffness


def local_mass(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element mass (3, 3, ...): area * [[2,1,1],[1,2,1],[1,1,2]] / 12."""
    return np.multiply.outer((np.ones((3, 3)) + np.eye(3)) / 12.0, _areas(x, y))


# Neighbour (row, column) grid offsets of a vertex in increasing index order:
# -(nx+2), -(nx+1), -1, 0, 1, nx+1, nx+2. Every coupling of the mesh is one.
_OFFSETS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
# local vertices of a cell's lower and upper triangle, as (row, column) corners
_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))


@functools.lru_cache(maxsize=1)
def _pattern(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR pattern of the 7 slots on an nx-by-ny grid: the stored-slot mask
    (ny+1, nx+1, 7), column indices and row pointers, read-only. A slot is
    stored where its neighbour lies on the grid: no duplicates, sorted columns."""
    dr, dc = np.array(_OFFSETS).T
    rows = np.arange(ny + 1)[:, None] + dr
    cols = np.arange(nx + 1)[:, None] + dc
    row_ok, col_ok = (rows >= 0) & (rows <= ny), (cols >= 0) & (cols <= nx)
    # scipy's own index type for these values, so that csr_matrix takes the copies as they are
    n = (nx + 1) * (ny + 1)
    index = sp.get_index_dtype(maxval=7 * n)
    counts = row_ok.astype(index) @ col_ok.T.astype(index)  # stored slots per vertex
    indptr = np.concatenate([[0], np.cumsum(counts.ravel())]).astype(index)
    # mask and columns laid out (ny+1, (nx+1)*7), so that inner loops run along grid rows
    stored = np.tile(row_ok, nx + 1) & col_ok.ravel()
    first_row = (cols + dr * (nx + 1)).astype(index).ravel()  # the columns of grid row 0
    columns = np.arange(0, n, nx + 1, dtype=index)[:, None] + first_row
    pattern = stored.reshape(ny + 1, nx + 1, 7), columns[stored], indptr
    for array in pattern:
        array.flags.writeable = False
    return pattern


def _assemble(mesh: Mesh, kernel) -> sp.csr_matrix:
    """Global CSR matrix from the element matrices of both triangles of every
    cell, summed straight into each row's stencil slots. The vertex grid is
    the tensor product of its first row's x and first column's y, so kernel
    gets corner x of shape (3, 1, nx) and y of shape (3, ny, 1)."""
    nx, ny = mesh.nx, mesh.ny
    xs, ys = mesh.vertices[: nx + 1, 0], mesh.vertices[:: nx + 1, 1]
    stencil = np.zeros((len(_OFFSETS), ny + 1, nx + 1))
    for corners in _CORNERS:
        x = np.stack([xs[c : c + nx] for _, c in corners])[:, None, :]
        y = np.stack([ys[r : r + ny] for r, _ in corners])[:, :, None]
        local = kernel(x, y)
        for i, (ri, ci) in enumerate(corners):
            for j, (rj, cj) in enumerate(corners):
                slot = _OFFSETS.index((rj - ri, cj - ci))
                stencil[slot, ri : ri + ny, ci : ci + nx] += local[i, j]
        del local  # freed before the next kernel call, which can then reuse its memory
    stored, indices, indptr = _pattern(nx, ny)
    data = stencil.transpose(1, 2, 0)[stored]
    # copies: eliminate_zeros compacts a matrix's index arrays in place
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(mesh.num_vertices,) * 2)


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

