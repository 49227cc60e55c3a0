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

from .mesh import SIDES, Mesh, _nodal, interpolate


@dataclass(frozen=True)
class DofMap:
    """Partition of vertex indices into Dirichlet (on Gamma1) and free nodes.

    Corner vertices shared by Gamma1 and Gamma2 edges count as Dirichlet.
    colours splits the free nodes into red and black, those whose grid row
    plus column is even and odd: the 5-point stiffness couples only nodes of
    opposite colour.
    """

    dirichlet_nodes: np.ndarray
    free_nodes: np.ndarray
    colours: tuple[np.ndarray, np.ndarray]


def dof_map(mesh: Mesh) -> DofMap:
    on_gamma1, black = np.zeros((2, mesh.ny + 1, mesh.nx + 1), dtype=bool)
    for side in mesh.gamma1_sides:
        on_gamma1[SIDES[side]] = True
    black[::2, 1::2] = black[1::2, ::2] = True
    free = ~on_gamma1
    return DofMap(
        dirichlet_nodes=np.flatnonzero(on_gamma1),
        free_nodes=np.flatnonzero(free),
        colours=(np.flatnonzero(free & ~black), np.flatnonzero(free & black)),
    )


# local vertices of a cell's lower and upper triangle, as (row, column) corners
_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))


def _pattern(nx: int, ny: int, offsets: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR pattern of the stencil slots at the (row, column) grid offsets on an
    nx-by-ny grid: the stored-slot mask (ny+1, nx+1, slots), column indices and
    row pointers. Offsets come sorted, so that each row's columns increase, and a
    slot is stored where its neighbour lies on the grid: no duplicates."""
    dr, dc = np.array(offsets).T
    rows = np.arange(ny + 1)[:, None] + dr
    cols = np.arange(nx + 1)[:, None] + dc
    row_ok, col_ok = (rows >= 0) & (rows <= ny), (cols >= 0) & (cols <= nx)
    # scipy's own index type for these values, so that csr_matrix takes the arrays as they are
    n = (nx + 1) * (ny + 1)
    index = sp.get_index_dtype(maxval=len(offsets) * n)
    # stored slots per vertex by a float32 (BLAS) product: at most 7, so exact; a
    # float64 product's temporary would raise sweep-512's peak RSS by 1.6 MB
    counts = (row_ok.astype(np.float32) @ col_ok.T.astype(np.float32)).astype(index)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(counts.ravel(), out=indptr[1:])
    # mask and columns laid out (ny+1, (nx+1)*slots), so that inner loops run along grid rows
    stored = np.tile(row_ok, nx + 1) & col_ok.ravel()
    first_row = (cols + dr * (nx + 1)).astype(index).ravel()  # the columns of grid row 0
    columns = np.arange(0, n, nx + 1, dtype=index)[:, None] + first_row
    return stored.reshape(ny + 1, nx + 1, len(offsets)), columns[stored], indptr


def _assemble(mesh: Mesh, local) -> sp.csr_matrix:
    """Global CSR matrix from the element matrices of both triangles of every
    cell, summed straight into each row's stencil slots. Every triangle has a
    right angle and legs dx, dy along the axes, so local(dx, dy, area) gives
    each element matrix in closed form: for the lower and the upper triangle,
    3x3 entries that are (ny, nx) arrays, or None where the entry is zero. The
    slots are the grid offsets of the entries that are not None, so the matrix
    stores no other."""
    nx, ny = mesh.nx, mesh.ny
    # the vertex grid is the tensor product of its first row's x and first column's y
    dx = np.diff(mesh.vertices[: nx + 1, 0])
    dy = np.diff(mesh.vertices[:: nx + 1, 1])[:, None]
    if not (np.all(dx > 0) and np.all(dy > 0)):
        raise ValueError("degenerate triangles: grid lines coincide or decrease")
    entries = [
        ((rj - ri, cj - ci), (ri, ci), entry)
        for corners, matrix in zip(_CORNERS, local(dx, dy, 0.5 * (dx * dy)))
        for (ri, ci), row in zip(corners, matrix)
        for (rj, cj), entry in zip(corners, row)
        if entry is not None
    ]
    offsets = sorted({offset for offset, _, _ in entries})
    stencil = np.zeros((len(offsets), ny + 1, nx + 1))
    for offset, (ri, ci), entry in entries:
        stencil[offsets.index(offset), ri : ri + ny, ci : ci + nx] += entry
    stored, indices, indptr = _pattern(nx, ny, offsets)
    data = stencil.transpose(1, 2, 0)[stored]
    return sp.csr_matrix((data, indices, indptr), shape=(mesh.num_vertices,) * 2)


def _stiffness(dx, dy, area):
    """grad(phi_i) . grad(phi_j) |T| on a right triangle with legs dx, dy, over
    q = 4|T|: dy^2/q at the far end of the dx leg, dx^2/q at that of the dy leg
    and (dx^2+dy^2)/q at the right angle; the two ends of a leg couple with
    minus the other leg's square over q, the ends of the hypotenuse not at all."""
    q = 4.0 * area
    kx, ky, kxy = dx * dx / q, dy * dy / q, (dy * dy + dx * dx) / q
    mx, my = -kx, -ky
    return (
        ((ky, my, None), (my, kxy, mx), (None, mx, kx)),
        ((kx, None, mx), (None, ky, my), (mx, my, kxy)),
    )


def _mass(dx, dy, area):
    """phi_i phi_j |T|: |T|/6 on the diagonal, |T|/12 off it."""
    d, o = area * (2.0 / 12.0), area * (1.0 / 12.0)
    return (((d, o, o), (o, d, o), (o, o, d)),) * 2


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Global stiffness A[i,j] = integral of grad(phi_i) . grad(phi_j)."""
    # the hypotenuse couplings of right triangles with axis-parallel legs are
    # exact zeros, so A is the 5-point stencil
    return _assemble(mesh, _stiffness)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Global mass M[i,j] = integral of phi_i * phi_j over the domain."""
    return _assemble(mesh, _mass)


def assemble_boundary_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix of the Gamma2 trace: integral of phi_i phi_j over Gamma2,
    whose edges join consecutive vertices along each side not on Gamma1."""
    n = mesh.num_vertices
    grid = np.arange(n, dtype=np.int64).reshape(mesh.ny + 1, mesh.nx + 1)
    gamma2 = [grid[index] for side, index in SIDES.items() if side not in mesh.gamma1_sides]
    pairs = [np.column_stack([v[:-1], v[1:]]) for v in gamma2]
    edges = np.concatenate([np.empty((0, 2), np.int64), *pairs])  # none if Gamma1 is every side
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


def l2_norm(field: np.ndarray, mesh: Mesh, mass: sp.csr_matrix | None = None) -> float:
    """L2(Omega) norm of a P1 field: sqrt(v' M_H v)."""
    v = _nodal(mesh, field)
    m = assemble_mass(mesh) if mass is None else mass
    return float(np.sqrt(max(v @ (m @ v), 0.0)))


def h1_norm(
    field: np.ndarray,
    mesh: Mesh,
    stiffness: sp.csr_matrix | None = None,
    mass: sp.csr_matrix | None = None,
) -> float:
    """Full H1(Omega) norm: sqrt(v' (A + M_H) v)."""
    v = _nodal(mesh, field)
    a = assemble_stiffness(mesh) if stiffness is None else stiffness
    m = assemble_mass(mesh) if mass is None else mass
    return float(np.sqrt(max(v @ (a @ v) + v @ (m @ v), 0.0)))


def boundary_l2_norm(
    field: np.ndarray, mesh: Mesh, boundary_mass: sp.csr_matrix | None = None
) -> float:
    """L2(Gamma2) norm of the trace of a P1 field."""
    v = _nodal(mesh, field)
    m = assemble_boundary_mass(mesh) if boundary_mass is None else boundary_mass
    return float(np.sqrt(max(v @ (m @ v), 0.0)))


def coercivity_constant(
    mesh: Mesh, stiffness: sp.csr_matrix | None = None, mass: sp.csr_matrix | None = None
) -> float:
    """Discrete coercivity constant of the stiffness form on the free nodes.

    Smallest eigenvalue of A x = lambda (A + M_H) x restricted to nodes off
    Gamma1, by shift-invert Lanczos about 0 from a fixed start vector. By the
    Rayleigh characterization, a(v, v) >= lambda * ||v||_V^2 for all discrete
    v vanishing on Gamma1.
    """
    a = assemble_stiffness(mesh) if stiffness is None else stiffness
    m = assemble_mass(mesh) if mass is None else mass
    free = dof_map(mesh).free_nodes
    if free.size == 0:
        raise ValueError("no free nodes: Gamma1 covers every vertex")
    a_ff = a[np.ix_(free, free)].tocsc()
    b_ff = (a_ff + m[np.ix_(free, free)]).tocsc()
    if free.size == 1:  # eigsh needs k < N
        return float(a_ff[0, 0] / b_ff[0, 0])
    lam = spla.eigsh(a_ff, k=1, M=b_ff, sigma=0, v0=np.ones(free.size), return_eigenvectors=False)
    return float(lam[0])
