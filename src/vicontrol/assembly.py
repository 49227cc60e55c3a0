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

from .mesh import SIDES, Mesh, interpolate


@dataclass(frozen=True)
class DofMap:
    """Partition of vertex indices into Dirichlet (on Gamma1) and free nodes.

    Corner vertices shared by Gamma1 and Gamma2 edges count as Dirichlet.
    colours splits the free nodes into red and black, those whose grid row
    plus column is even and odd: the 5-point stiffness couples only nodes of
    opposite colour; it is derived on every read, so a DofMap holds only node arrays.
    """

    dirichlet_nodes: np.ndarray
    free_nodes: np.ndarray
    width: int  # vertices per grid row

    @property
    def colours(self) -> tuple[np.ndarray, np.ndarray]:
        black = np.add(*np.divmod(self.free_nodes, self.width)) % 2 == 1  # row + column odd
        return self.free_nodes[~black], self.free_nodes[black]


def dof_map(mesh: Mesh) -> DofMap:
    on_gamma1 = np.zeros((mesh.ny + 1, mesh.nx + 1), dtype=bool)
    for side in mesh.gamma1_sides:
        on_gamma1[SIDES[side]] = True
    return DofMap(
        dirichlet_nodes=np.flatnonzero(on_gamma1),
        free_nodes=np.flatnonzero(~on_gamma1),
        width=mesh.nx + 1,
    )


# local vertices of a cell's lower and upper triangle, as (row, column) corners
_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))


def _assemble(mesh: Mesh, local) -> sp.dia_matrix:
    """Global DIA matrix from the element matrices of both triangles of every
    cell, summed straight into each row's stencil slots. Every triangle has a
    right angle and legs dx, dy along the axes, so local(dx, dy, area) gives
    each element matrix in closed form: for the lower and the upper triangle,
    3x3 entries that are (ny, nx) arrays, or None where the entry is zero. Each
    slot, the grid offset of an entry that is not None, is one diagonal, in
    ascending order; where its neighbour lies off the grid it stores a zero."""
    nx, ny = mesh.nx, mesh.ny
    # cell widths (nx,) and heights (ny, 1), from the grid lines
    x0, y0, x1, y1 = mesh.domain
    dx = np.diff(np.linspace(x0, x1, nx + 1))
    dy = np.diff(np.linspace(y0, y1, ny + 1))[:, None]
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
    del entries  # the element arrays, before the shifts' temporaries
    # slot (dr, dc) of vertex i is M[i, i + k], k = dr*(nx+1) + dc, which DIA
    # stores at column i + k; what wraps round the ends is off-grid, so zero
    diagonals = stencil.reshape(len(offsets), -1)
    shifts = [dr * (nx + 1) + dc for dr, dc in offsets]  # ascending, as the offsets are
    for diagonal, k in zip(diagonals, shifts):
        diagonal[:] = np.roll(diagonal, k)
    return sp.dia_matrix((diagonals, shifts), shape=(mesh.num_vertices,) * 2)


def block(a: sp.dia_matrix, rows: np.ndarray, cols: np.ndarray) -> sp.csc_matrix:
    """A[rows, cols] in CSC (both ascending), for A or M_H as `_assemble` stores them: data[d][j]
    is A[j - k_d, j] by ascending offset k_d, 0 off the grid, so in reverse they give a column's
    rows in order. Zeros drop as in tocsr(): the arrays are A.tocsr()[rows][:, cols].tocsc()'s."""
    at = np.full(a.shape[0], -1, dtype=np.int32)  # each row's position in `rows`, or -1
    at[rows] = np.arange(rows.size, dtype=np.int32)
    index = np.stack([at.take(cols - k, mode="clip") for k in a.offsets[::-1]])  # int32
    values = a.data[::-1, cols]
    keep = (index >= 0) & (values != 0)
    indptr = np.pad(np.cumsum(np.count_nonzero(keep, axis=0), dtype=np.int32), (1, 0))
    keep = np.ascontiguousarray(keep.T)  # column by column
    data, values = values.T[keep], None  # released before the row indices are gathered
    return sp.csc_matrix((data, index.T[keep], indptr), shape=(rows.size, cols.size))


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


def assemble_stiffness(mesh: Mesh) -> sp.dia_matrix:
    """Global stiffness A[i,j] = integral of grad(phi_i) . grad(phi_j), in DIA as M_H is:
    the 5-point stencil, as the hypotenuse couplings of right triangles with axis-parallel
    legs are 0. Only applied, or cut by `block` into the CSC blocks that SuperLU factors."""
    return _assemble(mesh, _stiffness)


def assemble_mass(mesh: Mesh) -> sp.dia_matrix:
    """Global mass M[i,j] = integral of phi_i * phi_j over the domain, in DIA, as it is
    only applied or cut by `block`: its product sums each row in CSR's order from +0.0,
    so the off-grid zeros it adds change no bit of a finite result."""
    return _assemble(mesh, _mass)


def assemble_boundary_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix of the Gamma2 trace: integral of phi_i phi_j over Gamma2,
    whose edges join consecutive vertices along each side not on Gamma1."""
    n = mesh.num_vertices
    grid = np.arange(n, dtype=np.int64).reshape(mesh.ny + 1, mesh.nx + 1)
    x, y = np.linspace(*mesh.domain[::2], mesh.nx + 1), np.linspace(*mesh.domain[1::2], mesh.ny + 1)
    gamma2 = [(side, grid[index]) for side, index in SIDES.items() if side not in mesh.gamma1_sides]
    pairs = [np.column_stack([v[:-1], v[1:]]) for _, v in gamma2]
    edges = np.concatenate([np.empty((0, 2), np.int64), *pairs])  # none if Gamma1 is every side
    steps = [np.diff(y if side in ("left", "right") else x) for side, _ in gamma2]
    length = np.abs(np.concatenate([np.empty(0), *steps]))  # of the grid line along each side
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


def l2_norm(v: np.ndarray, m: sp.dia_matrix) -> float:
    """L2(Omega) norm of a P1 field from its nodal values and M_H: sqrt(v' M_H v)."""
    return float(np.sqrt(max(v @ (m @ v), 0.0)))


def h1_norm(
    v: np.ndarray, a: sp.dia_matrix, m: sp.dia_matrix, with_l2: bool = False
) -> float | tuple[float, float]:
    """Full H1(Omega) norm: sqrt(v' (A + M_H) v); with_l2 returns it paired with
    the L2(Omega) norm, bit for bit l2_norm's, from the one product M_H v."""
    vmv = v @ (m @ v)
    h1 = float(np.sqrt(max(v @ (a @ v) + vmv, 0.0)))
    return (h1, float(np.sqrt(max(vmv, 0.0)))) if with_l2 else h1


def boundary_l2_norm(v: np.ndarray, boundary_mass: sp.csr_matrix) -> float:
    """L2(Gamma2) norm of the trace of a P1 field, from the Gamma2 mass matrix."""
    return l2_norm(v, boundary_mass)


def coercivity_constant(a: sp.dia_matrix, m: sp.dia_matrix, free: np.ndarray) -> float:
    """Discrete coercivity constant of the stiffness form on the free nodes.

    Smallest eigenvalue of A x = lambda (A + M_H) x restricted to the free
    nodes (those off Gamma1), by shift-invert Lanczos about 0 from a fixed
    start vector. By the Rayleigh characterization, a(v, v) >= lambda *
    ||v||_V^2 for all discrete v vanishing on Gamma1.
    """
    if free.size == 0:
        raise ValueError("no free nodes: Gamma1 covers every vertex")
    a_ff = block(a, free, free)
    b_ff = a_ff + block(m, free, free)
    if free.size == 1:  # eigsh needs k < N
        return float(a_ff[0, 0] / b_ff[0, 0])
    lam = spla.eigsh(a_ff, k=1, M=b_ff, sigma=0, v0=np.ones(free.size), return_eigenvectors=False)
    return float(lam[0])
