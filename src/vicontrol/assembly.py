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

from .mesh import BoundaryTag, Mesh, interpolate, triangle_areas


@dataclass(frozen=True)
class DofMap:
    """Partition of vertex indices into Dirichlet (on Gamma1) and free nodes.

    Corner vertices shared by Gamma1 and Gamma2 edges count as Dirichlet.
    """

    dirichlet_nodes: np.ndarray
    free_nodes: np.ndarray


def dof_map(mesh: Mesh) -> DofMap:
    on_gamma1 = np.zeros(mesh.num_vertices, dtype=bool)
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag is BoundaryTag.GAMMA1:
            on_gamma1[i] = True
            on_gamma1[j] = True
    dirichlet = np.flatnonzero(on_gamma1)
    free = np.flatnonzero(~on_gamma1)
    return DofMap(dirichlet_nodes=dirichlet, free_nodes=free)


def local_stiffness(coords: np.ndarray) -> np.ndarray:
    """Element stiffness for one triangle with vertex coords (3, 2)."""
    x = coords[:, 0]
    y = coords[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if area <= 0:
        raise ValueError("degenerate or negatively oriented triangle")
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def local_mass(coords: np.ndarray) -> np.ndarray:
    """Element mass for one triangle: (area/12) * [[2,1,1],[1,2,1],[1,1,2]]."""
    x = coords[:, 0]
    y = coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if area <= 0:
        raise ValueError("degenerate or negatively oriented triangle")
    return (area / 12.0) * (np.ones((3, 3)) + np.eye(3))


def _assemble(mesh: Mesh, local_all: np.ndarray) -> sp.csr_matrix:
    """Scatter (m, 3, 3) element matrices into a global CSR matrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mat = sp.coo_matrix(
        (local_all.ravel(), (rows, cols)),
        shape=(mesh.num_vertices, mesh.num_vertices),
    )
    return mat.tocsr()


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Global stiffness A[i,j] = integral of grad(phi_i) . grad(phi_j)."""
    p = mesh.vertices[mesh.triangles]  # (m, 3, 2)
    x = p[:, :, 0]
    y = p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * areas[:, None, None]
    )
    a = _assemble(mesh, local)
    # the hypotenuse couplings of right triangles with axis-parallel legs are
    # exact zeros: dropping them leaves the 5-point stencil
    a.eliminate_zeros()
    return a


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Global mass M[i,j] = integral of phi_i * phi_j over the domain."""
    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = areas[:, None, None] * pattern[None, :, :]
    return _assemble(mesh, local)


def assemble_boundary_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix of the Gamma2 trace: integral of phi_i phi_j over Gamma2."""
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag is not BoundaryTag.GAMMA2:
            continue
        length = float(np.linalg.norm(mesh.vertices[j] - mesh.vertices[i]))
        # edge mass (L/6) * [[2,1],[1,2]], exact for products of linears
        rows += [i, i, j, j]
        cols += [i, j, i, j]
        vals += [length / 3.0, length / 6.0, length / 6.0, length / 3.0]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_boundary_flux(mesh: Mesh, q) -> np.ndarray:
    """Load vector F[i] = integral over Gamma2 of q * phi_i ds.

    q is replaced by its piecewise-linear interpolant on boundary edges;
    the edge integrals are then exact. q may be a callable, a constant or
    nodal values.
    """
    q_nodal = interpolate(mesh, q)
    return assemble_boundary_mass(mesh) @ q_nodal


def assemble_control_load(mesh: Mesh, g: np.ndarray) -> np.ndarray:
    """Load vector of the distributed control: M_H @ g."""
    g = np.asarray(g, dtype=float)
    if g.shape != (mesh.num_vertices,):
        raise ValueError(f"control has shape {g.shape}, expected ({mesh.num_vertices},)")
    return assemble_mass(mesh) @ g


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


def dump_matrix(matrix: sp.spmatrix, path) -> None:
    """Coordinate text dump: one `row col value` line per stored entry."""
    coo = matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# row col value\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")
