"""Structured triangulations of axis-aligned rectangles with a Dirichlet boundary.

The mesh family is fixed: an nx-by-ny grid of cells, each split along the
lower-left to upper-right diagonal, vertices numbered row-major. A mesh
stores that grid alone and derives h, its grid lines, vertices and triangles
when read, so it compares and hashes by value; a level number belongs to the
study that refines it, not to the mesh. The Dirichlet boundary Gamma1 is a nonempty union
of whole rectangle sides; the rest of the boundary is the Neumann part Gamma2.
The mesh is the one owner of its Dirichlet, free and Gamma2 vertices, which it
derives from the grid and caches when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# each side's vertices as an index into the (ny+1, nx+1) vertex grid, in increasing order
SIDES = {"left": (slice(None), 0), "right": (slice(None), -1), "bottom": 0, "top": -1}


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of a rectangle, stored as its grid alone: h
    is derived from the grid, and a level in a refinement hierarchy is counted
    by the convergence study that builds it. Its node sets are cached beside the
    grid, outside the fields that equality and hashing compare.

    gamma1_sides   : the sides (keys of SIDES) that make up Gamma1
    """

    # the grid, which fixes h, vertices, triangles, refinement and point location
    nx: int
    ny: int
    domain: tuple[float, float, float, float]  # (x0, y0, x1, y1)
    gamma1_sides: frozenset[str]

    @property
    def h(self) -> float:
        """Longest triangle side: the cell diagonal."""
        x0, y0, x1, y1 = self.domain
        return float(np.hypot((x1 - x0) / self.nx, (y1 - y0) / self.ny))

    @property
    def num_vertices(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def lines(self) -> tuple[np.ndarray, np.ndarray]:
        """The nx + 1 x and ny + 1 y grid lines, as np.linspace places them; derived from the
        grid on every access."""
        x0, y0, x1, y1 = self.domain
        return np.linspace(x0, x1, self.nx + 1), np.linspace(y0, y1, self.ny + 1)

    @property
    def vertices(self) -> np.ndarray:
        """(n, 2) coordinates, numbered row-major; derived from the grid on every access."""
        xx, yy = np.meshgrid(*self.lines)
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def triangles(self) -> np.ndarray:
        """(2*nx*ny, 3) int64 vertex indices, counterclockwise, two per cell
        with cells row-major; derived from nx and ny on every access."""
        s = self.nx + 1
        v00 = (np.arange(self.ny, dtype=np.int64)[:, None] * s + np.arange(self.nx)).ravel()
        # corner offsets from v00 of both children of the diagonal v00 -> v00+s+1
        return (v00[:, None, None] + np.array([[0, 1, s + 1], [0, s + 1, s]])).reshape(-1, 3)

    def _nodes(self, sides, on=True) -> np.ndarray:
        """Ascending vertices on any of `sides`, or with on=False on none of them; read-only,
        as every solve on the mesh shares the cached array."""
        mask = np.zeros((self.ny + 1, self.nx + 1), dtype=bool)
        for side in sides:
            mask[SIDES[side]] = True
        nodes = np.flatnonzero(mask == on)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Ascending vertices on Gamma1, the corners it shares with Gamma2 included."""
        return self._nodes(self.gamma1_sides)

    @cached_property
    def free_nodes(self) -> np.ndarray:
        """Ascending vertices off Gamma1: the unknowns of the state problem."""
        return self._nodes(self.gamma1_sides, on=False)

    @cached_property
    def gamma2_nodes(self) -> np.ndarray:
        """Ascending vertices on Gamma2, the support of the flux load F_q."""
        return self._nodes(SIDES.keys() - self.gamma1_sides)


def build_rectangle_mesh(nx, ny, domain=(0.0, 0.0, 1.0, 1.0), gamma1_sides=("left",)):
    """Triangulate [x0,x1] x [y0,y1] into 2*nx*ny triangles.

    gamma1_sides selects whole rectangle sides for the Dirichlet boundary;
    it must be nonempty (the problem requires meas(Gamma1) > 0).
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"nx/ny must be >= 1 (got nx={nx}, ny={ny})")
    sides = frozenset(gamma1_sides)
    if not sides:
        raise ValueError("gamma1_sides must be nonempty (meas(Gamma1) > 0 required)")
    unknown = sides - set(SIDES)
    if unknown:
        raise ValueError(f"gamma1_sides: unknown sides {sorted(unknown)}, expected {tuple(SIDES)}")
    x0, y0, x1, y1 = map(float, domain)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"domain {domain} is degenerate: it needs x1 > x0 and y1 > y0")
    return Mesh(nx=nx, ny=ny, domain=(x0, y0, x1, y1), gamma1_sides=sides)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: every triangle split into 4 congruent children.

    For this structured family that is exactly the doubled grid, so the
    refined mesh is rebuilt with 2*nx, 2*ny on the same Gamma1 sides.
    """
    return refine_times(mesh, 1)


def refine_times(mesh: Mesh, times: int) -> Mesh:
    """`times` uniform refinements, built at once without the meshes in between."""
    return build_rectangle_mesh(mesh.nx << times, mesh.ny << times, mesh.domain, mesh.gamma1_sides)


def interpolate(mesh: Mesh, f) -> np.ndarray:
    """Nodal P1 interpolant: value f(x, y) at every vertex.

    f may be a callable, called once on the coordinate arrays of all
    vertices (numpy expressions such as the affine and gauss specs), a scalar
    constant, or an array that already holds one value per vertex (returned
    as is, not copied).
    """
    if callable(f):
        x, y = mesh.vertices.T
        values = np.array(np.broadcast_to(f(x, y), x.shape), dtype=float)
    elif np.ndim(f) == 0:
        values = np.full(mesh.num_vertices, float(f))
    else:
        values = _nodal(mesh, f)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise FloatingPointError(
            f"non-finite value at vertex {bad} {tuple(mesh.vertices[bad].tolist())}"
        )
    return values


def _nodal(mesh: Mesh, field) -> np.ndarray:
    """`field` as a float array, checked to hold one value per vertex."""
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.num_vertices,):
        raise ValueError(f"field has shape {field.shape}, expected ({mesh.num_vertices},)")
    return field


def _p1(v00, v10, v01, v11, s, t) -> np.ndarray:
    """P1 function of a cell with corner values v00, v10 (right), v01 (up)
    and v11 at local coordinates (s, t) in [0, 1]^2; all broadcast together."""
    lower = s >= t  # below the v00->v11 diagonal
    return np.where(
        lower,
        v00 * (1.0 - s) + v10 * (s - t) + v11 * t,
        v00 * (1.0 - t) + v01 * (t - s) + v11 * s,
    )


def _fine_lines(r: int):
    """Fine grid lines along one axis, r per coarse cell, as two runs of
    (lower corner slice, upper corner slice, local coordinates): the first r
    lines of every coarse cell, then the last line, at 1 in the last cell."""
    return (
        (slice(None, -1), slice(1, None), np.arange(r) / r),
        (slice(-2, -1), slice(-1, None), np.ones(1)),
    )


def prolongate(coarse: Mesh, field: np.ndarray, fine: Mesh) -> np.ndarray:
    """P1 interpolation of a coarse nodal field onto a nested finer mesh.

    Exact (up to roundoff) when `fine` was obtained from `coarse` by
    refine_uniform, since the coarse function is piecewise linear on the
    fine triangles as well. Each run of fine rows and of fine columns is
    evaluated as a (cells, offsets, cells, offsets) block, whose corner values
    are slices of the coarse grid and whose local coordinates are per offset.
    """
    if fine.domain != coarse.domain or fine.nx % coarse.nx or fine.ny % coarse.ny:
        raise ValueError("fine mesh is not a nested refinement of the coarse mesh")
    v = _nodal(coarse, field).reshape(coarse.ny + 1, coarse.nx + 1)

    def patch(rows, columns):
        (down, up, t), (left, right, s) = rows, columns
        corners = (v[y, x][:, None, :, None] for y in (down, up) for x in (left, right))
        cells = _p1(*corners, s, t[:, None, None])
        return cells.reshape(cells.shape[0] * t.size, -1)

    rows, columns = _fine_lines(fine.ny // coarse.ny), _fine_lines(fine.nx // coarse.nx)
    return np.block([[patch(r, c) for c in columns] for r in rows]).ravel()
