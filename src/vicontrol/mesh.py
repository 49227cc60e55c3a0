"""Structured triangulations of axis-aligned rectangles with a Dirichlet boundary.

The mesh family is fixed: an nx-by-ny grid of cells, each split along the
lower-left to upper-right diagonal, vertices numbered row-major. The
Dirichlet boundary Gamma1 is a nonempty union of whole rectangle sides; the
rest of the boundary is the Neumann part Gamma2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# each side's vertices as an index into the (ny+1, nx+1) vertex grid, in increasing order
SIDES = {"left": (slice(None), 0), "right": (slice(None), -1), "bottom": 0, "top": -1}


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of a rectangle.

    vertices       : (n, 2) float array, row-major grid numbering
    h              : longest triangle side
    level          : refinement count from the base mesh
    gamma1_sides   : the sides (keys of SIDES) that make up Gamma1
    """

    vertices: np.ndarray
    h: float
    level: int
    # structured-grid metadata; fixes refinement and point location
    nx: int
    ny: int
    domain: tuple[float, float, float, float]  # (x0, y0, x1, y1)
    gamma1_sides: frozenset[str]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def triangles(self) -> np.ndarray:
        """(2*nx*ny, 3) int64 vertex indices, counterclockwise, two per cell
        with cells row-major; derived from nx and ny on every access."""
        s = self.nx + 1
        v00 = (np.arange(self.ny, dtype=np.int64)[:, None] * s + np.arange(self.nx)).ravel()
        # corner offsets from v00 of both children of the diagonal v00 -> v00+s+1
        return (v00[:, None, None] + np.array([[0, 1, s + 1], [0, s + 1, s]])).reshape(-1, 3)


def build_rectangle_mesh(nx, ny, domain=(0.0, 0.0, 1.0, 1.0), gamma1_sides=("left",)):
    """Triangulate [x0,x1] x [y0,y1] into 2*nx*ny triangles.

    gamma1_sides selects whole rectangle sides for the Dirichlet boundary;
    it must be nonempty (the problem requires meas(Gamma1) > 0).
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must have nx, ny >= 1, got nx={nx}, ny={ny}")
    sides = frozenset(gamma1_sides)
    if not sides:
        raise ValueError("gamma1_sides must be nonempty (meas(Gamma1) > 0 required)")
    unknown = sides - set(SIDES)
    if unknown:
        raise ValueError(f"unknown sides {sorted(unknown)}; expected subset of {tuple(SIDES)}")
    x0, y0, x1, y1 = map(float, domain)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate domain {domain}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys)  # row-major: vertex iy*(nx+1)+ix
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    h = float(np.hypot(dx, dy))
    return Mesh(
        vertices=vertices,
        h=h,
        level=0,
        nx=nx,
        ny=ny,
        domain=(x0, y0, x1, y1),
        gamma1_sides=sides,
    )


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: every triangle split into 4 congruent children.

    For this structured family that is exactly the doubled grid, so the
    refined mesh is rebuilt with 2*nx, 2*ny on the same Gamma1 sides.
    """
    return refine_times(mesh, 1)


def refine_times(mesh: Mesh, times: int) -> Mesh:
    """`times` uniform refinements, built at once without the meshes in between."""
    k = 2**times
    fine = build_rectangle_mesh(k * mesh.nx, k * mesh.ny, mesh.domain, mesh.gamma1_sides)
    return replace(fine, h=mesh.h / k, level=mesh.level + times)


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
        values = np.asarray(f, dtype=float)
        if values.shape != (mesh.num_vertices,):
            raise ValueError(
                f"nodal field has shape {values.shape}, expected ({mesh.num_vertices},)"
            )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise FloatingPointError(
            f"non-finite value at vertex {bad} {tuple(mesh.vertices[bad])}"
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

    def block(rows, columns):
        (down, up, t), (left, right, s) = rows, columns
        corners = (v[y, x][:, None, :, None] for y in (down, up) for x in (left, right))
        cells = _p1(*corners, s, t[:, None, None])
        return cells.reshape(cells.shape[0] * t.size, -1)

    rows, columns = _fine_lines(fine.ny // coarse.ny), _fine_lines(fine.nx // coarse.nx)
    return np.block([[block(r, c) for c in columns] for r in rows]).ravel()
