import numpy as np
import pytest

from vicontrol import mesh as msh
from vicontrol.assembly import dof_map
from vicontrol.mesh import build_rectangle_mesh, interpolate, prolongate, refine_uniform


def test_unit_cell_counts():
    m = build_rectangle_mesh(1, 1, gamma1_sides=("left",))
    assert m.num_vertices == 4
    assert len(m.triangles) == 2


def test_two_by_two_counts():
    m = build_rectangle_mesh(2, 2, gamma1_sides=("left",))
    assert m.num_vertices == 9
    assert len(m.triangles) == 8


def test_two_by_one_connectivity():
    m = build_rectangle_mesh(2, 1, gamma1_sides=("left", "top"))
    assert m.triangles.dtype == np.int64
    assert m.triangles.tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]


def loop_connectivity(nx, ny):
    """Reference: the cell-by-cell loops that the index arithmetic replaces."""
    def vid(ix, iy):
        return iy * (nx + 1) + ix

    triangles = []
    for iy in range(ny):
        for ix in range(nx):
            v00, v10, v01, v11 = vid(ix, iy), vid(ix + 1, iy), vid(ix, iy + 1), vid(ix + 1, iy + 1)
            triangles += [(v00, v10, v11), (v00, v11, v01)]
    return triangles


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (4, 1), (3, 7), (16, 16)])
@pytest.mark.parametrize("sides", [("left",), ("bottom", "right"), tuple(msh.SIDES)])
def test_connectivity_matches_loop_reference(nx, ny, sides):
    m = build_rectangle_mesh(nx, ny, domain=(-1.0, 0.0, 2.0, 0.5), gamma1_sides=sides)
    assert m.triangles.tolist() == [list(t) for t in loop_connectivity(nx, ny)]


def test_empty_gamma1_rejected():
    with pytest.raises(ValueError):
        build_rectangle_mesh(1, 1, gamma1_sides=())


def test_zero_cells_rejected():
    with pytest.raises(ValueError):
        build_rectangle_mesh(0, 3)
    with pytest.raises(ValueError):
        build_rectangle_mesh(3, 0)


def test_unknown_side_rejected():
    with pytest.raises(ValueError):
        build_rectangle_mesh(1, 1, gamma1_sides=("north",))


def test_refine_quadruples_triangles():
    m = build_rectangle_mesh(1, 1)
    f = refine_uniform(m)
    assert len(f.triangles) == 8
    assert f.h == pytest.approx(np.sqrt(2) / 2, abs=0)
    assert f.level == 1 and m.level == 0


def test_refine_times_equals_repeated_refinement():
    m = build_rectangle_mesh(3, 2, domain=(0, 0, 2, 1), gamma1_sides=("left", "top"))
    stepwise = refine_uniform(refine_uniform(refine_uniform(m)))
    at_once = msh.refine_times(m, 3)
    assert (at_once.h, at_once.level, at_once.nx, at_once.ny) == (
        stepwise.h, stepwise.level, stepwise.nx, stepwise.ny
    )
    assert np.array_equal(at_once.vertices, stepwise.vertices)
    assert np.array_equal(at_once.triangles, stepwise.triangles)
    assert at_once.gamma1_sides == stepwise.gamma1_sides


def test_mesh_size_values():
    assert build_rectangle_mesh(1, 1).h == pytest.approx(np.sqrt(2))
    assert build_rectangle_mesh(4, 4).h == pytest.approx(np.sqrt(2) / 4)


def test_mesh_size_halves_exactly():
    m = build_rectangle_mesh(3, 2, domain=(0, 0, 2, 1))
    assert refine_uniform(m).h == m.h / 2 == build_rectangle_mesh(6, 4, domain=(0, 0, 2, 1)).h


def test_areas_positive_and_sum_to_domain():
    m = build_rectangle_mesh(3, 5, domain=(-1.0, 2.0, 4.0, 3.5))
    d1, d2 = (m.vertices[m.triangles[:, k]] - m.vertices[m.triangles[:, 0]] for k in (1, 2))
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.all(areas > 0)
    assert abs(areas.sum() - 5.0 * 1.5) <= 1e-12 * 7.5


def test_conforming_edges():
    # every interior edge is shared by exactly 2 triangles, boundary by 1
    m = refine_uniform(build_rectangle_mesh(2, 3))
    counts = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            counts[frozenset((int(a), int(b)))] = counts.get(frozenset((int(a), int(b))), 0) + 1
    assert set(counts.values()) <= {1, 2}
    x0, y0, x1, y1 = m.domain
    for edge, n in counts.items():
        (xa, ya), (xb, yb) = m.vertices[sorted(edge)]
        on_boundary = (xa == xb and xa in (x0, x1)) or (ya == yb and ya in (y0, y1))
        assert n == (1 if on_boundary else 2)


def test_dirichlet_nodes_after_refinement():
    m = build_rectangle_mesh(2, 2, gamma1_sides=("left", "top"))
    f = refine_uniform(m)
    x0, y0, x1, y1 = f.domain
    on_gamma1 = np.isclose(f.vertices[:, 0], x0) | np.isclose(f.vertices[:, 1], y1)
    assert np.array_equal(dof_map(f).dirichlet_nodes, np.flatnonzero(on_gamma1))


def test_interpolate_constant_and_coordinates():
    m = build_rectangle_mesh(2, 2)
    assert np.all(interpolate(m, 3.5) == 3.5)
    vx = interpolate(m, lambda x, y: x)
    assert np.array_equal(vx, m.vertices[:, 0])


def test_interpolate_square_corners():
    m = build_rectangle_mesh(1, 1)
    vals = interpolate(m, lambda x, y: x**2)
    assert np.array_equal(np.sort(vals), [0.0, 0.0, 1.0, 1.0])


def test_interpolate_rejects_nonfinite():
    m = build_rectangle_mesh(1, 1)
    with pytest.raises(FloatingPointError):
        interpolate(m, lambda x, y: np.where((x == 0) & (y == 0), np.inf, 1.0))


def test_interpolate_calls_a_field_once_on_all_vertices():
    m = build_rectangle_mesh(3, 2, domain=(0, 0, 2, 1))
    calls = []

    def field(x, y):
        calls.append(x.shape)
        return 1.7 - 0.3 * x + 2.1 * y

    vals = interpolate(m, field)
    assert calls == [(m.num_vertices,)]
    assert np.array_equal(vals, [1.7 - 0.3 * x + 2.1 * y for x, y in m.vertices])
    assert np.array_equal(interpolate(m, lambda x, y: -2.0), np.full(m.num_vertices, -2.0))


def test_affine_reproduced_at_midedges():
    m = build_rectangle_mesh(3, 2, domain=(0, 0, 2, 1))
    f = lambda x, y: 1.7 - 0.3 * x + 2.1 * y
    vals = interpolate(m, f)
    # evaluate at every edge midpoint via the P1 evaluator
    mids = []
    for tri in m.triangles:
        p = m.vertices[tri]
        mids += [0.5 * (p[0] + p[1]), 0.5 * (p[1] + p[2]), 0.5 * (p[2] + p[0])]
    mids = np.array(mids)
    exact = np.array([f(x, y) for x, y in mids])
    got = msh.evaluate_p1(m, vals, mids)
    assert np.max(np.abs(got - exact)) <= 1e-13


def test_prolongate_is_exact_on_nested_meshes():
    coarse = build_rectangle_mesh(2, 2)
    fine = refine_uniform(refine_uniform(coarse))
    rng = np.random.default_rng(0)
    field = rng.normal(size=coarse.num_vertices)
    lifted = prolongate(coarse, field, fine)
    # coarse nodes are a subset of fine nodes; values must carry over exactly
    for k, (x, y) in enumerate(coarse.vertices):
        fk = np.flatnonzero(
            (fine.vertices[:, 0] == x) & (fine.vertices[:, 1] == y)
        )[0]
        assert lifted[fk] == pytest.approx(field[k], abs=1e-14)


def test_prolongate_rejects_non_nested():
    a = build_rectangle_mesh(2, 2)
    b = build_rectangle_mesh(3, 3)
    with pytest.raises(ValueError):
        prolongate(a, np.zeros(a.num_vertices), b)


def _gathered_prolongation(coarse, field, fine):
    """Prolongation by per-node gathers: each fine vertex's coarse cell and
    local coordinates by integer grid division, its four corner values
    gathered from the coarse field, then the P1 formula."""
    rx, ry = fine.nx // coarse.nx, fine.ny // coarse.ny
    jx = np.arange(fine.nx + 1)
    jy = np.arange(fine.ny + 1)[:, None]
    ix = np.minimum(jx // rx, coarse.nx - 1)
    iy = np.minimum(jy // ry, coarse.ny - 1)
    s, t = (jx - ix * rx) / rx, (jy - iy * ry) / ry
    stride = coarse.nx + 1
    k = iy * stride + ix
    v00, v10, v01, v11 = field[k], field[k + 1], field[k + stride], field[k + stride + 1]
    return np.where(
        s >= t,
        v00 * (1.0 - s) + v10 * (s - t) + v11 * t,
        v00 * (1.0 - t) + v01 * (t - s) + v11 * s,
    ).ravel()


@pytest.mark.parametrize(
    "coarse_shape, ratio, domain",
    [
        ((2, 2), (4, 4), (0.0, 0.0, 1.0, 1.0)),  # dyadic: every local coordinate exact
        ((4, 4), (8, 8), (0.0, 0.0, 1.0, 1.0)),
        ((3, 2), (4, 2), (0.0, 0.0, 1.0, 1.0)),  # unequal x/y ratios
        ((3, 2), (3, 5), (-1.3, 0.2, 0.7, 3.1)),
        ((5, 1), (1, 7), (0.1, 0.0, 1.0, 1.7)),
        ((1, 1), (6, 6), (0.0, 0.0, 2.0, 1.0)),
        ((4, 2), (128, 3), (0.0, 0.0, 1.0, 1.0)),  # 4 -> 512 cells in x, a sweep's largest ratio
    ],
)
def test_prolongate_matches_point_evaluation(coarse_shape, ratio, domain):
    coarse = build_rectangle_mesh(*coarse_shape, domain=domain)
    fine = build_rectangle_mesh(
        coarse_shape[0] * ratio[0], coarse_shape[1] * ratio[1], domain=domain
    )
    field = np.random.default_rng(1).normal(size=coarse.num_vertices)
    lifted = prolongate(coarse, field, fine)
    assert lifted.tobytes() == _gathered_prolongation(coarse, field, fine).tobytes()  # bitwise
    located = msh.evaluate_p1(coarse, field, fine.vertices)
    if all(r & (r - 1) == 0 for r in (*coarse_shape, *ratio)) and domain == (0, 0, 1, 1):
        assert np.array_equal(lifted, located)
    else:
        # prolongate's local coordinates are exact ratios; evaluate_p1's carry roundoff
        assert np.max(np.abs(lifted - located)) <= 1e-14 * np.abs(field).max()
