import gc
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from vicontrol.assembly import (
    assemble_boundary_flux,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    block,
    boundary_l2_norm,
    coercivity_constant,
    h1_norm,
    l2_norm,
)
from vicontrol.mesh import build_rectangle_mesh, interpolate, refine_uniform


def test_degenerate_triangle_rejected():
    # grid lines 1 apart at 1e16, where floats are 2 apart: some cells have dx = 0 (dy = 0)
    for nx, ny, domain in (
        (8, 1, (1.0e16, 0.0, 1.0000000000000008e16, 1.0)),
        (1, 8, (0.0, -1.0e16, 1.0, -9.999999999999992e15)),
    ):
        mesh = build_rectangle_mesh(nx, ny, domain)
        dx, dy = np.diff(mesh.vertices[: nx + 1, 0]), np.diff(mesh.vertices[:: nx + 1, 1])
        assert np.any(dx == 0) != np.any(dy == 0)
        for assemble in (assemble_stiffness, assemble_mass):
            with pytest.raises(ValueError, match="degenerate triangles"):
                assemble(mesh)


def _reference_matrices(mesh):
    """A, M_H, the Gamma2 boundary mass and the Dirichlet nodes by the
    element-by-element path: (m, 3, 2) coordinate gather, (m, 3, 3) element
    matrices, COO -> CSR summing duplicates, and loops over the boundary edges
    of each side, whose vertices are found by their coordinates."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * areas[:, None, None]
    )
    mass = areas[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]
    n = mesh.num_vertices
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    a, mh = (sp.coo_matrix((v.ravel(), (rows, cols)), shape=(n, n)).tocsr() for v in (stiff, mass))
    a.eliminate_zeros()
    e_rows, e_cols, e_vals = [], [], []
    on_gamma1 = np.zeros(n, dtype=bool)
    x0, y0, x1, y1 = mesh.domain
    x, y = mesh.vertices.T
    sides = {"left": x == x0, "right": x == x1, "bottom": y == y0, "top": y == y1}
    for side, on_side in sides.items():
        nodes = np.flatnonzero(on_side)  # row-major numbering: in order along the side
        if side in mesh.gamma1_sides:
            on_gamma1[nodes] = True
            continue
        for i, j in zip(nodes[:-1], nodes[1:]):
            length = float(np.linalg.norm(mesh.vertices[j] - mesh.vertices[i]))
            e_rows += [i, i, j, j]
            e_cols += [i, j, i, j]
            e_vals += [length / 3.0, length / 6.0, length / 6.0, length / 3.0]
    boundary = sp.coo_matrix((e_vals, (e_rows, e_cols)), shape=(n, n)).tocsr()
    return a, mh, boundary, np.flatnonzero(on_gamma1)


_UNIT = (0.0, 0.0, 1.0, 1.0)
_GRIDS = [
    ((1, 1), _UNIT), ((2, 2), _UNIT), ((4, 4), _UNIT), ((8, 2), _UNIT), ((64, 64), _UNIT),
    ((3, 3), _UNIT), ((5, 7), _UNIT), ((1, 6), (0.0, 0.0, 2.0, 1.0)),
    ((13, 4), (-1.3, 0.2, 0.7, 3.1)), ((48, 17), (0.1, 0.0, 1.0, 1.7)),
    ((64, 64), (0.0, 0.0, 0.3, 0.7)),
]
# every nonempty choice of Dirichlet sides, each on three of the grids
_SIDE_CHOICES = [
    tuple(side for bit, side in enumerate(("left", "right", "bottom", "top")) if k >> bit & 1)
    for k in range(1, 16)
]
_MESHES = [
    (*_GRIDS[(k + shift) % len(_GRIDS)], sides)
    for k, sides in enumerate(_SIDE_CHOICES)
    for shift in (0, 4, 7)
]


@pytest.mark.parametrize("shape, domain, sides", _MESHES)
def test_structured_assembly_matches_element_reference(shape, domain, sides):
    nx, ny = shape
    mesh = build_rectangle_mesh(nx, ny, domain, sides)
    a_ref, m_ref, bnd_ref, dirichlet_ref = _reference_matrices(mesh)
    dyadic = domain == _UNIT and nx & (nx - 1) == 0 and ny & (ny - 1) == 0
    a, mh = assemble_stiffness(mesh), assemble_mass(mesh)
    for got, ref, exact in (
        (a.tocsr(), a_ref, dyadic),
        (mh.tocsr(), m_ref, dyadic),
        (assemble_boundary_mass(mesh), bnd_ref, True),  # at most two addends per entry
    ):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        if exact:  # congruent cells with exact coordinates: summation order is moot
            assert np.array_equal(got.data, ref.data)
        else:
            assert np.all(np.abs(got.data - ref.data) <= 1e-15 * np.abs(ref.data))
    assert np.array_equal(mesh.dirichlet_nodes, dirichlet_ref)
    # A and M_H are held as their 5 and 7 grid diagonals, and their products are
    # CSR's to the bit, also on exact zeros and on -0.0 (the off-grid zeros they
    # store add +0.0)
    w = nx + 1
    assert a.format == mh.format == "dia"
    assert a.offsets.tolist() == [-w, -1, 0, 1, w]
    assert mh.offsets.tolist() == [-w - 1, -w, -1, 0, 1, w, w + 1]
    v = np.random.default_rng(nx * ny).standard_normal(mesh.num_vertices)
    with_zeros, with_negative_zeros = v.copy(), v.copy()
    with_zeros[::3] = 0.0
    with_negative_zeros[::2] = -0.0
    for x in (v, with_zeros, with_negative_zeros, np.full_like(v, -0.0)):
        for matrix in (a, mh):
            assert (matrix @ x).tobytes() == (matrix.tocsr() @ x).tobytes()


@pytest.mark.parametrize("shape, domain, sides", _MESHES)
def test_stiffness_and_mass_own_exactly_their_entries(shape, domain, sides):
    mesh = build_rectangle_mesh(*shape, domain, sides)
    a, mh = assemble_stiffness(mesh), assemble_mass(mesh)
    # one value per vertex and diagonal, each in a buffer of exactly that size
    # (not a view of one with room for more slots than are stored)
    for matrix, slots in ((a, 5), (mh, 7)):
        assert matrix.data.shape == (slots, mesh.num_vertices)
        assert matrix.data.base is None or matrix.data.base.nbytes == matrix.data.nbytes
    # A's zeros are exactly its off-grid slots, one for each boundary vertex and
    # each side of the domain it lies on; tocsr() drops them, leaving no explicit zero
    nx, ny = shape
    on_grid = 5 * mesh.num_vertices - 2 * (nx + 1) - 2 * (ny + 1)
    assert np.count_nonzero(a.data) == a.tocsr().nnz == on_grid
    assert np.count_nonzero(a.tocsr().data) == on_grid


_UNDERFLOW = ((4, 4), (0.0, 0.0, 1e-163, 1.0), ("left",))  # dx^2 is 0: A stores -0.0


@pytest.mark.parametrize("shape, domain, sides", [*_MESHES, _UNDERFLOW])
def test_block_from_the_diagonals_is_the_csr_slice(shape, domain, sides):
    # array for array, dtypes included, so SuperLU, eigsh and PSOR get the same input and bits
    mesh = build_rectangle_mesh(*shape, domain, sides)
    a, mh = assemble_stiffness(mesh), assemble_mass(mesh)
    every, free = np.arange(mesh.num_vertices), mesh.free_nodes
    black = np.add(*np.divmod(free, mesh.nx + 1)) % 2 == 1  # solve_psor's colours
    colours = free[~black], free[black]
    rng = np.random.default_rng(mesh.num_vertices)
    subsets = [free, free[:1], free[-1:], every]
    sizes = rng.integers(1, free.size + 1, 3) if free.size else []  # Gamma1 may be every vertex
    subsets += [np.sort(rng.choice(free, size, replace=False)) for size in sizes]
    # square blocks of A and of M_H, the Dirichlet columns on every row, and each
    # colour's rows on every column, which PSOR sweeps with
    cuts = [(matrix, nodes, nodes) for matrix in (a, mh) for nodes in subsets]
    cuts += [(a, every, mesh.dirichlet_nodes), *((a, c, every) for c in colours)]
    for matrix, rows, cols in cuts:
        got, ref = block(matrix, rows, cols), matrix.tocsr()[np.ix_(rows, cols)].tocsc()
        assert got.format == ref.format == "csc" and got.shape == ref.shape
        assert got.indices.dtype == got.indptr.dtype == np.int32
        for name in ("data", "indices", "indptr"):
            x, y = getattr(got, name), getattr(ref, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    # a colour's half-sweep product equals that of its CSR rows, to the bit
    v = rng.standard_normal(mesh.num_vertices)
    for c in colours:
        assert (block(a, c, every) @ v).tobytes() == (a.tocsr()[c] @ v).tobytes()


def test_assembly_keeps_no_memory_alive():
    small, mesh = build_rectangle_mesh(2, 2), build_rectangle_mesh(64, 64)
    tracemalloc.start()
    try:
        assemble_stiffness(small), assemble_mass(small)  # one-time allocations
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assemble_stiffness(mesh), assemble_mass(mesh)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a cached 64x64 pattern would keep about 160 KB
    assert after - before <= 4096


def test_stiffness_and_mass_share_no_index_buffer():
    mesh = build_rectangle_mesh(5, 3, (0.0, 0.0, 2.0, 1.0))
    a, mh = assemble_stiffness(mesh), assemble_mass(mesh)
    assert not np.shares_memory(a.offsets, mh.offsets)
    a_ref, mh_ref = a.copy(), mh.copy()
    # a caller that mutates its matrices' index arrays in place
    a.offsets[:] = 0
    mh.offsets[:] = 0
    fresh = assemble_stiffness(mesh)
    assert np.array_equal(fresh.offsets, a_ref.offsets)
    assert np.array_equal(fresh.data, a_ref.data)
    fresh = assemble_mass(mesh)
    assert np.array_equal(fresh.offsets, mh_ref.offsets)
    assert np.array_equal(fresh.data, mh_ref.data)


def test_stiffness_rows_sum_to_zero():
    m = build_rectangle_mesh(3, 2, domain=(0, 0, 2, 1))
    a = assemble_stiffness(m)
    assert np.max(np.abs(np.asarray(a.sum(axis=1)).ravel())) <= 1e-13


def test_stiffness_quadratic_form_on_affine():
    m = build_rectangle_mesh(1, 1)
    a = assemble_stiffness(m)
    v = interpolate(m, lambda x, y: x)
    assert v @ (a @ v) == pytest.approx(1.0, abs=1e-14)


def test_galerkin_consistency_for_affine_pairs():
    m = build_rectangle_mesh(3, 4, domain=(0, 0, 2, 3))
    a = assemble_stiffness(m)
    u = interpolate(m, lambda x, y: 2 * x - y + 1)
    v = interpolate(m, lambda x, y: 0.5 * x + 3 * y)
    # grad u . grad v = 2*0.5 + (-1)*3 = -2 over area 6
    assert v @ (a @ u) == pytest.approx(-12.0, abs=1e-12)


@pytest.mark.parametrize("domain", [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 2.0, 1.0)])
@pytest.mark.parametrize("sides", [("left",), ("left", "top")])
def test_stiffness_stores_the_five_point_stencil(domain, sides):
    mesh = build_rectangle_mesh(5, 3, domain, sides)
    a = assemble_stiffness(mesh).tocsr()
    assert a.nnz == np.count_nonzero(a.data)  # no explicit zeros
    x, y = mesh.vertices.T
    interior = (x > domain[0]) & (x < domain[2]) & (y > domain[1]) & (y < domain[3])
    assert interior.sum() == 4 * 2
    assert np.all(np.diff(a.indptr)[interior] == 5)


def test_mass_total_and_ones():
    m = refine_uniform(build_rectangle_mesh(2, 2))
    mh = assemble_mass(m)
    assert mh.sum() == pytest.approx(1.0, abs=1e-13)
    w = np.ones(m.num_vertices)
    assert w @ (mh @ w) == pytest.approx(1.0, abs=1e-13)


def test_symmetry_and_definiteness():
    m = build_rectangle_mesh(3, 3)
    a = assemble_stiffness(m).toarray()
    mh = assemble_mass(m).toarray()
    assert np.max(np.abs(a - a.T)) <= 1e-14 * max(1.0, np.abs(a).max())
    assert np.max(np.abs(mh - mh.T)) <= 1e-14
    # mass positive definite (Cholesky succeeds)
    sla.cholesky(mh)
    # stiffness PSD with kernel exactly the constants
    w = np.linalg.eigvalsh(a)
    assert w[0] >= -1e-12
    assert abs(w[0]) <= 1e-12 and w[1] > 1e-10


def test_restricted_stiffness_positive_definite():
    m = build_rectangle_mesh(3, 3)
    a = assemble_stiffness(m).tocsr()
    free = m.free_nodes
    sla.cholesky(a[np.ix_(free, free)].toarray())


def test_boundary_flux_zero_and_total():
    m = build_rectangle_mesh(2, 2, gamma1_sides=("left",))
    assert np.all(assemble_boundary_flux(m, 0.0) == 0.0)
    f1 = assemble_boundary_flux(m, 1.0)
    assert f1.sum() == pytest.approx(3.0, abs=1e-13)  # Gamma2 has length 3


def test_boundary_flux_single_edge():
    # Gamma2 = bottom side only; nx=1 makes it a single edge of length 1
    m = build_rectangle_mesh(1, 1, gamma1_sides=("left", "right", "top"))
    f = assemble_boundary_flux(m, 1.0)
    bottom = np.flatnonzero(m.vertices[:, 1] == 0.0)
    assert np.allclose(f[bottom], 0.5, atol=1e-14)
    others = np.setdiff1d(np.arange(m.num_vertices), bottom)
    assert np.all(f[others] == 0.0)


def test_control_load_matches_quadrature_oracle():
    # oracle: 3-point midpoint Gauss rule, exact for quadratic integrands
    m = build_rectangle_mesh(3, 2, domain=(0, 0, 1.5, 1))
    rng = np.random.default_rng(3)
    g = rng.normal(size=m.num_vertices)
    load = assemble_mass(m) @ g
    oracle = np.zeros(m.num_vertices)
    for tri in m.triangles:
        p = m.vertices[tri]
        d1, d2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        gv = g[tri]
        mids = [(0, 1), (1, 2), (2, 0)]
        for loc in range(3):
            total = 0.0
            for a, b in mids:
                phi = (0.5 if loc in (a, b) else 0.0)
                gmid = 0.5 * (gv[a] + gv[b])
                total += phi * gmid
            oracle[tri[loc]] += area / 3.0 * total
    assert np.max(np.abs(load - oracle)) <= 1e-13


def test_norms_of_constants():
    m = build_rectangle_mesh(2, 2)
    c = np.full(m.num_vertices, -2.5)
    a, mh = assemble_stiffness(m), assemble_mass(m)
    assert l2_norm(c, mh) == pytest.approx(2.5, abs=1e-13)
    assert h1_norm(c, a, mh) == pytest.approx(2.5, abs=1e-13)
    assert boundary_l2_norm(c, assemble_boundary_mass(m)) == pytest.approx(
        2.5 * np.sqrt(3.0), abs=1e-12
    )


def test_h1_norm_of_coordinate_field():
    m = build_rectangle_mesh(1, 1)
    v = interpolate(m, lambda x, y: x)
    assert h1_norm(v, assemble_stiffness(m), assemble_mass(m)) ** 2 == pytest.approx(
        4.0 / 3.0, abs=1e-13
    )


def test_norm_dimension_mismatch():
    m = build_rectangle_mesh(2, 2)
    with pytest.raises(ValueError):
        l2_norm(np.zeros(5), assemble_mass(m))


def test_parallelogram_law_of_mass_inner_product():
    m = build_rectangle_mesh(3, 3)
    mh = assemble_mass(m)
    rng = np.random.default_rng(11)

    def nrm2(v):
        return float(v @ (mh @ v))

    for _ in range(30):
        u = rng.uniform(-10, 10, m.num_vertices)
        v = rng.uniform(-10, 10, m.num_vertices)
        mu = rng.uniform(0, 1)
        lhs = nrm2(mu * u + (1 - mu) * v)
        rhs = mu * nrm2(u) + (1 - mu) * nrm2(v) - mu * (1 - mu) * nrm2(u - v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_coercivity_in_unit_interval_and_dense_crosscheck():
    # the second mesh has one free node, its top right corner
    for m in (
        build_rectangle_mesh(2, 2, gamma1_sides=("left",)),
        build_rectangle_mesh(1, 1, gamma1_sides=("left", "bottom")),
    ):
        a, mh, free = assemble_stiffness(m), assemble_mass(m), m.free_nodes
        lam = coercivity_constant(a, mh, free)
        assert 0.0 < lam < 1.0
        a, mh = a.tocsr(), mh.toarray()
        a_ff = a[np.ix_(free, free)].toarray()
        b_ff = a_ff + mh[np.ix_(free, free)]
        w = sla.eigh(a_ff, b_ff, eigvals_only=True)
        assert lam == pytest.approx(w.min(), rel=1e-8)


def test_coercivity_nonincreasing_under_refinement():
    m = build_rectangle_mesh(2, 2)
    lams = []
    for _ in range(3):
        a, mh = assemble_stiffness(m), assemble_mass(m)
        lams.append(coercivity_constant(a, mh, m.free_nodes))
        m = refine_uniform(m)
    assert lams[0] >= lams[1] >= lams[2]



@pytest.mark.parametrize(
    "n, domain, sides",
    [
        (1, (0.0, 0.0, 1.0, 1.0), ("left", "right", "bottom", "top")),  # no free node
        (8, (0.0, 0.0, 1.0e-100, 1.0), ("bottom",)),  # ARPACK raises ArpackError
        (8, (0.0, 0.0, 8.0e-150, 1.0), ("bottom",)),  # ARPACK returns lambda < 0
    ],
    ids=["no-free-node", "arpack-error", "negative"],
)
def test_coercivity_constant_is_none_where_lambda_h_is_undefined(n, domain, sides):
    m = build_rectangle_mesh(n, n, domain, sides)
    assert coercivity_constant(assemble_stiffness(m), assemble_mass(m), m.free_nodes) is None
