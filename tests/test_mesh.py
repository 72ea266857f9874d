import numpy as np
import pytest

from twogridfem import (
    InterfaceNotResolved,
    InvalidSubdivision,
    Mesh,
    ValidationError,
    check_angle_condition,
    generate_interface_mesh,
    refine_uniform,
    validate_mesh,
)

from conftest import relabelled

D_UNIT = {1: 1.0, 2: 1.0}
D_JUMP = {1: 1000.0, 2: 1.0}

UNIT_RIGHT = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_generate_counts_default_geometry():
    mesh = generate_interface_mesh(4)
    assert mesh.n_vertices == 25
    assert mesh.n_triangles == 32
    assert len(mesh.interface_edges) == 8
    assert int((mesh.regions == 1).sum()) == 8
    assert mesh.h == pytest.approx(np.sqrt(2.0) * 0.5)


def test_generate_rejects_unaligned_box():
    with pytest.raises(InterfaceNotResolved):
        generate_interface_mesh(3)  # grid lines at +-1/3 miss +-1/2


def test_generate_rejects_small_n():
    with pytest.raises(InvalidSubdivision):
        generate_interface_mesh(1)
    with pytest.raises(InvalidSubdivision):
        generate_interface_mesh(0)


def test_generate_box_outside_domain():
    with pytest.raises(InterfaceNotResolved):
        generate_interface_mesh(4, (-1, 1, -1, 1), (-2, 0.5, -0.5, 0.5))


def test_generated_mesh_is_valid():
    validate_mesh(generate_interface_mesh(6, (0, 3, 0, 3), (0.5, 1.5, 1, 2)))


def test_vline_interface_via_half_domain_box():
    mesh = generate_interface_mesh(4, (-1, 1, -1, 1), (-1, 0, -1, 1))
    # interface reduces to the segment x = 0
    coords = mesh.vertices[mesh.interface_edges.ravel()]
    assert np.all(coords[:, 0] == 0.0)
    assert len(mesh.interface_edges) == 4
    left = mesh.regions[np.arange(mesh.n_triangles)] == 1
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    assert np.all(centroids[left, 0] < 0)
    assert np.all(centroids[~left, 0] > 0)


def test_refine_counts_and_h():
    mesh = generate_interface_mesh(4)
    fine = refine_uniform(mesh)
    assert fine.n_triangles == 128
    assert fine.n_vertices == 81
    assert fine.h == mesh.h / 2
    finer = refine_uniform(fine)
    assert finer.h == mesh.h / 4
    assert finer.parent is fine and fine.parent is mesh


def test_refine_inherits_region_tags():
    mesh = generate_interface_mesh(4)
    fine = refine_uniform(mesh)
    assert np.array_equal(fine.regions, np.repeat(mesh.regions, 4))


def test_refined_vertices_are_parents_or_midpoints():
    mesh = generate_interface_mesh(4)
    fine = refine_uniform(mesh)
    n_old = mesh.n_vertices
    assert np.array_equal(fine.vertices[:n_old], mesh.vertices)
    mids = 0.5 * (mesh.vertices[fine.midpoint_edges[:, 0]]
                  + mesh.vertices[fine.midpoint_edges[:, 1]])
    assert np.array_equal(fine.vertices[n_old:], mids)


def test_area_sum_invariant_across_levels():
    mesh = generate_interface_mesh(4, (-1, 1, -1, 1))
    for _ in range(3):
        assert abs(mesh.areas.sum() - 4.0) <= 1e-12 * 4.0
        mesh = refine_uniform(mesh)


def test_refine_unit_square_pair_exact_arrays(unit_square_pair):
    fine = refine_uniform(unit_square_pair)
    assert fine.vertices.tolist() == [
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0],
        [1.0, 0.5], [0.5, 0.5], [0.5, 1.0], [0.0, 0.5]]
    assert fine.triangles.tolist() == [
        [0, 4, 6], [1, 5, 4], [3, 6, 5], [4, 5, 6],
        [0, 6, 8], [3, 7, 6], [2, 8, 7], [6, 7, 8]]
    assert fine.boundary_vertices.tolist() == [0, 1, 2, 3, 4, 5, 7, 8]
    assert fine.midpoint_edges.tolist() == [
        [0, 1], [1, 3], [0, 3], [2, 3], [0, 2]]
    assert fine.interface_edges.shape == (0, 2)


def refine_oracle(mesh):
    """Triangle-by-triangle red refinement with a dict of edge midpoints."""
    vertices = [tuple(v) for v in mesh.vertices]
    midpoint_of, uses = {}, {}
    triangles = []

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        uses[key] = uses.get(key, 0) + 1
        if key not in midpoint_of:
            midpoint_of[key] = len(vertices)
            vertices.append(tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b])))
        return midpoint_of[key]

    for v0, v1, v2 in mesh.triangles.tolist():
        m01, m12, m02 = midpoint(v0, v1), midpoint(v1, v2), midpoint(v0, v2)
        triangles += [(v0, m01, m02), (v1, m12, m01), (v2, m02, m12),
                      (m01, m12, m02)]
    boundary = set(mesh.boundary_vertices.tolist()) | {
        m for key, m in midpoint_of.items() if uses[key] == 1}
    interface = []
    for a, b in mesh.interface_edges.tolist():
        m = midpoint_of[(min(a, b), max(a, b))]
        interface += [(a, m), (b, m)]
    return (vertices, triangles, sorted(boundary), sorted(interface),
            list(midpoint_of))


def test_refine_matches_triangle_walk_oracle():
    coarse = generate_interface_mesh(4, (0, 2, 0, 1), (0.5, 1.5, 0.25, 0.75))
    # generated meshes number vertices row by row, a hand-built one in any
    # order
    for mesh in (coarse, relabelled(coarse)):
        for _ in range(2):
            fine = refine_uniform(mesh)
            vertices, triangles, boundary, interface, mids = \
                refine_oracle(mesh)
            assert np.array_equal(fine.vertices, np.array(vertices))
            assert fine.triangles.tolist() == [list(t) for t in triangles]
            assert fine.boundary_vertices.tolist() == boundary
            assert fine.interface_edges.tolist() == [list(e)
                                                     for e in interface]
            assert fine.midpoint_edges.tolist() == [list(e) for e in mids]
            mesh = fine


@pytest.mark.parametrize("domain, box", [
    ((0, 2, 0, 1), (0.5, 1.5, 0.25, 0.75)),
    ((-1, 1, -1, 1), (-1, 0, -1, 1)),  # box flush with three sides
])
def test_boundary_vertices_are_the_vertices_on_the_domain_boundary(
        domain, box):
    xmin, xmax, ymin, ymax = domain
    mesh = generate_interface_mesh(4, domain, box)
    for _ in range(4):
        x, y = mesh.vertices.T
        on_boundary = (x == xmin) | (x == xmax) | (y == ymin) | (y == ymax)
        assert np.array_equal(mesh.boundary_vertices,
                              np.flatnonzero(on_boundary))
        mesh = refine_uniform(mesh)


def test_fine_interface_edges_inside_coarse_ones():
    mesh = generate_interface_mesh(4)
    fine = refine_uniform(mesh)
    assert len(fine.interface_edges) == 2 * len(mesh.interface_edges)
    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    coarse_segments = [
        (mesh.vertices[a], mesh.vertices[b]) for a, b in mesh.interface_edges
    ]
    for a, b in fine.interface_edges:
        pa, pb = fine.vertices[a], fine.vertices[b]
        contained = False
        for qa, qb in coarse_segments:
            lo, hi = np.minimum(qa, qb), np.maximum(qa, qb)
            on = (np.all(pa >= lo - 1e-14) and np.all(pa <= hi + 1e-14)
                  and np.all(pb >= lo - 1e-14) and np.all(pb <= hi + 1e-14))
            collinear = abs(cross2(qb - qa, pa - qa)) < 1e-14 and \
                abs(cross2(qb - qa, pb - qa)) < 1e-14
            if on and collinear:
                contained = True
                break
        assert contained


GEOMETRIES = [
    pytest.param((-1, 1, -1, 1), (-0.5, 0.5, -0.5, 0.5), id="default"),
    pytest.param((-1, 1, -1, 1), (-1, 0, -1, 1), id="flush-three-sides"),
    pytest.param((-1, 1, -1, 1), (-1, 0, -0.5, 0.5), id="flush-left"),
    pytest.param((-1, 1, -1, 1), (-1, 1, -1, 1), id="whole-domain"),
    pytest.param((0, 2, 0, 1), (0.5, 1.5, 0.25, 0.75), id="off-centre"),
]


def interface_and_boundary_oracle(mesh):
    """Walk the triangles, collecting the regions of each edge's triangles:
    an interface edge has one triangle of each region, and a boundary
    vertex lies on an edge of one triangle."""
    regions_of = {}
    for tri, region in zip(mesh.triangles.tolist(), mesh.regions.tolist()):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            regions_of.setdefault((min(a, b), max(a, b)), []).append(region)
    interface = sorted(edge for edge, regions in regions_of.items()
                       if sorted(regions) == [1, 2])
    boundary = sorted({vertex for edge, regions in regions_of.items()
                       if len(regions) == 1 for vertex in edge})
    return [list(edge) for edge in interface], boundary


@pytest.mark.parametrize("domain, box", GEOMETRIES)
def test_interface_and_boundary_match_a_triangle_walk(domain, box):
    mesh = generate_interface_mesh(4, domain, box)
    for _ in range(4):
        interface, boundary = interface_and_boundary_oracle(mesh)
        # a copy without a parent derives its boundary from its own edges
        root = Mesh(mesh.vertices, mesh.triangles, mesh.regions)
        for m in (mesh, root):
            assert m.interface_edges.tolist() == interface
            assert m.interface_edges.shape == (len(interface), 2)
            assert m.interface_edges.dtype == np.int64
            assert m.boundary_vertices.tolist() == boundary
        mesh = refine_uniform(mesh)


def test_interface_edges_are_built_on_first_use_and_cached():
    mesh = generate_interface_mesh(4)
    assert "interface_edges" not in vars(mesh)
    edges = mesh.interface_edges
    assert edges is mesh.interface_edges
    with pytest.raises(ValueError):
        edges[0, 0] = 0


def test_angle_condition_structured_mesh_all_levels():
    mesh = generate_interface_mesh(4)
    for _ in range(3):
        report = check_angle_condition(mesh, D_JUMP)
        assert report.passes
        assert report.violating_pairs == []
        assert report.worst_offdiag <= report.tolerance
        mesh = refine_uniform(mesh)


def test_angle_condition_obtuse_triangle_fails():
    # nearly degenerate triangle with an obtuse angle at vertex 2
    mesh = Mesh(
        vertices=np.array([[0.0, 0.0], [4.0, 0.0], [3.9, 0.2]]),
        triangles=np.array([[0, 1, 2]]),
        regions=np.array([1]),
    )
    report = check_angle_condition(mesh, {1: 1.0})
    assert not report.passes
    assert (0, 1) in report.violating_pairs
    assert report.worst_offdiag > report.tolerance


def test_angle_report_passes_iff_no_violations():
    good = check_angle_condition(generate_interface_mesh(4), D_UNIT)
    assert good.passes == (len(good.violating_pairs) == 0)


def test_boundary_and_h_are_derived_not_given():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for given in ({"boundary_vertices": [0, 1, 2], "h": 1.0},
                  {"boundary_vertices": [0, 1, 2]}, {"h": 1.0}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Mesh(coords, [[0, 1, 2]], [1], **given)


@pytest.mark.parametrize("vertices, triangles, regions, message", [
    pytest.param(np.zeros((0, 2)), np.zeros((0, 3)), [], "no triangles",
                 id="no-triangles"),
    pytest.param(UNIT_RIGHT, [[0, 1, 3]], [1], "vertex index out of range",
                 id="index-out-of-range"),
    # as a free unknown with an empty stiffness row, an unused vertex
    # would fail a solve far from the cause ("non-positive diagonal")
    pytest.param([*UNIT_RIGHT, [0.3, 0.3]], [[0, 1, 2]], [1],
                 "vertex 3 is not a corner of any triangle", id="unused"),
    pytest.param(UNIT_RIGHT, [[0, 2, 1]], [1],
                 "triangle 0 has non-positive signed area -0.5",
                 id="clockwise"),
    # a NaN area once passed the area check
    pytest.param([[0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]], [1],
                 "vertex 2 has a non-finite coordinate", id="nan"),
    pytest.param([[0, 0], [np.inf, 0], [0, 1]], [[0, 1, 2]], [1],
                 "vertex 1 has a non-finite coordinate", id="inf"),
    pytest.param(UNIT_RIGHT, [[0, 1, 2]], [3], "region tags must be 1 or 2",
                 id="region"),
    pytest.param([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]],
                 [[0, 1, 2], [1, 0, 3], [0, 1, 4]], [1, 1, 1],
                 r"edge \(0, 1\) shared by 3 triangles", id="three-triangles"),
])
def test_validate_mesh_refuses(vertices, triangles, regions, message):
    with pytest.raises(ValidationError, match=message):
        validate_mesh(Mesh(vertices, triangles, regions))


def square():
    """The unit square in 2 x 2 cells, built without a parent: region 1
    left of x = 0.5, region 2 right."""
    vertices = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                [0.0, 0.5], [0.5, 0.5], [1.0, 0.5],
                [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]
    triangles = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
                 [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]
    return Mesh(vertices, triangles, [1, 1, 2, 2, 1, 1, 2, 2])


def test_load_derives_boundary_and_interface():
    mesh = square()
    assert mesh.boundary_vertices.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]
    assert mesh.interface_edges.tolist() == [[1, 4], [4, 7]]


def test_one_edge_pass_per_mesh(monkeypatch):
    import twogridfem.mesh as mesh_module
    passes = []
    unique_edges = mesh_module._unique_edges

    def counted(triangles, n):
        passes.append(n)
        return unique_edges(triangles, n)

    monkeypatch.setattr(mesh_module, "_unique_edges", counted)
    root = validate_mesh(square())
    root.boundary_vertices, root.interface_edges, root.csr_pattern
    assert len(passes) == 1

    passes.clear()
    coarse = generate_interface_mesh(64)
    fine = refine_uniform(coarse)
    for mesh in (coarse, fine):
        mesh.csr_pattern, mesh.boundary_vertices, mesh.interface_edges
    # the refined boundary comes from the parent's, without an edge pass
    assert passes == [coarse.n_vertices, fine.n_vertices]


def test_refined_loaded_mesh_has_the_outer_boundary_as_boundary():
    mesh = square()
    for _ in range(2):
        mesh = refine_uniform(mesh)
        x, y = mesh.vertices.T
        on_boundary = (x == 0) | (x == 1) | (y == 0) | (y == 1)
        assert np.array_equal(mesh.boundary_vertices,
                              np.flatnonzero(on_boundary))
        assert np.all(mesh.vertices[mesh.interface_edges, 0] == 0.5)


@pytest.mark.parametrize("regions, interface", [
    ((1, 2), [[0, 3]]), ((2, 1), [[0, 3]]), ((1, 1), []), ((2, 2), []),
])
def test_loaded_interface_is_where_the_region_changes(
        unit_square_pair, regions, interface):
    mesh = Mesh(unit_square_pair.vertices, unit_square_pair.triangles,
                regions)
    assert mesh.interface_edges.tolist() == interface


def test_mesh_arrays_are_read_only():
    root = generate_interface_mesh(4)
    fine = refine_uniform(root)
    # a refined mesh derives its boundary from its parent's
    for mesh in (root, fine):
        assert mesh.boundary_vertices is mesh.boundary_vertices
        assert mesh.edges is mesh.edges
        for arr in (mesh.vertices, mesh.areas, mesh.gradients,
                    mesh.boundary_vertices, *mesh.edges):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 99
    # the prolongation reads it on first use
    with pytest.raises(ValueError):
        fine.midpoint_edges[0, 0] = 0


def test_geometry_is_computed_once():
    mesh = generate_interface_mesh(4)
    assert mesh.areas is mesh.areas
    assert mesh.gradients is mesh.gradients


def test_prolongation_is_built_on_first_use_and_cached():
    root = generate_interface_mesh(4)
    fine = refine_uniform(root)
    assert "prolongation" not in vars(fine)
    p = fine.prolongation
    assert p is fine.prolongation
    assert p.shape == (fine.n_vertices, root.n_vertices)
    assert root.prolongation is None
    with pytest.raises(ValueError):
        p.data[0] = 99.0

    assert "interior_prolongation" not in vars(fine)
    p0 = fine.interior_prolongation
    assert p0 is fine.interior_prolongation
    assert root.interior_prolongation is None
    expected = fine.prolongation.toarray()[
        np.ix_(fine.interior_vertices, root.interior_vertices)]
    np.testing.assert_array_equal(p0.toarray(), expected)
    assert p0.nnz == np.count_nonzero(expected)
    with pytest.raises(ValueError):
        p0.data[0] = 99.0

    assert "interior_restriction" not in vars(fine)
    r0 = fine.interior_restriction
    assert r0 is fine.interior_restriction
    assert root.interior_restriction is None
    assert r0.format == "csr"
    np.testing.assert_array_equal(r0.toarray(), expected.T)
    with pytest.raises(ValueError):
        r0.data[0] = 99.0


def test_interior_vertices_are_built_on_first_use_and_cached():
    mesh = generate_interface_mesh(4)
    assert "interior_vertices" not in vars(mesh)
    interior = mesh.interior_vertices
    assert interior is mesh.interior_vertices
    np.testing.assert_array_equal(
        interior,
        np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices))
    with pytest.raises(ValueError):
        interior[0] = 0


def test_csr_pattern_is_built_on_first_use_and_cached():
    mesh = refine_uniform(generate_interface_mesh(4))
    assert "csr_pattern" not in vars(mesh)
    pattern = mesh.csr_pattern
    assert pattern is mesh.csr_pattern
    for arr in pattern:
        with pytest.raises(ValueError):
            arr[0] = 0
    # slot 3 i + j of a triangle is the entry (vertex i, vertex j), and
    # every stored entry belongs to some triangle
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(pattern.indptr))
    np.testing.assert_array_equal(rows[pattern.slots],
                                  np.repeat(mesh.triangles, 3, axis=1))
    np.testing.assert_array_equal(pattern.indices[pattern.slots],
                                  np.tile(mesh.triangles, (1, 3)))
    assert np.bincount(pattern.slots.ravel()).min() > 0
