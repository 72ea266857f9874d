import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from twogridfem import (
    DegenerateTriangle,
    FemFunction,
    Mesh,
    NotAVertex,
    apply_dirichlet,
    assemble_interface_flux,
    assemble_load,
    assemble_point_load,
    assemble_reaction_jacobian,
    assemble_semilinear_residual,
    assemble_stiffness,
    builtin_problem,
    check_angle_condition,
    energy_norm,
    generate_interface_mesh,
    manufactured_interface_problem,
    nested_newton_solve,
    newton_solve,
    refine_uniform,
)
from twogridfem import assembly
from twogridfem.assembly import QUADRATURE_POINTS, QUADRATURE_WEIGHTS, \
    _free_load, _free_residual, _moment_vector, quadrature_blocks, \
    state_blocks
from twogridfem.mesh import vertex_pairs

from conftest import dense_stiffness_oracle, grad_l2_squared_oracle, \
    relabelled

D_UNIT = {1: 1.0, 2: 1.0}
D_JUMP = {1: 1000.0, 2: 1.0}

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_monomial_integral(a, b):
    """int over the unit right triangle of x^a y^b = a! b! / (a+b+2)!."""
    return (math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + 2))


def test_quadrature_weights_and_monomial_exactness():
    assert QUADRATURE_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(QUADRATURE_WEIGHTS > 0)
    # barycentric -> cartesian on the unit right triangle
    xy = QUADRATURE_POINTS[:, 1:]
    for a in range(6):
        for b in range(6 - a):
            approx = 0.5 * float(
                QUADRATURE_WEIGHTS @ (xy[:, 0] ** a * xy[:, 1] ** b))
            assert approx == pytest.approx(
                reference_monomial_integral(a, b), abs=1e-14)


def test_quadrature_degree_recorded():
    assert len(QUADRATURE_WEIGHTS) == 7


def one_triangle_stiffness(coords, d):
    """The stiffness matrix of the mesh of the one triangle ``coords``."""
    return assemble_stiffness(Mesh(coords, [[0, 1, 2]], [1]),
                              {1: d}).toarray()


def test_stiffness_of_unit_right_triangle():
    expected = np.array([
        [1.0, -0.5, -0.5],
        [-0.5, 0.5, 0.0],
        [-0.5, 0.0, 0.5],
    ])
    np.testing.assert_allclose(one_triangle_stiffness(UNIT_RIGHT, 1.0),
                               expected, atol=1e-15)


def test_stiffness_row_sums_and_scaling():
    rng = np.random.default_rng(7)
    tri = rng.uniform(-1, 1, (3, 2))
    if np.linalg.det(tri[1:] - tri[0]) < 0:
        tri = tri[[0, 2, 1]]
    k1 = one_triangle_stiffness(tri, 1.0)
    np.testing.assert_allclose(k1.sum(axis=1), 0.0, atol=1e-13)
    np.testing.assert_allclose(one_triangle_stiffness(tri, 1000.0),
                               1000.0 * k1, atol=1e-12)


@pytest.mark.parametrize("coords", [
    pytest.param([[0, 0], [1, 0], [2, 0]], id="collinear"),
    # a NaN area once passed the check, and the matrix came out all NaN
    pytest.param([[0, 0], [1, 0], [np.nan, 1]], id="nan"),
    # finite coordinates whose area overflows to inf once passed it too
    pytest.param([[0, 0], [1e200, 0], [0, 1e200]], id="overflow"),
])
def test_assemble_stiffness_rejects_degenerate_triangle(coords):
    with pytest.raises(DegenerateTriangle, match="triangle 0"):
        one_triangle_stiffness(coords, 1.0)


def test_assemble_stiffness_rejects_clockwise_triangle(unit_square_pair):
    mesh = Mesh(
        vertices=unit_square_pair.vertices,
        triangles=np.array([[0, 1, 3], [0, 2, 3]]),  # second is clockwise
        regions=unit_square_pair.regions,
    )
    with pytest.raises(DegenerateTriangle, match="triangle 1"):
        assemble_stiffness(mesh, D_UNIT)


def test_stiffness_refuses_a_missing_region():
    with pytest.raises(ValueError, match="region 2"):
        assemble_stiffness(generate_interface_mesh(4), {1: 1.0})


def test_assemble_stiffness_matches_dense_oracle():
    mesh = generate_interface_mesh(2, (-1, 1, -1, 1), (-1, 0, -1, 1))
    a = assemble_stiffness(mesh, D_UNIT).toarray()
    oracle = dense_stiffness_oracle(mesh, D_UNIT)
    np.testing.assert_allclose(a, oracle, atol=1e-13)


def test_assemble_stiffness_oracle_with_jump():
    mesh = generate_interface_mesh(4)
    a = assemble_stiffness(mesh, D_JUMP).toarray()
    oracle = dense_stiffness_oracle(mesh, D_JUMP)
    np.testing.assert_allclose(a, oracle, rtol=1e-13, atol=1e-11)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_stiffness_refuses_a_non_finite_diffusion(bad):
    # energy_norm and the angle audit assemble it; a NaN stiffness used to
    # give a NaN norm and an audit that passed
    mesh = generate_interface_mesh(4)
    diffusion = {1: bad, 2: 1.0}
    for assemble in (
            lambda: assemble_stiffness(mesh, diffusion),
            lambda: energy_norm(mesh, diffusion, FemFunction.zeros(mesh)),
            lambda: check_angle_condition(mesh, diffusion)):
        with pytest.raises(ValueError,
                           match="region 1 must be finite and positive"):
            assemble()


def test_stiffness_constant_in_kernel():
    mesh = generate_interface_mesh(8)
    a = assemble_stiffness(mesh, D_JUMP)
    v = np.full(mesh.n_vertices, 3.7)
    assert abs(v @ (a @ v)) <= 1e-9  # scale ~1e3 entries


def test_stiffness_region_swap_with_equal_coefficients():
    mesh = generate_interface_mesh(4)
    a = assemble_stiffness(mesh, {1: 2.5, 2: 2.5})
    swapped = assemble_stiffness(mesh, {2: 2.5, 1: 2.5})
    assert (a - swapped).nnz == 0


def test_stiffness_csr_contract():
    a = assemble_stiffness(generate_interface_mesh(4), D_JUMP)
    assert a.has_sorted_indices
    sym_gap = abs(a - a.T).max()
    assert sym_gap <= 1e-14 * abs(a).max()


def test_ellipticity_sandwich():
    mesh = generate_interface_mesh(8)
    a = assemble_stiffness(mesh, D_JUMP)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(mesh.n_vertices)
        v[mesh.boundary_vertices] = 0.0
        quad_form = float(v @ (a @ v))
        grad2 = grad_l2_squared_oracle(mesh, v)
        assert 1.0 * grad2 * (1 - 1e-10) <= quad_form
        assert quad_form <= 1000.0 * grad2 * (1 + 1e-10)


def test_reaction_jacobian_single_triangle_mass(unit_square_pair):
    # restrict to one triangle by building a tiny mesh from the square pair
    from twogridfem import Mesh
    mesh = Mesh(
        vertices=UNIT_RIGHT,
        triangles=np.array([[0, 1, 2]]),
        regions=np.array([1]),
    )
    state = FemFunction.zeros(mesh)
    m = assemble_reaction_jacobian(
        state, lambda tags, xi: np.ones(np.shape(xi)))
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(m.toarray(), expected, atol=1e-15)


def test_reaction_jacobian_partition_of_unity():
    mesh = generate_interface_mesh(8, (-1, 1, -1, 1))
    state = FemFunction.zeros(mesh)
    m = assemble_reaction_jacobian(
        state, lambda tags, xi: np.ones(np.shape(xi)))
    assert m.sum() == pytest.approx(4.0, abs=1e-12)


def test_reaction_jacobian_zero_weight():
    mesh = generate_interface_mesh(4)
    state = FemFunction.zeros(mesh)
    m = assemble_reaction_jacobian(
        state, lambda tags, xi: np.zeros(np.shape(xi)))
    assert abs(m).max() == 0.0


def test_reaction_jacobian_nonnegative_and_symmetric():
    mesh = generate_interface_mesh(4)
    rng = np.random.default_rng(3)
    state = FemFunction(mesh, rng.uniform(-1, 1, mesh.n_vertices))
    m = assemble_reaction_jacobian(
        state, lambda tags, xi: 3.0 * xi ** 2)
    assert m.data.min() >= 0.0
    assert abs(m - m.T).max() <= 1e-15


def test_residual_zero_state_no_loads():
    mesh = generate_interface_mesh(4)
    problem = builtin_problem("linear_reaction", c=1.0, f=0.0)
    r = assemble_semilinear_residual(
        FemFunction.zeros(mesh), problem)
    assert np.all(r == 0.0)


def test_residual_matches_matrix_form_for_linear_reaction():
    mesh = generate_interface_mesh(4)
    c = 2.5
    problem = builtin_problem("linear_reaction", c=c, f=1.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.n_vertices)
    r = assemble_semilinear_residual(
        FemFunction(mesh, u), problem)
    a = assemble_stiffness(mesh, problem.diffusion)
    m = assemble_reaction_jacobian(
        FemFunction.zeros(mesh),
        lambda tags, xi: np.ones(np.shape(xi)))
    load = assemble_load(mesh, problem)
    expected = a @ u + c * (m @ u) - load
    expected[mesh.boundary_vertices] = 0.0
    np.testing.assert_allclose(r, expected, atol=1e-13)


def test_residual_small_at_converged_solution():
    mesh = generate_interface_mesh(8)
    problem = builtin_problem("sinh_pbe")
    u, report = newton_solve(mesh, problem)
    r = assemble_semilinear_residual(u, problem)
    assert np.abs(r).max() < 1e-10


def test_point_load_at_origin():
    mesh = generate_interface_mesh(4)
    load = assemble_point_load(mesh, (0.0, 0.0), 1000.0)
    idx = np.nonzero(load)[0]
    assert len(idx) == 1
    assert np.array_equal(mesh.vertices[idx[0]], [0.0, 0.0])
    assert load[idx[0]] == 1000.0


def test_point_load_zero_magnitude():
    mesh = generate_interface_mesh(4)
    load = assemble_point_load(mesh, (0.0, 0.0), 0.0)
    assert np.all(load == 0.0)


def test_point_load_not_a_vertex():
    mesh = generate_interface_mesh(4)
    with pytest.raises(NotAVertex):
        assemble_point_load(mesh, (0.3, 0.3), 1.0)


def test_point_load_tolerance_scales_with_the_mesh():
    # an absolute tolerance of 1e-12 found every vertex of this mesh
    size = np.pi * 1e-12
    lines = np.linspace(0, size, 10)
    mesh = generate_interface_mesh(9, (0, size, 0, size),
                                   (lines[3], lines[6], lines[3], lines[6]))
    vertex = 37
    load = assemble_point_load(mesh, mesh.vertices[vertex], 2.0)
    assert np.flatnonzero(load).tolist() == [vertex]
    assert load[vertex] == 2.0
    with pytest.raises(NotAVertex):
        assemble_point_load(mesh, mesh.vertices[vertex] + size / 27, 1.0)


def test_interface_flux_constant(unit_square_pair):
    # regions 1 and 2 meet on the diagonal, the interface edge, which
    # counts once
    from twogridfem import Mesh
    mesh = Mesh(
        vertices=unit_square_pair.vertices,
        triangles=unit_square_pair.triangles,
        regions=np.array([1, 2]),
    )
    length = np.sqrt(2.0)
    load = assemble_interface_flux(mesh, lambda x: np.ones(x.shape[:-1]))
    np.testing.assert_allclose(load, [length / 2, 0.0, 0.0, length / 2],
                               atol=1e-14)


def test_interface_flux_zero():
    mesh = generate_interface_mesh(4)
    load = assemble_interface_flux(mesh, lambda x: np.zeros(x.shape[:-1]))
    assert np.all(load == 0.0)


def test_interface_flux_linear_exact(unit_square_pair):
    from twogridfem import Mesh
    mesh = Mesh(
        vertices=unit_square_pair.vertices,
        triangles=unit_square_pair.triangles,
        regions=np.array([1, 2]),
    )
    # g(x, y) = x is linear along the diagonal (0,0)-(1,1)
    load = assemble_interface_flux(mesh, lambda x: x[..., 0])
    length = np.sqrt(2.0)
    # int_0^1 t * (1 - t) L dt and int_0^1 t * t L dt
    np.testing.assert_allclose(load[0], length / 6.0, atol=1e-14)
    np.testing.assert_allclose(load[3], length / 3.0, atol=1e-14)


def test_interface_flux_supported_on_interface_vertices():
    mesh = generate_interface_mesh(4)
    load = assemble_interface_flux(mesh, lambda x: np.ones(x.shape[:-1]))
    iface = set(mesh.interface_edges.ravel().tolist())
    assert set(np.nonzero(load)[0].tolist()) == iface


def test_apply_dirichlet_homogeneous():
    mesh = generate_interface_mesh(4)
    a = assemble_stiffness(mesh, D_UNIT)
    rhs = np.arange(mesh.n_vertices, dtype=float)
    ac, rc = apply_dirichlet(a, rhs, mesh.boundary_vertices)
    free = mesh.interior_vertices
    assert ac.shape == (len(free), len(free))
    np.testing.assert_array_equal(rc, rhs[free])
    assert abs(ac - ac.T).max() <= 1e-14


def test_constrained_operator_is_spd():
    mesh = generate_interface_mesh(4)
    a = assemble_stiffness(mesh, D_JUMP)
    state = FemFunction(mesh, np.random.default_rng(0).uniform(
        0, 1, mesh.n_vertices))
    m = assemble_reaction_jacobian(state, lambda tags, xi: 3 * xi ** 2)
    ac, _ = apply_dirichlet(a + m, np.zeros(mesh.n_vertices),
                            mesh.boundary_vertices)
    eigs = np.linalg.eigvalsh(ac.toarray())
    assert eigs.min() > 0.0


def test_moment_vector_integrates_linear_exactly():
    mesh = generate_interface_mesh(4, (-1, 1, -1, 1))
    mom = _moment_vector(mesh, lambda x: x[..., 0] + 2.0)
    # sum of moments = integral of (x + 2) over the domain = 8
    assert mom.sum() == pytest.approx(8.0, abs=1e-13)


def coo_oracle(mesh, local):
    """Element matrices (M,3,3) summed by scipy's COO to CSR conversion."""
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assert_same_csr(a, oracle):
    oracle.sum_duplicates()
    np.testing.assert_array_equal(a.indptr, oracle.indptr)
    np.testing.assert_array_equal(a.indices, oracle.indices)
    np.testing.assert_allclose(a.data, oracle.data, rtol=0,
                               atol=1e-14 * abs(oracle.data).max())
    assert a.has_sorted_indices
    resorted = a.copy()
    resorted.has_sorted_indices = False
    resorted.sort_indices()
    np.testing.assert_array_equal(resorted.indices, a.indices)


@pytest.mark.parametrize("root", [False, True, "relabelled"])
def test_assembly_matches_coo_oracle(root):
    mesh = refine_uniform(generate_interface_mesh(4))
    if root == "relabelled":
        mesh = relabelled(mesh)  # not numbered row by row
    if root:
        mesh = Mesh(mesh.vertices, mesh.triangles, mesh.regions)  # no parent
    d = np.where(mesh.regions == 1, D_JUMP[1], D_JUMP[2])
    g = mesh.gradients
    assert_same_csr(
        assemble_stiffness(mesh, D_JUMP),
        coo_oracle(mesh, (d * mesh.areas)[:, None, None]
                   * np.einsum("mid,mjd->mij", g, g)))

    state = FemFunction(mesh, np.random.default_rng(1).uniform(
        -1, 1, mesh.n_vertices))
    xq = state.values[mesh.triangles] @ QUADRATURE_POINTS.T
    w = 3.0 * xq ** 2 * QUADRATURE_WEIGHTS * mesh.areas[:, None]
    lam = QUADRATURE_POINTS
    assert_same_csr(
        assemble_reaction_jacobian(state, lambda tags, xi: 3.0 * xi ** 2),
        coo_oracle(mesh, np.einsum("mq,qi,qj->mij", w, lam, lam)))


def test_reaction_jacobian_peak_memory():
    # measured with power11 at n = 128: 102 bytes per triangle, the (M, 3)
    # vertex and (M, 3) edge element entries, np.bincount's intp copy of
    # the int32 edge indices and the vertex and edge sums; (M, 9) element
    # matrices would add 24 and np.bincount's intp copy of an (M, 9) slot
    # table 72 (172 with both); the whole-mesh values at the quadrature
    # points peaked at 224
    mesh = generate_interface_mesh(128)
    d1 = builtin_problem("power11").nonlinearity.d1
    state = FemFunction(mesh, np.linspace(0.0, 1.0, mesh.n_vertices))
    assemble_reaction_jacobian(state, d1)  # builds the pattern
    tracemalloc.start()
    try:
        assemble_reaction_jacobian(state, d1)
        per_triangle = tracemalloc.get_traced_memory()[1] / mesh.n_triangles
    finally:
        tracemalloc.stop()
    assert per_triangle < 115


def test_free_stiffness_first_use_peak_memory():
    # measured at n = 128: 88 bytes per triangle, with the element entries
    # summed per vertex and per edge and freed before the sums are taken
    # into the free pattern; (M, 3, 3) element matrices scattered through
    # an intp copy of an (M, 9) slot table peaked at 171
    mesh = generate_interface_mesh(128)
    mesh.free_pattern, mesh.gradients
    tracemalloc.start()
    try:
        assembly._free_stiffness(mesh, D_JUMP)
        per_triangle = tracemalloc.get_traced_memory()[1] / mesh.n_triangles
    finally:
        tracemalloc.stop()
    assert per_triangle < 100


def test_semilinear_residual_peak_memory():
    # measured with power11 at n = 256: 63 bytes per triangle with the
    # quadrature evaluated block by block; the whole-mesh (M, 7) values and
    # (M, 7, 2) coordinates at the quadrature points peak at 224
    mesh = generate_interface_mesh(256)
    problem = builtin_problem("power11")
    state = FemFunction(mesh, np.linspace(0.0, 1.0, mesh.n_vertices))
    load = _free_load(state, problem)

    def residual():
        _free_residual(state, problem, load)

    residual()  # the mesh's areas, gradients and free stiffness
    tracemalloc.start()
    try:
        residual()
        per_triangle = tracemalloc.get_traced_memory()[1] / mesh.n_triangles
    finally:
        tracemalloc.stop()
    assert per_triangle < 120


def transient_peak(fn):
    """tracemalloc's peak during ``fn()`` above the memory live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def power11_state():
    """The seed-0 power11 solution on n = 128, refined from n = 8, with
    the mesh's caches and the free load of its Newton solve."""
    problem = builtin_problem("power11")
    meshes = [generate_interface_mesh(8)]
    for _ in range(4):
        meshes.append(refine_uniform(meshes[-1]))
    state, _ = nested_newton_solve(meshes, problem)
    return state, problem, _free_load(state, problem)


def matrix_sums_bytes(mesh):
    """The size of the (N + E,) vertex and edge sums of a P1 matrix."""
    return 8 * (mesh.n_vertices + mesh.edges[0].size)


# four blocks of values at the quadrature points: the per-block
# temporaries of a pass over a state
BLOCK_ALLOWANCE = 4 * 8 * assembly._BLOCK_TRIANGLES * len(QUADRATURE_WEIGHTS)


def test_newton_matrix_transient_is_its_result_and_the_sums(power11_state):
    # measured on n = 128: 1.87 MB above live memory, the result's 0.90 MB
    # of values, the 0.53 MB of sums and 0.45 MB of block temporaries;
    # (M, 3) element entries summed by np.bincount, which copied the
    # read-only index arrays, peaked at 3.35 MB
    state, problem, _ = power11_state
    jac = assembly._free_jacobian(state, problem)
    bound = jac.data.nbytes + matrix_sums_bytes(state.mesh) + BLOCK_ALLOWANCE
    assert transient_peak(
        lambda: assembly._free_jacobian(state, problem)) < bound


def test_residual_transient_is_its_result_and_the_sums(power11_state):
    # measured on n = 128: 1.28 MB above live memory against a bound of
    # 1.58 MB (0.13 MB of result); the (M, 3) element moments summed by
    # np.bincount peaked at 2.07 MB
    state, problem, load = power11_state
    result = _free_residual(state, problem, load)
    bound = result.nbytes + matrix_sums_bytes(state.mesh) + BLOCK_ALLOWANCE
    assert transient_peak(
        lambda: _free_residual(state, problem, load)) < bound


def unblocked_moments(mesh, values_at_quad):
    local = (values_at_quad * QUADRATURE_WEIGHTS
             * mesh.areas[:, None]) @ QUADRATURE_POINTS
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.n_vertices)


def assert_close_to(actual, oracle):
    np.testing.assert_allclose(actual, oracle, rtol=0,
                               atol=1e-13 * abs(oracle).max())


def test_blocked_assembly_matches_an_unblocked_oracle(monkeypatch):
    mesh = generate_interface_mesh(8)
    block = 7
    assert mesh.n_triangles % block != 0  # a short last block
    monkeypatch.setattr(assembly, "_BLOCK_TRIANGLES", block)
    points = np.matmul(QUADRATURE_POINTS, mesh.triangle_coords())
    lam = QUADRATURE_POINTS

    # region-dependent reaction: kappa^2 vanishes in region 1, the box
    sinh_pbe = builtin_problem("sinh_pbe")
    nl = sinh_pbe.nonlinearity
    state = FemFunction(mesh, np.random.default_rng(4).uniform(
        -1, 1, mesh.n_vertices))
    uq = state.values[mesh.triangles] @ QUADRATURE_POINTS.T
    tags = mesh.regions[:, None]
    stiffness = assemble_stiffness(mesh, sinh_pbe.diffusion)
    load = assemble_load(mesh, sinh_pbe)
    oracle = (stiffness @ state.values
              + unblocked_moments(mesh, nl.eval(tags, uq)) - load)
    oracle[mesh.boundary_vertices] = 0.0
    assert_close_to(assemble_semilinear_residual(state, sinh_pbe), oracle)

    w = nl.d1(tags, uq) * QUADRATURE_WEIGHTS * mesh.areas[:, None]
    jacobian = coo_oracle(mesh, np.einsum("mq,qi,qj->mij", w, lam, lam))
    jacobian.sum_duplicates()
    assert_close_to(
        assemble_reaction_jacobian(state, nl.d1).toarray(),
        jacobian.toarray())

    d = np.where(mesh.regions == 1, 2.0, 80.0)
    g = mesh.gradients
    assert_close_to(
        stiffness.toarray(),
        coo_oracle(mesh, (d * mesh.areas)[:, None, None]
                   * np.einsum("mid,mjd->mij", g, g)).toarray())

    manufactured, _ = manufactured_interface_problem(1000.0, 1.0)
    assert_close_to(
        assemble_load(mesh, manufactured),
        unblocked_moments(mesh, manufactured.source(points)))


def test_blocked_sums_equal_whole_mesh_bincounts_bit_for_bit(monkeypatch):
    # np.add.at adds each block's entries in index order, so the sums are
    # those of one np.bincount over the whole mesh, to the last bit
    mesh = relabelled(refine_uniform(generate_interface_mesh(4)))
    monkeypatch.setattr(assembly, "_BLOCK_TRIANGLES", 7)
    scale = np.where(mesh.regions == 1, 1000.0, 1.0) * mesh.areas
    gx, gy = mesh.gradients[..., 0], mesh.gradients[..., 1]
    first, second = vertex_pairs(3)
    diagonal = (gx * gx + gy * gy) * scale[:, None]
    off = (gx[:, first] * gx[:, second]
           + gy[:, first] * gy[:, second]) * scale[:, None]
    lo, _, edge_of = mesh.edges
    whole = np.concatenate([
        np.bincount(mesh.triangles.ravel(), weights=diagonal.ravel(),
                    minlength=mesh.n_vertices),
        np.bincount(edge_of.ravel(), weights=off.ravel(), minlength=lo.size)])
    np.testing.assert_array_equal(assembly._stiffness_sums(mesh, D_JUMP),
                                  whole)


def test_quadrature_points_match_the_broadcast_product(monkeypatch):
    mesh = refine_uniform(refine_uniform(generate_interface_mesh(4)))
    block = 100
    assert mesh.n_triangles % block != 0  # a short last block
    monkeypatch.setattr(assembly, "_BLOCK_TRIANGLES", block)
    state = FemFunction(mesh, np.random.default_rng(5).uniform(
        -1, 1, mesh.n_vertices))
    slices, points = zip(*quadrature_blocks(mesh))
    expected_slices = [(start, min(start + block, mesh.n_triangles), 1)
                       for start in range(0, mesh.n_triangles, block)]
    assert [s.indices(mesh.n_triangles) for s in slices] == expected_slices
    np.testing.assert_array_max_ulp(
        np.concatenate(points),
        np.matmul(QUADRATURE_POINTS, mesh.triangle_coords()), maxulp=1)
    slices, tags, values = zip(*state_blocks(state))
    assert [s.indices(mesh.n_triangles) for s in slices] == expected_slices
    np.testing.assert_array_equal(np.concatenate(tags),
                                  mesh.regions[:, None])
    np.testing.assert_allclose(
        np.concatenate(values),
        state.values[mesh.triangles] @ QUADRATURE_POINTS.T, rtol=0,
        atol=1e-15)


def test_reaction_callbacks_get_region_tags_not_coordinates(monkeypatch):
    mesh = refine_uniform(generate_interface_mesh(4))
    block = 7
    assert mesh.n_triangles % block != 0  # a short last block
    monkeypatch.setattr(assembly, "_BLOCK_TRIANGLES", block)
    calls = []

    def spy(fn):
        def callback(tags, xi):
            calls.append((tags, xi))
            return fn(tags, xi)
        return callback

    problem = builtin_problem("sinh_pbe")
    nl = problem.nonlinearity
    spied = dataclasses.replace(
        problem, nonlinearity=dataclasses.replace(
            nl, eval=spy(nl.eval), d1=spy(nl.d1)))
    state = FemFunction(mesh, np.random.default_rng(6).uniform(
        -1, 1, mesh.n_vertices))
    assemble_semilinear_residual(state, spied)
    assemble_reaction_jacobian(state, spied.nonlinearity.d1)

    starts = range(0, mesh.n_triangles, block)
    assert len(calls) == 2 * len(starts)
    for (tags, xi), start in zip(calls, [*starts, *starts]):
        assert np.issubdtype(tags.dtype, np.integer)
        assert tags.shape == (len(xi), 1)
        assert xi.shape == (len(xi), len(QUADRATURE_WEIGHTS))
        np.testing.assert_array_equal(
            tags, mesh.regions[start:start + block, None])


def box_test_callback(mesh, kappa2, fn):
    """kappa^2 fn(xi) with kappa^2 = 0 inside the default interface box,
    decided at the quadrature points of each block in turn: sinh_pbe's b
    or b' before its callbacks took region tags.  One assembly's worth of
    calls."""
    blocks = quadrature_blocks(mesh)

    def callback(tags, xi):
        _, x = next(blocks)
        inside = ((x[..., 0] >= -0.5) & (x[..., 0] <= 0.5)
                  & (x[..., 1] >= -0.5) & (x[..., 1] <= 0.5))
        return np.where(inside, 0.0, kappa2) * fn(xi)

    return callback


def test_sinh_pbe_region_tags_match_the_box_test_bit_for_bit(monkeypatch):
    mesh = refine_uniform(refine_uniform(generate_interface_mesh(8)))
    monkeypatch.setattr(assembly, "_BLOCK_TRIANGLES", 300)
    problem = builtin_problem("sinh_pbe", kappa2=2.5)
    state = FemFunction(mesh, np.random.default_rng(7).uniform(
        -2, 2, mesh.n_vertices))
    oracle = dataclasses.replace(
        problem, nonlinearity=dataclasses.replace(
            problem.nonlinearity,
            eval=box_test_callback(mesh, 2.5, np.sinh)))
    np.testing.assert_array_equal(
        assemble_semilinear_residual(state, problem),
        assemble_semilinear_residual(state, oracle))
    jacobian = assemble_reaction_jacobian(state, problem.nonlinearity.d1)
    expected = assemble_reaction_jacobian(
        state, box_test_callback(mesh, 2.5, np.cosh))
    np.testing.assert_array_equal(jacobian.data, expected.data)
    np.testing.assert_array_equal(jacobian.indices, expected.indices)


def test_apply_dirichlet_matches_dense_oracle():
    mesh = refine_uniform(refine_uniform(generate_interface_mesh(4)))
    state = FemFunction(mesh, np.random.default_rng(2).uniform(
        0, 1, mesh.n_vertices))
    jac = assemble_reaction_jacobian(state, lambda tags, xi: 3 * xi ** 2)
    jac.data += assemble_stiffness(mesh, D_JUMP).data
    b = mesh.boundary_vertices
    rhs = np.random.default_rng(3).standard_normal(mesh.n_vertices)
    ac, rc = apply_dirichlet(jac, rhs, b)

    free = np.setdiff1d(np.arange(mesh.n_vertices), b)
    np.testing.assert_array_equal(ac.toarray(),
                                  jac.toarray()[np.ix_(free, free)])
    np.testing.assert_array_equal(rc, rhs[free])
    assert ac.has_canonical_format


def test_apply_dirichlet_leaves_a_writable_input_alone():
    mesh = generate_interface_mesh(4)
    a = assemble_stiffness(mesh, D_UNIT).copy()  # owns writable arrays
    before = a.toarray()
    ac, _ = apply_dirichlet(a, np.zeros(mesh.n_vertices),
                            mesh.boundary_vertices)
    ac.eliminate_zeros()
    np.testing.assert_array_equal(a.toarray(), before)


def test_free_newton_matrix_is_the_restricted_full_one():
    # sinh_pbe's b' vanishes in region 1: the reaction differs by region
    mesh = relabelled(refine_uniform(generate_interface_mesh(8)))
    problem = builtin_problem("sinh_pbe", kappa2=2.5)
    state = FemFunction(mesh, np.random.default_rng(8).uniform(
        -2, 2, mesh.n_vertices))
    full = assemble_reaction_jacobian(state, problem.nonlinearity.d1)
    full.data += assemble_stiffness(mesh, problem.diffusion).data
    expected, _ = apply_dirichlet(full, np.zeros(mesh.n_vertices),
                                  mesh.boundary_vertices)
    jac = assembly._free_jacobian(state, problem)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(jac, name),
                                      getattr(expected, name))


def test_free_stiffness_is_cached_per_diffusion_and_read_only():
    mesh = generate_interface_mesh(8)
    free = mesh.interior_vertices
    unit = assembly._free_stiffness(mesh, D_UNIT)
    assert assembly._free_stiffness(mesh, dict(D_UNIT)) is unit
    for arr in (unit.data, unit.indices, unit.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0
    jump = assembly._free_stiffness(mesh, D_JUMP)
    assert jump is not unit
    for diffusion, matrix in ((D_UNIT, unit), (D_JUMP, jump)):
        expected = assemble_stiffness(mesh, diffusion)[free][:, free]
        np.testing.assert_array_equal(matrix.toarray(), expected.toarray())
    assert assembly._free_stiffness(mesh, D_JUMP) is jump


def test_free_stiffness_cache_is_right_under_racing_threads():
    # one mesh shared by threads that alternate between two diffusions:
    # the cache holds one of them at a time, so every lookup races a
    # replacement, and each residual must still use its own diffusion
    mesh = generate_interface_mesh(8)
    rng = np.random.default_rng(10)
    state = FemFunction(mesh, rng.uniform(-1, 1, mesh.n_vertices))
    problems = [builtin_problem("linear_reaction", d_inside=d)
                for d in (1.0, 1000.0)]
    expected = [assemble_semilinear_residual(state, p) for p in problems]
    wrong = []

    def work(offset):
        for k in range(60):
            i = (k + offset) % 2
            r = assemble_semilinear_residual(state, problems[i])
            if not np.array_equal(r, expected[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
