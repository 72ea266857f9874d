"""P1 finite element operators on triangular meshes.

Global matrices are scipy CSR with sorted indices; stiffness and reaction
Jacobians are symmetric by construction: their element entries are summed
per vertex and per edge, then taken into a mesh's CSR pattern.  The public
assemblers build them on every vertex, in ``Mesh.csr_pattern``; the
solvers' Newton systems live on the free vertices, in
``Mesh.free_pattern``, and the stiffness's free block is built once per
mesh and diffusion.  The semilinear residual is assembled on the free rows
from that block, with the stiffness's coupling to the boundary values
moved into the load.  Volume integrals use one rule, ``QUADRATURE_POINTS``
in barycentric coordinates with ``QUADRATURE_WEIGHTS`` summing to one, so
element integrals are ``area * sum(w_q * f(x_q))``.

Quadrature-point work runs over blocks of ``_BLOCK_TRIANGLES`` triangles,
so that its temporaries stay in cache; problem callbacks therefore receive
one block at a time and must be pointwise.  A pass over a state
(:func:`state_blocks`) interpolates the state only: the reaction callbacks
get the block's region tags in place of coordinates, which only the volume
source and the manufactured fields read (:func:`quadrature_blocks`).
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, _freeze, free_vertices, vertex_pairs

__all__ = [
    "QUADRATURE_POINTS",
    "QUADRATURE_WEIGHTS",
    "FemFunction",
    "AssemblyError",
    "DegenerateTriangle",
    "NotAVertex",
    "quadrature_blocks",
    "state_blocks",
    "assemble_stiffness",
    "assemble_reaction_jacobian",
    "assemble_semilinear_residual",
    "assemble_load",
    "assemble_point_load",
    "assemble_interface_flux",
    "apply_dirichlet",
]

# Triangles per block of quadrature-point work: the (B, 7) and (B, 7, 2)
# arrays then fit a 2 MiB L2 cache.
_BLOCK_TRIANGLES = 4096

# how far, in multiples of the mesh's h, a point load may lie from its vertex
VERTEX_TOL = 1e-9


class AssemblyError(Exception):
    pass


class DegenerateTriangle(AssemblyError):
    pass


class NotAVertex(AssemblyError):
    pass


def _seven_point_rule():
    """Radon's 7-point rule: centroid plus two orbits of three points,
    exact for polynomials of total degree 5, all weights positive."""
    s15 = np.sqrt(15.0)
    a = (6.0 + s15) / 21.0
    b = (6.0 - s15) / 21.0
    wa = (155.0 + s15) / 1200.0
    wb = (155.0 - s15) / 1200.0
    pts = [[1.0 / 3.0] * 3]
    wts = [9.0 / 40.0]
    for lam, w in ((a, wa), (b, wb)):
        other = 1.0 - 2.0 * lam
        pts += [[other, lam, lam], [lam, other, lam], [lam, lam, other]]
        wts += [w, w, w]
    points, weights = np.array(pts), np.array(wts)
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


# The one volume rule of every assembly and norm: barycentric points (7, 3)
# and weights (7,) summing to one.  Any P1 rule exact for constants keeps
# the optimal order of the Galerkin method (Ciarlet 1978, section 4.1).
QUADRATURE_POINTS, QUADRATURE_WEIGHTS = _seven_point_rule()

# 2-point Gauss on [0, 1], exact through cubics; used for edge integrals.
_EDGE_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_GAUSS_W = np.array([0.5, 0.5])


@dataclass(eq=False)
class FemFunction:
    """Nodal coefficients of a P1 function bound to a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError(
                f"expected {self.mesh.n_vertices} coefficients, "
                f"got shape {self.values.shape}")

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_vertices))

    def __sub__(self, other):
        if other.mesh is not self.mesh:
            raise ValueError("operands live on different meshes")
        return FemFunction(self.mesh, self.values - other.values)


def _diffusion_per_triangle(mesh, diffusion):
    """Each triangle's diffusion from {tag: value}; ValueError unless the
    value of every region tag of the mesh is finite and positive."""
    d = np.empty(mesh.n_triangles)
    for tag in np.unique(mesh.regions):
        if int(tag) not in diffusion:
            raise ValueError(f"no diffusion given for region {tag}")
        val = float(diffusion[int(tag)])
        if not (np.isfinite(val) and val > 0):
            raise ValueError(f"diffusion in region {tag} must be finite and "
                             f"positive, got {val:g}")
        d[mesh.regions == tag] = val
    return d


def _positive_areas(mesh):
    """The mesh's element areas; DegenerateTriangle unless all finite and
    positive (a NaN or an overflowing area is not)."""
    areas = mesh.areas
    good = np.isfinite(areas) & (areas > 0)
    if not good.all():
        bad = int(np.argmin(good))
        raise DegenerateTriangle(
            f"triangle {bad} has area {areas[bad]:g}, not finite and "
            f"positive")
    return areas


def _add_block(sums, mesh, block, diagonal, off):
    """Add the entries of the triangles ``block`` of ``mesh`` on their
    vertices, ``diagonal`` (B, k), and on their edges, ``off``, in
    ``vertex_pairs`` order, to a symmetric P1 matrix's ``sums``: its
    entries on the N vertices and E edges of ``mesh``, (N + E,).
    ``np.add.at`` adds in index order, as ``np.bincount`` over the whole
    mesh does, and copies no index array."""
    n = mesh.n_vertices
    np.add.at(sums[:n], mesh.triangles[block].ravel(), diagonal.ravel())
    np.add.at(sums[n:], mesh.edges[2][block].ravel(), off.ravel())


def _scatter(pattern, sums):
    """The matrix with the vertex and edge ``sums`` of :func:`_add_block`
    in a mesh's :class:`~twogridfem.mesh.CsrPattern`; zero sums stay
    stored."""
    n = pattern.indptr.size - 1
    # indexing reads the int32 source as it is; np.take copies it to intp
    return sp.csr_matrix((sums[pattern.source], pattern.indices,
                          pattern.indptr), shape=(n, n))


def _stiffness_sums(mesh, diffusion):
    """The stiffness matrix's vertex and edge sums (:func:`_add_block`)."""
    per_triangle = _diffusion_per_triangle(mesh, diffusion)
    areas = _positive_areas(mesh)
    grads = mesh.gradients
    first, second = vertex_pairs(grads.shape[1])
    sums = np.zeros(mesh.n_vertices + mesh.edges[0].size)
    for block in _block_slices(mesh):
        scale = (per_triangle[block] * areas[block])[:, None]
        gx, gy = grads[block, :, 0], grads[block, :, 1]
        _add_block(sums, mesh, block, (gx * gx + gy * gy) * scale,
                   (gx[:, first] * gx[:, second]
                    + gy[:, first] * gy[:, second]) * scale)
    return sums


def assemble_stiffness(mesh, diffusion):
    """Global stiffness for the bilinear form int D grad(u).grad(v).

    ``diffusion`` maps region tags to positive scalars, e.g. {1: 1000, 2: 1}.
    Before boundary conditions every row sums to zero.
    """
    return _scatter(mesh.csr_pattern, _stiffness_sums(mesh, diffusion))


# Each mesh's stiffness on its free vertices, for the diffusion it was
# last asked for: (key, read-only CSR matrix).  The entry dies with the
# mesh.  It pays only when a mesh is solved on more than once, as each
# level of the ``twogrid`` study is (a direct solve, then the two-grid step).
_FREE_STIFFNESS = weakref.WeakKeyDictionary()


def _free_stiffness(mesh, diffusion):
    """The stiffness's block K_ff on ``mesh.interior_vertices``, in
    ``mesh.free_pattern``; assembled once per mesh and diffusion values."""
    key = tuple(sorted(diffusion.items()))
    cached = _FREE_STIFFNESS.get(mesh)
    if cached is None or cached[0] != key:
        matrix = _scatter(mesh.free_pattern, _stiffness_sums(mesh, diffusion))
        _freeze(matrix.data, matrix.indices, matrix.indptr)
        cached = _FREE_STIFFNESS[mesh] = (key, matrix)
    return cached[1]


def _block_slices(mesh):
    for start in range(0, mesh.n_triangles, _BLOCK_TRIANGLES):
        yield slice(start, start + _BLOCK_TRIANGLES)


def quadrature_blocks(mesh):
    """Per block of at most ``_BLOCK_TRIANGLES`` triangles: its slice and
    the coordinates of its quadrature points (B, 7, 2)."""
    for block in _block_slices(mesh):
        triangles = mesh.triangles[block]
        points = np.empty((len(triangles), len(QUADRATURE_WEIGHTS), 2))
        for axis in range(2):
            # a column view first: ``vertices[triangles, axis]`` gathers slower
            np.matmul(mesh.vertices[:, axis][triangles], QUADRATURE_POINTS.T,
                      out=points[..., axis])
        yield block, points


def state_blocks(state):
    """Per block of at most ``_BLOCK_TRIANGLES`` triangles of the state's
    mesh: its slice, its region tags (B, 1) and the state's values at its
    quadrature points (B, 7)."""
    mesh = state.mesh
    for block in _block_slices(mesh):
        yield (block, mesh.regions[block, None],
               state.values[mesh.triangles[block]] @ QUADRATURE_POINTS.T)


def _reaction_sums(state, d1):
    """The vertex and edge sums (:func:`_add_block`) of the weighted mass
    matrix int d1(region, u) phi_j phi_i."""
    mesh = state.mesh
    areas = _positive_areas(mesh)
    lam = QUADRATURE_POINTS
    weighted = QUADRATURE_WEIGHTS[:, None] * lam
    first, second = vertex_pairs(lam.shape[1])
    products = weighted * lam, weighted[:, first] * lam[:, second]
    sums = np.zeros(mesh.n_vertices + mesh.edges[0].size)
    for block, tags, values in state_blocks(state):
        d1_values = d1(tags, values)
        diagonal, off = (d1_values @ p for p in products)
        diagonal *= areas[block, None]
        off *= areas[block, None]
        _add_block(sums, mesh, block, diagonal, off)
    return sums


def assemble_reaction_jacobian(state, d1):
    """Weighted mass matrix M_ij = int d1(region, u) phi_j phi_i by
    quadrature."""
    return _scatter(state.mesh.csr_pattern, _reaction_sums(state, d1))


def _free_jacobian(state, problem):
    """The Newton matrix K + R(state) of the semilinear residual on the
    free vertices: the reaction Jacobian scattered straight into
    ``Mesh.free_pattern``, plus the cached free block of the stiffness."""
    mesh = state.mesh
    jac = _scatter(mesh.free_pattern,
                   _reaction_sums(state, problem.nonlinearity.d1))
    jac.data += _free_stiffness(mesh, problem.diffusion).data
    return jac


def _moment_vector(mesh, f, state=None):
    """Vector v_i = sum_T area_T sum_q w_q g_q phi_i(x_q) for the callback
    ``f``: g_q = f(x_q) without a ``state`` and g_q = f(region, u(x_q))
    for the state u, ``region`` being the triangle's tag."""
    areas = _positive_areas(mesh)
    weighted_basis = QUADRATURE_WEIGHTS[:, None] * QUADRATURE_POINTS
    vector = np.zeros(mesh.n_vertices)
    blocks = quadrature_blocks(mesh) if state is None else state_blocks(state)
    for block, *args in blocks:
        local = f(*args) @ weighted_basis
        local *= areas[block, None]
        np.add.at(vector, mesh.triangles[block].ravel(), local.ravel())
    return vector


def assemble_point_load(mesh, location, magnitude):
    """Nodal delta load: the magnitude lands on the vertex at ``location``,
    within ``VERTEX_TOL`` times the mesh's h in each coordinate."""
    loc = np.asarray(location, dtype=float)
    dist = np.abs(mesh.vertices - loc[None, :]).max(axis=1)
    hits = np.nonzero(dist <= VERTEX_TOL * mesh.h)[0]
    if hits.size != 1:
        raise NotAVertex(f"no mesh vertex at {tuple(loc.tolist())}")
    load = np.zeros(mesh.n_vertices)
    load[hits[0]] = magnitude
    return load


def assemble_interface_flux(mesh, g_flux):
    """Load v_i = sum over interface edges of int g phi_i ds (2-pt Gauss)."""
    load = np.zeros(mesh.n_vertices)
    if len(mesh.interface_edges) == 0:
        return load
    pa = mesh.vertices[mesh.interface_edges[:, 0]]
    pb = mesh.vertices[mesh.interface_edges[:, 1]]
    lengths = np.hypot(*(pb - pa).T)
    for t, w in zip(_EDGE_GAUSS_T, _EDGE_GAUSS_W):
        x = (1.0 - t) * pa + t * pb
        g = g_flux(x)
        np.add.at(load, mesh.interface_edges[:, 0],
                  w * lengths * g * (1.0 - t))
        np.add.at(load, mesh.interface_edges[:, 1], w * lengths * g * t)
    return load


def assemble_load(mesh, problem):
    """Total load vector: volume source, point source and interface flux."""
    load = np.zeros(mesh.n_vertices)
    if problem.source is not None:
        load += _moment_vector(mesh, problem.source)
    if problem.point_source is not None:
        load += assemble_point_load(mesh, problem.point_source.location,
                                    problem.point_source.magnitude)
    if problem.interface_flux is not None:
        load += assemble_interface_flux(mesh, problem.interface_flux)
    return load


def _free_load(state, problem):
    """The part of the residual's free rows that the state's interior
    values leave alone: the loads, less the stiffness's coupling K_fb u_b
    to the state's boundary values u_b (the Dirichlet lift, summed over
    the edges between free and boundary vertices), skipped when u_b = 0."""
    mesh = state.mesh
    free = mesh.interior_vertices
    load = assemble_load(mesh, problem)[free]
    g = np.zeros(mesh.n_vertices)
    g[mesh.boundary_vertices] = state.values[mesh.boundary_vertices]
    if g.any():
        lo, hi, _ = mesh.edges
        k = _stiffness_sums(mesh, problem.diffusion)[g.size:]  # on the edges
        load -= (np.bincount(lo, weights=k * g[hi], minlength=g.size)
                 + np.bincount(hi, weights=k * g[lo], minlength=g.size))[free]
    return load


def _free_residual(state, problem, load):
    """:func:`assemble_semilinear_residual` with ``load`` from
    :func:`_free_load` of a state with the same boundary values, so that
    the iterates of one solve share it."""
    mesh = state.mesh
    free = mesh.interior_vertices
    r_free = _free_stiffness(mesh, problem.diffusion) @ state.values[free]
    r_free += _moment_vector(mesh, problem.nonlinearity.eval, state)[free]
    r_free -= load
    r = np.zeros(mesh.n_vertices)
    r[free] = r_free
    return r


def assemble_semilinear_residual(state, problem):
    """Discrete residual r_i = a(u,phi_i) + (b(u),phi_i) - <loads,phi_i>.

    Dirichlet rows are zero, so the residual vanishes exactly at a
    discrete solution whose boundary values match the Dirichlet data.
    The free rows are K_ff u_f + b(u)_f - (loads_f - K_fb u_b), from the
    stiffness's free block K_ff (built once per mesh and diffusion) and
    its coupling K_fb to the state's boundary values u_b.
    """
    return _free_residual(state, problem, _free_load(state, problem))


def apply_dirichlet(matrix, rhs, boundary):
    """Homogeneous Dirichlet elimination: the restriction of a system to
    the P1 functions that vanish on the boundary.

    Returns ``matrix[free][:, free]`` as CSR and ``rhs[free]``, where
    ``free`` is :func:`~twogridfem.mesh.free_vertices` of ``boundary``,
    the order of ``Mesh.interior_vertices``; stored zeros stay stored.
    """
    free = free_vertices(matrix.shape[0], boundary)
    return (sp.csr_matrix(matrix)[free][:, free],
            np.asarray(rhs, dtype=float)[free])
