"""P1 finite element operators on triangular meshes.

Global matrices are scipy CSR with sorted indices; stiffness and reaction
Jacobians are symmetric by construction.  Volume integrals use one rule,
``QUADRATURE_POINTS`` in barycentric coordinates with
``QUADRATURE_WEIGHTS`` summing to one, so element integrals are
``area * sum(w_q * f(x_q))``.

Quadrature-point work runs over blocks of ``_BLOCK_TRIANGLES`` triangles,
so that its temporaries stay in cache; problem callbacks therefore receive
one block of points at a time and must be pointwise.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, free_vertices

__all__ = [
    "QUADRATURE_POINTS",
    "QUADRATURE_WEIGHTS",
    "FemFunction",
    "AssemblyError",
    "DegenerateTriangle",
    "NotAVertex",
    "quadrature_blocks",
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
        val = float(diffusion[int(tag)])
        if not (np.isfinite(val) and val > 0):
            raise ValueError(f"diffusion in region {tag} must be finite and "
                             f"positive, got {val:g}")
        d[mesh.regions == tag] = val
    return d


def _positive_areas(mesh):
    """The mesh's element areas; DegenerateTriangle unless all positive
    (a NaN area is not)."""
    areas = mesh.areas
    if not np.all(areas > 0):
        bad = int(np.argmin(areas > 0))
        raise DegenerateTriangle(
            f"triangle {bad} has non-positive area {areas[bad]:g}")
    return areas


def _scatter(mesh, local):
    """Sum (M,3,3) or row-major (M,9) element matrices into the mesh's CSR
    pattern; entries that sum to zero stay stored."""
    pattern = mesh.csr_pattern
    data = np.bincount(pattern.slots.ravel(), weights=local.ravel(),
                       minlength=pattern.indices.size)
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(mesh.n_vertices, mesh.n_vertices))


def assemble_stiffness(mesh, diffusion):
    """Global stiffness for the bilinear form int D grad(u).grad(v).

    ``diffusion`` maps region tags to positive scalars, e.g. {1: 1000, 2: 1}.
    Before boundary conditions every row sums to zero.
    """
    scale = _diffusion_per_triangle(mesh, diffusion) * _positive_areas(mesh)
    grads = mesh.gradients
    local = np.empty((mesh.n_triangles, 3, 3))
    for block in _block_slices(mesh):
        gx, gy = grads[block, :, 0], grads[block, :, 1]
        local[block] = (gx[:, :, None] * gx[:, None, :]
                        + gy[:, :, None] * gy[:, None, :])
        local[block] *= scale[block, None, None]
    return _scatter(mesh, local)


def _block_slices(mesh):
    for start in range(0, mesh.n_triangles, _BLOCK_TRIANGLES):
        yield slice(start, start + _BLOCK_TRIANGLES)


def quadrature_blocks(mesh, state=None):
    """Per block of at most ``_BLOCK_TRIANGLES`` triangles: its slice, the
    coordinates of its quadrature points (B, 7, 2) and, with a ``state``,
    the state's values there (B, 7), else None."""
    for block in _block_slices(mesh):
        triangles = mesh.triangles[block]
        points = np.empty((len(triangles), len(QUADRATURE_WEIGHTS), 2))
        for axis in range(2):
            # a column view first: ``vertices[triangles, axis]`` gathers slower
            np.matmul(mesh.vertices[:, axis][triangles], QUADRATURE_POINTS.T,
                      out=points[..., axis])
        values = (None if state is None
                  else state.values[triangles] @ QUADRATURE_POINTS.T)
        yield block, points, values


def assemble_reaction_jacobian(state, d1):
    """Weighted mass matrix M_ij = int d1(x, u) phi_j phi_i by quadrature."""
    mesh = state.mesh
    areas = _positive_areas(mesh)
    lam = QUADRATURE_POINTS
    weighted_products = (QUADRATURE_WEIGHTS[:, None, None] * lam[:, :, None]
                         * lam[:, None, :]).reshape(-1, 9)
    local = np.empty((mesh.n_triangles, 9))
    for block, points, values in quadrature_blocks(mesh, state):
        np.matmul(d1(points, values), weighted_products, out=local[block])
        local[block] *= areas[block, None]
    return _scatter(mesh, local)


def _moment_vector(mesh, f, state=None):
    """Vector v_i = sum_T area_T sum_q w_q f(x_q, u(x_q)) phi_i(x_q) for
    the callback ``f`` and the ``state`` u; without a state, ``f`` gets
    None in place of u(x_q)."""
    areas = _positive_areas(mesh)
    weighted_basis = QUADRATURE_WEIGHTS[:, None] * QUADRATURE_POINTS
    local = np.empty((mesh.n_triangles, 3))
    for block, points, values in quadrature_blocks(mesh, state):
        np.matmul(f(points, values), weighted_basis, out=local[block])
        local[block] *= areas[block, None]
    return np.bincount(
        mesh.triangles.ravel(), weights=local.ravel(),
        minlength=mesh.n_vertices)


def assemble_point_load(mesh, location, magnitude):
    """Nodal delta load: the magnitude lands on the vertex at ``location``."""
    loc = np.asarray(location, dtype=float)
    dist = np.abs(mesh.vertices - loc[None, :]).max(axis=1)
    hits = np.nonzero(dist <= 1e-12)[0]
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
        load += _moment_vector(mesh, lambda x, _: problem.source(x))
    if problem.point_source is not None:
        load += assemble_point_load(mesh, problem.point_source.location,
                                    problem.point_source.magnitude)
    if problem.interface_flux is not None:
        load += assemble_interface_flux(mesh, problem.interface_flux)
    return load


def assemble_semilinear_residual(state, problem, stiffness=None, load=None):
    """Discrete residual r_i = a(u,phi_i) + (b(u),phi_i) - <loads,phi_i>.

    Dirichlet rows are zeroed, so the residual vanishes exactly at a
    discrete solution whose boundary values match the Dirichlet data.
    The optional ``stiffness``/``load`` arguments reuse state-independent
    pieces across Newton iterations.
    """
    mesh = state.mesh
    if stiffness is None:
        stiffness = assemble_stiffness(mesh, problem.diffusion)
    if load is None:
        load = assemble_load(mesh, problem)
    r = stiffness @ state.values + _moment_vector(
        mesh, problem.nonlinearity.eval, state)
    r -= load
    r[mesh.boundary_vertices] = 0.0
    return r


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
