"""Interface-resolving triangulations of rectangular domains.

Meshes are structured right-triangle subdivisions of an axis-aligned
rectangle, with a second axis-aligned rectangle ("interface box") whose
boundary carries the internal interface.  Every triangle lies entirely
inside or outside the box, so the triangulation resolves the interface by
construction.  Uniform (red) refinement keeps meshes nested, which the
two-grid machinery relies on.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "CsrPattern",
    "MeshError",
    "InvalidSubdivision",
    "InterfaceNotResolved",
    "ValidationError",
    "generate_interface_mesh",
    "refine_uniform",
    "validate_mesh",
]


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class InvalidSubdivision(MeshError):
    pass


class InterfaceNotResolved(MeshError):
    pass


class ValidationError(MeshError):
    pass


@dataclass(eq=False)
class Mesh:
    """Conforming P1 triangulation whose region tags resolve the interface.

    Every triangle lies on one side of the interface, so the interface is
    the set of edges where the region tag changes.

    Attributes
    ----------
    vertices : (N, 2) float array
    triangles : (M, 3) int array, counterclockwise vertex triples
    regions : (M,) int array with values in {1, 2}
    parent : coarser mesh this one refines, or None
    midpoint_edges : (N - N_parent, 2) int array mapping each new vertex
        of a refined mesh to the parent edge it bisects, or None
    edges : ``(lo, hi, edge_of)``, the unique edges (lo, hi), lo < hi, in
        lexicographic order and the indices of every triangle's edges
        01, 12 and 02, in the index dtype of ``csr_pattern``
    boundary_vertices : sorted int array, the vertices of the edges used
        by one triangle
    h : maximum element diameter
    areas : (M,) signed element areas (positive for counterclockwise)
    gradients : (M, 3, 2) gradients of the barycentric basis functions
    prolongation : (N, N_parent) sparse P1 embedding of the parent's
        space, or None without a parent
    interface_edges : (K, 2) int array, the edges (lo, hi) shared by a
        region-1 and a region-2 triangle, in lexicographic order
    interior_vertices : sorted int array, the vertices not on the
        boundary: the unknowns of every system solved on the mesh
    interior_prolongation : ``prolongation[interior_vertices][:,
        parent.interior_vertices]``, or None without a parent
    interior_restriction : the transpose of ``interior_prolongation`` as
        CSR, or None without a parent
    csr_pattern : the :class:`CsrPattern` of every P1 matrix on the mesh

    All arrays are read-only.  The attributes after ``midpoint_edges`` are
    derived, once and on first use; two threads racing on that first use
    compute the same values, so meshes are safe to share.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    parent: "Mesh | None" = None
    midpoint_edges: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.regions = np.ascontiguousarray(self.regions, dtype=np.int64)
        _freeze(self.vertices, self.triangles, self.regions)
        if self.midpoint_edges is not None:
            _freeze(self.midpoint_edges)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def edges(self):
        """The unique edges and each triangle's edge indices."""
        edges = _unique_edges(self.triangles, self.n_vertices)
        _freeze(*edges)
        return edges

    @cached_property
    def boundary_vertices(self):
        """The vertices of the edges used by one triangle, in increasing
        order."""
        if self.parent is None:
            lo, hi, edge_of = self.edges
            once = np.bincount(edge_of.ravel()) == 1
            boundary = np.union1d(lo[once], hi[once]).astype(np.int64)
        else:
            # red refinement makes the midpoint of an edge used by one
            # triangle a corner of 3 children, that of any other edge of 6
            n_old = self.parent.n_vertices
            corners = np.bincount(self.triangles.ravel(),
                                  minlength=self.n_vertices)
            boundary = np.concatenate([
                self.parent.boundary_vertices,
                n_old + np.flatnonzero(corners[n_old:] == 3)])
        _freeze(boundary)
        return boundary

    @cached_property
    def h(self):
        """The maximum element diameter; refinement halves it exactly."""
        if self.parent is not None:
            return self.parent.h / 2.0
        p = self.triangle_coords()
        sides = p[:, [1, 2, 0]] - p
        return float(np.hypot(sides[..., 0], sides[..., 1]).max())

    @cached_property
    def interface_edges(self):
        """The edges used by two triangles of different regions."""
        lo, hi, edge_of = self.edges
        uses = np.bincount(edge_of.ravel())
        inside = np.bincount(edge_of[self.regions == 1].ravel(),
                             minlength=lo.size)
        on = (uses == 2) & (inside == 1)
        edges = np.column_stack([lo[on], hi[on]]).astype(np.int64)
        _freeze(edges)
        return edges

    @cached_property
    def interior_vertices(self):
        """The vertices not on the boundary, in increasing order."""
        interior = free_vertices(self.n_vertices, self.boundary_vertices)
        _freeze(interior)
        return interior

    def triangle_coords(self):
        """Vertex coordinates per triangle, shape (M, 3, 2)."""
        return self.vertices[self.triangles]

    @cached_property
    def _geometry(self):
        areas, gradients = triangle_geometry(self.triangle_coords())
        _freeze(areas, gradients)
        return areas, gradients

    @property
    def areas(self):
        return self._geometry[0]

    @property
    def gradients(self):
        return self._geometry[1]

    @cached_property
    def prolongation(self):
        """Parent vertices keep their value; a midpoint averages its edge."""
        if self.parent is None:
            return None
        n_old = self.parent.n_vertices
        n_mid = len(self.midpoint_edges)
        indptr = np.concatenate([np.arange(n_old),
                                 n_old + 2 * np.arange(n_mid + 1)])
        indices = np.concatenate([np.arange(n_old),
                                  self.midpoint_edges.ravel()])
        data = np.concatenate([np.ones(n_old), np.full(2 * n_mid, 0.5)])
        p = sp.csr_matrix((data, indices, indptr),
                          shape=(self.n_vertices, n_old))
        _freeze(p.data, p.indices, p.indptr)
        return p

    @cached_property
    def interior_prolongation(self):
        """``prolongation`` between the spaces that vanish on the boundary."""
        if self.parent is None:
            return None
        p0 = self.prolongation[self.interior_vertices][
            :, self.parent.interior_vertices]
        _freeze(p0.data, p0.indices, p0.indptr)
        return p0

    @cached_property
    def interior_restriction(self):
        """``interior_prolongation`` transposed, stored row-wise."""
        if self.parent is None:
            return None
        r0 = self.interior_prolongation.T.tocsr()
        _freeze(r0.data, r0.indices, r0.indptr)
        return r0

    @cached_property
    def csr_pattern(self):
        """Built from the unique edges; scipy's conversion to CSR places
        every entry."""
        pattern = _csr_pattern(self.triangles, self.n_vertices, self.edges)
        _freeze(*pattern)
        return pattern


class CsrPattern(NamedTuple):
    """CSR structure, with sorted column indices, of every P1 matrix on a
    mesh: each vertex couples to itself and to its edge neighbours.
    ``slots[t, 3 * i + j]`` is the position in ``indices`` of the entry
    (triangles[t, i], triangles[t, j])."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray


def free_vertices(n_vertices, boundary):
    """``range(n_vertices)`` without ``boundary``, in increasing order."""
    keep = np.ones(n_vertices, dtype=bool)
    keep[boundary] = False
    return np.flatnonzero(keep)


def _freeze(*arrays):
    for arr in arrays:
        arr.setflags(write=False)


def _unique_edges(triangles, n):
    """The unique edges (lo, hi), lo < hi, of a triangulation of n
    vertices, ordered by (lo, hi), and the index of the edges 01, 12 and
    02 of every triangle, shape (M, 3), in the CSR pattern's index dtype."""
    a, b = triangles[:, [0, 1, 0]], triangles[:, [1, 2, 2]]
    keys, edge_of = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                              return_inverse=True)
    lo, hi = np.divmod(keys, n)
    # the pattern numbers n diagonal and 2 entries per edge
    dtype = np.int32 if n + 2 * keys.size < 2 ** 31 else np.int64
    return (lo.astype(dtype), hi.astype(dtype),
            edge_of.reshape(-1, 3).astype(dtype))


def _csr_pattern(triangles, n, edges):
    lo, hi, edge_of = edges
    n_edges = lo.size
    size = n + 2 * n_edges
    index_dtype = lo.dtype
    # number the diagonal, upper (lo, hi) and lower (hi, lo) entries
    # 1 ... size (no number is an explicit zero); the conversion to CSR
    # sorts the numbers into the entries' positions
    rows = np.concatenate([np.arange(n), lo, hi])
    cols = np.concatenate([np.arange(n), hi, lo])
    a = sp.csr_matrix((np.arange(1, size + 1, dtype=index_dtype),
                       (rows, cols)), shape=(n, n))
    del rows, cols
    position = np.empty(size, dtype=index_dtype)
    position[a.data - 1] = np.arange(size, dtype=index_dtype)
    diagonal, upper, lower = np.split(position, [n, n + n_edges])

    slots = np.empty((len(triangles), 3, 3), dtype=index_dtype)
    for k, (i, j) in enumerate([(0, 1), (1, 2), (0, 2)]):
        forward = triangles[:, i] < triangles[:, j]
        up, down = upper[edge_of[:, k]], lower[edge_of[:, k]]
        slots[:, i, j] = np.where(forward, up, down)
        slots[:, j, i] = np.where(forward, down, up)
        slots[:, k, k] = diagonal[triangles[:, k]]  # k = 0, 1, 2 as a vertex
    return CsrPattern(a.indptr.astype(index_dtype),
                      a.indices.astype(index_dtype), slots.reshape(-1, 9))


def triangle_geometry(p):
    """Signed areas (M,) and basis gradients (M, 3, 2) of triangles p (M, 3, 2).

    The gradient of barycentric coordinate i is the edge opposite vertex i
    rotated by -90 degrees over twice the signed area; it is inf or nan
    where the area is zero.
    """
    # edges[:, i] runs from vertex i+1 to vertex i+2 (indices mod 3)
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    twice_area = (edges[:, 1, 0] * edges[:, 2, 1]
                  - edges[:, 1, 1] * edges[:, 2, 0])
    gradients = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gradients /= twice_area[:, None, None]
    return 0.5 * twice_area, gradients


def generate_interface_mesh(n, domain=(-1.0, 1.0, -1.0, 1.0),
                            interface_box=(-0.5, 0.5, -0.5, 0.5)):
    """Build a structured right-triangle mesh resolving an interface box.

    The domain ``(xmin, xmax, ymin, ymax)`` is split into an n-by-n grid of
    cells, each cut along the lower-left/upper-right diagonal.  Triangles
    whose centroid lies inside ``interface_box`` get region tag 1, the rest
    tag 2.  The interface, the edges between the two regions, is then the
    part of the box boundary inside the domain; a box sharing sides with
    the domain therefore degenerates to a line interface (e.g. a vertical
    line when the box spans the full height and half the width).

    Raises
    ------
    InvalidSubdivision
        if n < 2.
    InterfaceNotResolved
        if the box edges do not align with grid lines.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidSubdivision(f"need integer n >= 2, got {n!r}")
    xmin, xmax, ymin, ymax = map(float, domain)
    bx0, bx1, by0, by1 = map(float, interface_box)
    if not (xmin < xmax and ymin < ymax):
        raise InvalidSubdivision(f"empty domain {domain!r}")
    if not (xmin <= bx0 < bx1 <= xmax and ymin <= by0 < by1 <= ymax):
        raise InterfaceNotResolved(
            f"interface box {interface_box!r} not inside domain {domain!r}")

    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, n + 1)

    def grid_index(coords, value, axis):
        hits = np.nonzero(np.abs(coords - value) <= 1e-12)[0]
        if hits.size != 1:
            raise InterfaceNotResolved(
                f"box {axis}-edge at {value} does not align with the "
                f"{n}x{n} grid")
        return int(hits[0])

    ix0 = grid_index(xs, bx0, "x")
    ix1 = grid_index(xs, bx1, "x")
    iy0 = grid_index(ys, by0, "y")
    iy1 = grid_index(ys, by1, "y")

    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cell (ix, iy) has lower-left vertex iy * (n + 1) + ix
    iy, ix = np.divmod(np.arange(n * n), n)
    v00 = iy * (n + 1) + ix
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    inside = (ix0 <= ix) & (ix < ix1) & (iy0 <= iy) & (iy < iy1)
    regions = np.repeat(np.where(inside, 1, 2), 2)
    return Mesh(vertices, triangles, regions)


def refine_uniform(mesh):
    """Red refinement: split every triangle into 4 via edge midpoints.

    Region tags are inherited, and the child records the parent mesh and
    the parent edge bisected by every new vertex, from which it derives
    its boundary and h without an edge pass of its own.
    """
    n_old = mesh.n_vertices
    lo, hi, edge_of = mesh.edges
    # number the midpoints in the order a triangle-by-triangle walk meets
    # their edges
    first = np.full(lo.size, edge_of.size)
    np.minimum.at(first, edge_of.ravel(), np.arange(edge_of.size))
    order = np.argsort(first)
    midpoint = np.empty_like(order)
    midpoint[order] = n_old + np.arange(order.size)
    midpoint_edges = np.column_stack([lo[order], hi[order]])

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m02 = midpoint[edge_of].T
    triangles = np.stack([v0, m01, m02, v1, m12, m01, v2, m02, m12,
                          m01, m12, m02], axis=1).reshape(-1, 3)
    vertices = np.vstack([
        mesh.vertices,
        0.5 * (mesh.vertices[midpoint_edges[:, 0]]
               + mesh.vertices[midpoint_edges[:, 1]]),
    ])
    return Mesh(vertices, triangles, np.repeat(mesh.regions, 4),
                parent=mesh, midpoint_edges=midpoint_edges)


def validate_mesh(mesh):
    """Raise ValidationError if the mesh breaks a structural invariant.

    The vertex indices and then the coordinates are checked first: the
    edges, the areas and h are computed from them."""
    n = mesh.n_vertices
    if mesh.n_triangles == 0:
        raise ValidationError("mesh has no triangles")
    if mesh.triangles.min() < 0 or mesh.triangles.max() >= n:
        raise ValidationError("triangle references a vertex index out of range")
    # an unused vertex would be an unknown with an empty stiffness row
    corners = np.bincount(mesh.triangles.ravel(), minlength=n)
    if np.any(corners == 0):
        raise ValidationError(
            f"vertex {int(np.argmin(corners))} is not a corner of any "
            f"triangle")
    finite = np.isfinite(mesh.vertices).all(axis=1)
    if not finite.all():
        raise ValidationError(
            f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
    areas = mesh.areas
    if not np.all(areas > 0):
        bad = int(np.argmin(areas > 0))
        raise ValidationError(
            f"triangle {bad} has non-positive signed area {areas[bad]:g}")
    if not np.all(np.isin(mesh.regions, (1, 2))):
        raise ValidationError("region tags must be 1 or 2")
    lo, hi, edge_of = mesh.edges
    counts = np.bincount(edge_of.ravel())
    if counts.max() > 2:
        bad = int(np.argmax(counts))
        raise ValidationError(
            f"edge ({lo[bad]}, {hi[bad]}) shared by {counts[bad]} "
            f"triangles (non-conforming)")
    return mesh
