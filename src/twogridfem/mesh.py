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


# how far, in grid spacings, a box side may lie from its grid line
GRID_TOL = 1e-9


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
    midpoint_vertices : (E_parent,) int array, the vertex that bisects each
        edge of ``parent.edges``, or None without a parent
    midpoint_edges : (N - N_parent, 2) array, the parent edge (lo, hi)
        that each new vertex bisects, in the index dtype of the parent's
        ``edges``, or None without a parent
    edges : ``(lo, hi, edge_of)``, the unique edges (lo, hi), lo < hi, in
        lexicographic order and the indices of every triangle's edges
        01, 12 and 02, in the index dtype of ``csr_pattern``
    boundary_vertices : sorted int array, the vertices of the edges used
        by one triangle
    h : maximum element diameter
    areas : (M,) signed element areas (positive for counterclockwise)
    gradients : (M, 3, 2) gradients of the barycentric basis functions,
        stored as three contiguous (M, 2) planes, one per vertex
    prolongation : (N, N_parent) sparse P1 embedding of the parent's
        space, or None without a parent
    interface_edges : (K, 2) int array, the edges (lo, hi) shared by a
        region-1 and a region-2 triangle, in lexicographic order
    interior_vertices : sorted int array, the vertices not on the
        boundary: the unknowns of every system solved on the mesh
    interior_prolongation : ``prolongation[interior_vertices][:,
        parent.interior_vertices]``, or None without a parent; its
        transpose, a CSC view, is the restriction
    csr_pattern : the :class:`CsrPattern` of every P1 matrix on the mesh,
        whose entries are sums over its vertices and ``edges``
    free_pattern : its block on ``interior_vertices``, the pattern of
        every system solved on the mesh

    All arrays are read-only.  The attributes after ``midpoint_vertices``
    are derived: ``midpoint_edges`` on each read, the others once, on
    first use; two threads racing on that first use compute the same
    values, so meshes are safe to share.

    The constructor takes vertices, triangles and regions alone and makes
    a root, which computes its edges, boundary, h and geometry from them.
    Only :func:`refine_uniform` makes a mesh with a parent: it records the
    parent and ``midpoint_vertices``, and nothing else sets them.  A mesh
    with a parent is therefore always its parent's red refinement in
    ``refine_uniform``'s child layout, and it derives from the parent's,
    with no check of that layout, its boundary and h, its edges by index
    arithmetic and one sort, and its geometry: the areas are a quarter of
    the parent's and the gradients 2 or -2 times the parent's.  That
    geometry equals :func:`triangle_geometry` of the coordinates bit for
    bit on dyadic coordinates, such as those of
    :func:`generate_interface_mesh` and their refinements, and within
    roundoff otherwise.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    parent: "Mesh | None" = field(default=None, init=False)
    midpoint_vertices: np.ndarray | None = field(default=None, init=False,
                                                 repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.regions = np.ascontiguousarray(self.regions, dtype=np.int64)
        _freeze(self.vertices, self.triangles, self.regions)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def midpoint_edges(self):
        """The parent edge bisected by each new vertex, in vertex order."""
        if self.parent is None:
            return None
        lo, hi, _ = self.parent.edges
        order = np.empty(lo.size, dtype=np.int64)
        order[self.midpoint_vertices - self.parent.n_vertices] = np.arange(
            lo.size)
        return _freeze(np.column_stack([lo[order], hi[order]]))[0]

    @cached_property
    def edges(self):
        """The unique edges and each triangle's edge indices, derived from
        the parent's in ``refine_uniform``'s child layout."""
        if self.parent is None:
            edges = _unique_edges(self.triangles, self.n_vertices)
        else:
            edges = _child_edges(self.parent, self.midpoint_vertices,
                                 self.n_vertices)
        _freeze(*edges)
        return edges

    @cached_property
    def boundary_vertices(self):
        """The vertices of the edges used by one triangle, in increasing
        order."""
        if self.parent is None:
            lo, hi, _ = self.edges
            once = _edge_uses(self.edges) == 1
            boundary = np.union1d(lo[once], hi[once]).astype(np.int64)
        else:
            # red refinement puts the midpoint of a parent edge on the
            # boundary iff one triangle uses that edge
            once = _edge_uses(self.parent.edges) == 1
            boundary = np.concatenate([
                self.parent.boundary_vertices,
                np.sort(self.midpoint_vertices[once])])
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
        on = _edge_uses(self.edges) == 2
        # the tags (1 or 2) of an edge's two triangles add up to 3 when it
        # has one of each; a column of edge_of is a view, so nothing is
        # copied
        tags = np.zeros(lo.size, dtype=np.intp)
        for corner in range(3):
            np.add.at(tags, edge_of[:, corner], self.regions)
        on &= tags == 3
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
        areas, gradients = _geometry_of(self)
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
        midpoint_edges = self.midpoint_edges
        n_mid = len(midpoint_edges)
        indptr = np.concatenate([np.arange(n_old),
                                 n_old + 2 * np.arange(n_mid + 1)])
        indices = np.concatenate([np.arange(n_old), midpoint_edges.ravel()])
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
    def csr_pattern(self):
        """Sorted into place from the unique edges."""
        return _csr_pattern(self.edges, np.ones(self.n_vertices, bool))

    @cached_property
    def free_pattern(self):
        """``csr_pattern``'s block on the interior vertices, built alike."""
        keep = np.ones(self.n_vertices, dtype=bool)
        keep[self.boundary_vertices] = False
        return _csr_pattern(self.edges, keep)


class CsrPattern(NamedTuple):
    """CSR structure, with sorted column indices, of every P1 matrix on a
    mesh, or of its block on a subset of the vertices, numbered in
    increasing order: each vertex couples to itself and to its edge
    neighbours.  ``source`` sends a diagonal entry to its vertex v and any
    other entry to the edge e of ``Mesh.edges`` that joins its row and
    column, as N + e on a mesh of N vertices."""

    indptr: np.ndarray
    indices: np.ndarray
    source: np.ndarray


def free_vertices(n_vertices, boundary):
    """``range(n_vertices)`` without ``boundary``, in increasing order."""
    keep = np.ones(n_vertices, dtype=bool)
    keep[boundary] = False
    return np.flatnonzero(keep)


def _freeze(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _edge_uses(edges):
    """How many triangles use each edge of a mesh's ``edges``;
    ``np.add.at`` copies no read-only index array."""
    lo, _, edge_of = edges
    uses = np.zeros(lo.size, dtype=np.intp)
    np.add.at(uses, edge_of.ravel(), 1)
    return uses


def _index_dtype(n, n_edges):
    """The CSR pattern's index dtype: it numbers n diagonal and 2 entries
    per edge."""
    return np.int32 if n + 2 * n_edges < 2 ** 31 else np.int64


def vertex_pairs(k):
    """The i and the j of the vertex pairs i < j of a k-vertex simplex, in
    the order of its edges in ``Mesh.edges``: by j - i, then by i."""
    return np.array([(i, i + d) for d in range(1, k) for i in range(k - d)]).T


def _unique_edges(triangles, n):
    """The unique edges (lo, hi), lo < hi, of a triangulation of n
    vertices, ordered by (lo, hi), and the indices (M, 3) of every
    triangle's :func:`vertex_pairs`, in the CSR pattern's index dtype."""
    a, b = (triangles[:, pair] for pair in vertex_pairs(triangles.shape[1]))
    keys, edge_of = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                              return_inverse=True)
    lo, hi = np.divmod(keys, n)
    dtype = _index_dtype(n, keys.size)
    return (lo.astype(dtype), hi.astype(dtype),
            edge_of.reshape(a.shape).astype(dtype))


# refine_uniform splits parent triangle t = (v0, v1, v2), whose edge k
# joins vertices k and k + 1 (mod 3) and is bisected by vertex m_k, into
# the corners 4 t + k = (v_k, m_k, m_{k+2}), k = 0, 1, 2, and the middle
# 4 t + 3 = (m_0, m_1, m_2).  The children's vertices, with v0, v1, v2,
# m_0, m_1, m_2 numbered 0 ... 5:
_CHILD_VERTICES = [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]

# each child is its parent scaled by 1/2 about v_k, the middle one by -1/2
# about the centroid: the gradient planes of the parent's that the
# children's planes 0, 1 and 2 are, and the factor on them
_CHILD_GRADIENT_PLANES = [[0, 1, 2, 2], [1, 2, 0, 0], [2, 0, 1, 1]]
_CHILD_GRADIENT_FACTORS = np.array([2.0, 2.0, 2.0, -2.0])


def _geometry_of(mesh):
    """The areas and gradients of ``mesh``: its cached ones, else derived
    from its parent's, else, on a root, computed from its coordinates.  An
    ancestor's geometry is read if cached and not cached if derived here,
    so that a mesh holds only the geometry asked of it."""
    if "_geometry" in vars(mesh):
        return mesh._geometry
    if mesh.parent is None:
        return triangle_geometry(mesh.triangle_coords())
    return _child_geometry(*_geometry_of(mesh.parent))


def _child_edges(parent, midpoint, n):
    """``_unique_edges`` of the n-vertex refinement of ``parent`` in
    ``refine_uniform``'s child layout, whose vertex ``midpoint[e]`` bisects
    parent edge e, by index arithmetic and one sort.

    Numbered before the sort, each of the E parent edges e gives the half
    edges e, at its lower vertex, and E + e, at its upper one; each of the
    M parent triangles t gives the edges 01, 12 and 02 of its middle child,
    2 E + k M + t for k = 0, 1, 2."""
    lo, hi, edge_of = parent.edges
    n_edges, m = lo.size, parent.n_triangles
    # every temporary holds vertex or edge numbers of the child, which fit
    # its index dtype; only the sort keys need 64 bits
    dtype = _index_dtype(n, 2 * n_edges + 3 * m)
    midpoint = midpoint.astype(dtype, copy=False)
    v, parent_edge = parent.triangles.T, edge_of.T
    mids = midpoint[parent_edge]
    first, second = mids[[0, 1, 0]], mids[[1, 2, 2]]
    del mids
    a = np.concatenate([lo, hi, np.minimum(first, second).ravel()],
                       dtype=dtype)
    b = np.concatenate([midpoint, midpoint, np.maximum(first, second).ravel()],
                       dtype=dtype)
    del first, second
    # unique keys: any sort gives the order of np.unique; they reach n^2,
    # so they are widened before the product, which numpy < 2 would
    # otherwise compute in the index dtype
    keys = a.astype(np.int64)
    keys *= n
    keys += b
    order = np.argsort(keys, kind="stable")
    del keys
    rank = np.empty(a.size, dtype=dtype)
    rank[order] = np.arange(a.size, dtype=dtype)

    # corner child k = (v_k, m_k, m_{k+2}): its edge 01 is the half of
    # parent edge k at v_k, 12 is middle-child edge k + 2 and 02 the half
    # of parent edge k + 2 at v_k; the middle child's are its own
    half = dtype(n_edges)
    edges = np.empty((4, 3, m), dtype=dtype)
    edges[3] = np.arange(2 * n_edges, a.size, dtype=dtype).reshape(3, m)
    np.add(parent_edge, half * (v > v[[1, 2, 0]]), out=edges[:3, 0])
    edges[:3, 1] = edges[3, [2, 0, 1]]
    np.add(parent_edge[[2, 0, 1]], half * (v > v[[2, 0, 1]]),
           out=edges[:3, 2])
    return (np.take(a, order), np.take(b, order),
            rank[edges].transpose(2, 0, 1).reshape(-1, 3))


def _child_geometry(areas, gradients):
    """``triangle_geometry`` of ``refine_uniform``'s children of triangles
    with these areas and gradients: a quarter of the parent's area, and 2
    or -2 times its gradients, stored in the same planes."""
    parent_planes = gradients.transpose(1, 0, 2)
    # plane k of child 4 t + c at [k, t, c]: each product goes straight
    # into its place, with no gathered copy of the parent's planes
    planes = np.empty((3, areas.size, 4, 2))
    for k, sources in enumerate(_CHILD_GRADIENT_PLANES):
        for c, (source, factor) in enumerate(
                zip(sources, _CHILD_GRADIENT_FACTORS)):
            np.multiply(parent_planes[source], factor, out=planes[k, :, c])
    child_areas = np.repeat(areas, 4)
    child_areas *= 0.25
    return child_areas, planes.reshape(3, -1, 2).transpose(1, 0, 2)


def _csr_pattern(edges, keep):
    """The read-only :class:`CsrPattern` of the rows and columns of the
    vertices where ``keep`` (N,) is true.  Sorted stably by row, the lower
    entries (hi, lo) in the order of ``edges``, the diagonal and the upper
    entries (lo, hi) fall into column order, as ``edges`` is strictly
    sorted by (lo, hi)."""
    lo, hi, _ = edges
    if not ((lo < hi).all() and ((lo[1:] > lo[:-1]) | (
            (lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all()):
        raise MeshError("edge table not strictly sorted by (lo, hi)")
    # every temporary but the sort order is in the index dtype
    dtype = lo.dtype
    row = np.cumsum(keep, dtype=dtype) - 1  # of each kept vertex
    edge = np.arange(lo.size, dtype=dtype)[keep[lo] & keep[hi]]
    lo_row, hi_row = row[lo[edge]], row[hi[edge]]
    diagonal = np.arange(row[-1] + 1, dtype=dtype)
    rows = np.concatenate([hi_row, diagonal, lo_row])
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(diagonal.size + 1, dtype=dtype)
    # a count of the array's own dtype keeps np.add.at on its fast loop
    np.add.at(indptr[1:], rows, dtype.type(1))
    np.cumsum(indptr, out=indptr)
    del rows
    indices = np.take(np.concatenate([lo_row, diagonal, hi_row]), order)
    del lo_row, hi_row
    edge += keep.size
    vertex = np.arange(keep.size, dtype=dtype)[keep]
    return CsrPattern(*_freeze(
        indptr, indices, np.take(np.concatenate([edge, vertex, edge]), order)))


def triangle_geometry(p):
    """Signed areas (M,) and basis gradients (M, 3, 2) of triangles p (M, 3, 2).

    The gradient of barycentric coordinate i is the edge opposite vertex i
    rotated by -90 degrees over twice the signed area; it is inf or nan
    where the area is zero.  An area that overflows is inf or nan, without
    a warning: the callers that need finite areas check them.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # edges[:, i] runs from vertex i+1 to vertex i+2 (indices mod 3)
        edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
        twice_area = (edges[:, 1, 0] * edges[:, 2, 1]
                      - edges[:, 1, 1] * edges[:, 2, 0])
        gradients = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
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
        tol = GRID_TOL * (coords[1] - coords[0])
        hits = np.nonzero(np.abs(coords - value) <= tol)[0]
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

    Parent triangle t = (v0, v1, v2), with midpoints m01, m12 and m02 of
    its edges, becomes the children 4 t ... 4 t + 3: the corners
    (v0, m01, m02), (v1, m12, m01) and (v2, m02, m12), then the middle
    (m01, m12, m02).  The parent's vertices keep their numbers, and the
    midpoints follow in the order a triangle-by-triangle walk meets their
    edges.  Region tags are inherited, and the child records the parent
    mesh and the new vertex that bisects every parent edge; this is the
    only way to give a mesh a parent.  From this layout the child derives
    its boundary, h, edges and geometry from the parent's, on first use:
    refinement computes none of them.
    """
    n_old = mesh.n_vertices
    lo, hi, edge_of = mesh.edges
    # the first position of each edge in the walk, and the positions that
    # are some edge's first, in increasing order
    first = np.full(lo.size, edge_of.size)
    np.minimum.at(first, edge_of.ravel(), np.arange(edge_of.size))
    is_first = np.zeros(edge_of.size, dtype=bool)
    is_first[first] = True
    order = edge_of.ravel()[is_first]
    midpoint = np.empty(lo.size, dtype=np.int64)
    midpoint[order] = np.arange(n_old, n_old + order.size)
    mid = np.take(mesh.vertices, lo[order], axis=0)
    mid += np.take(mesh.vertices, hi[order], axis=0)
    mid *= 0.5
    vertices = np.concatenate([mesh.vertices, mid])
    # the vertices v0, v1, v2, m_0, m_1, m_2 of every parent triangle as
    # rows, taken in the child layout into the children's triangles
    planes = np.empty((6, mesh.n_triangles), dtype=np.int64)
    planes[:3] = mesh.triangles.T
    np.take(midpoint, edge_of.T, out=planes[3:])
    child = Mesh(vertices,
                 np.take(planes.T, _CHILD_VERTICES, axis=1).reshape(-1, 3),
                 np.repeat(mesh.regions, 4))
    child.parent = mesh
    child.midpoint_vertices = _freeze(midpoint)[0]
    return child


def validate_mesh(mesh):
    """Raise ValidationError if the mesh breaks a structural invariant.

    The array shapes, the vertex indices and then the coordinates are
    checked first: the edges, the areas and h are computed from them, and
    the region tags select each triangle's diffusion and reaction."""
    n = mesh.n_vertices
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != 2:
        raise ValidationError(
            f"vertices must have shape (N, 2), got {mesh.vertices.shape}")
    if mesh.triangles.ndim != 2 or mesh.triangles.shape[1] != 3:
        raise ValidationError(
            f"triangles must have shape (M, 3), got {mesh.triangles.shape}")
    if mesh.regions.shape != (mesh.n_triangles,):
        raise ValidationError(
            f"regions must have one tag per triangle, shape "
            f"({mesh.n_triangles},), got {mesh.regions.shape}")
    if mesh.n_triangles == 0:
        raise ValidationError("mesh has no triangles")
    if mesh.triangles.min() < 0 or mesh.triangles.max() >= n:
        raise ValidationError("triangle references a vertex index out of range")
    # an unused vertex would be an unknown with an empty stiffness row
    corners = np.zeros(n, dtype=np.intp)
    np.add.at(corners, mesh.triangles.ravel(), 1)
    if np.any(corners == 0):
        raise ValidationError(
            f"vertex {int(np.argmin(corners))} is not a corner of any "
            f"triangle")
    finite = np.isfinite(mesh.vertices).all(axis=1)
    if not finite.all():
        raise ValidationError(
            f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
    areas = mesh.areas
    good = np.isfinite(areas) & (areas > 0)
    if not good.all():
        bad = int(np.argmin(good))
        kind = "non-positive" if areas[bad] <= 0 else "non-finite"
        raise ValidationError(
            f"triangle {bad} has {kind} signed area {areas[bad]:g}")
    # np.isin would sort a copy of the tags
    if not np.all((mesh.regions == 1) | (mesh.regions == 2)):
        raise ValidationError("region tags must be 1 or 2")
    lo, hi, _ = mesh.edges
    counts = _edge_uses(mesh.edges)
    if counts.max() > 2:
        bad = int(np.argmax(counts))
        raise ValidationError(
            f"edge ({lo[bad]}, {hi[bad]}) shared by {counts[bad]} "
            f"triangles (non-conforming)")
    return mesh
