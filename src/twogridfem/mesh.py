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
    "AngleReport",
    "MeshError",
    "InvalidSubdivision",
    "InterfaceNotResolved",
    "ParseError",
    "ValidationError",
    "generate_interface_mesh",
    "refine_uniform",
    "check_angle_condition",
    "validate_mesh",
    "save_mesh",
    "load_mesh",
]

ANGLE_TOL_FACTOR = 1e-12  # scaled by the largest stiffness diagonal entry


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class InvalidSubdivision(MeshError):
    pass


class InterfaceNotResolved(MeshError):
    pass


class ValidationError(MeshError):
    pass


class ParseError(MeshError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(eq=False)
class Mesh:
    """Conforming P1 triangulation with region tags and interface edges.

    Attributes
    ----------
    vertices : (N, 2) float array
    triangles : (M, 3) int array, counterclockwise vertex triples
    regions : (M,) int array with values in {1, 2}
    boundary_vertices : sorted int array, vertices on the outer boundary
    interface_edges : (K, 2) int array, edges lying on the interface
    h : maximum element diameter
    parent : coarser mesh this one refines, or None
    midpoint_edges : (N - N_parent, 2) int array mapping each new vertex
        of a refined mesh to the parent edge it bisects, or None
    areas : (M,) signed element areas (positive for counterclockwise)
    gradients : (M, 3, 2) gradients of the barycentric basis functions
    prolongation : (N, N_parent) sparse P1 embedding of the parent's
        space, or None without a parent
    interior_prolongation : ``prolongation`` without the boundary rows
        and the parent's boundary columns, or None without a parent
    interior_restriction : the transpose of ``interior_prolongation`` as
        CSR, or None without a parent
    csr_pattern : the :class:`CsrPattern` of every P1 matrix on the mesh

    All arrays are read-only.  ``areas``, ``gradients``, the
    prolongations, the restriction and ``csr_pattern`` are computed once,
    on first use; two threads racing on that first use compute the same
    values, so meshes are safe to share.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    boundary_vertices: np.ndarray
    interface_edges: np.ndarray
    h: float
    parent: "Mesh | None" = None
    midpoint_edges: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.regions = np.ascontiguousarray(self.regions, dtype=np.int64)
        self.boundary_vertices = np.ascontiguousarray(
            self.boundary_vertices, dtype=np.int64
        )
        self.interface_edges = np.ascontiguousarray(
            self.interface_edges, dtype=np.int64
        ).reshape(-1, 2)
        _freeze(self.vertices, self.triangles, self.regions,
                self.boundary_vertices, self.interface_edges)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def interior_vertices(self):
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]

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
        p = self.prolongation
        keep_rows = np.ones(self.n_vertices)
        keep_rows[self.boundary_vertices] = 0.0
        keep_cols = np.ones(p.shape[1])
        keep_cols[self.parent.boundary_vertices] = 0.0
        rows = np.repeat(keep_rows, np.diff(p.indptr))
        p0 = sp.csr_matrix((p.data * rows * keep_cols[p.indices],
                            p.indices.copy(), p.indptr.copy()), shape=p.shape)
        p0.eliminate_zeros()
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
        """Built from the unique edges: 3M sort keys, not one per entry."""
        pattern = _csr_pattern(self.triangles, self.n_vertices)
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


def _freeze(*arrays):
    for arr in arrays:
        arr.setflags(write=False)


def _csr_pattern(triangles, n):
    # keys lo * n + hi (lo < hi) of the edges 01, 12, 02 of every triangle
    a, b = triangles[:, [0, 1, 0]], triangles[:, [1, 2, 2]]
    keys, edge_of = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                              return_inverse=True)
    lo, hi = np.divmod(keys, n)  # the unique edges, ordered by (lo, hi)
    edge_of = edge_of.reshape(-1, 3)
    del a, b, keys
    # an entry's position counts the entries before it: the diagonals, the
    # upper entries (lo, hi) and the lower entries (hi, lo) of earlier rows
    # and the earlier entries of its own row
    rows = np.arange(n)
    upper_before = np.searchsorted(lo, rows)
    lower_through = np.cumsum(np.bincount(hi, minlength=n))
    diagonal = rows + upper_before + lower_through
    indptr = np.concatenate([[0],
                             diagonal + 1 + np.bincount(lo, minlength=n)])
    rank = np.arange(lo.size)
    upper = rank + lo + 1 + lower_through[lo]
    by_hi = np.argsort(hi, kind="stable")  # the edges by (hi, lo)
    lower = np.empty_like(upper)
    lower[by_hi] = rank + hi[by_hi] + upper_before[hi[by_hi]]
    del rank, by_hi

    index_dtype = np.int32 if indptr[-1] < 2 ** 31 else np.int64
    indices = np.empty(indptr[-1], dtype=index_dtype)
    indices[diagonal], indices[upper], indices[lower] = rows, hi, lo
    slots = np.empty((len(triangles), 3, 3), dtype=index_dtype)
    for k, (i, j) in enumerate([(0, 1), (1, 2), (0, 2)]):
        forward = triangles[:, i] < triangles[:, j]
        up, down = upper[edge_of[:, k]], lower[edge_of[:, k]]
        slots[:, i, j] = np.where(forward, up, down)
        slots[:, j, i] = np.where(forward, down, up)
        slots[:, k, k] = diagonal[triangles[:, k]]  # k = 0, 1, 2 as a vertex
    return CsrPattern(indptr.astype(index_dtype), indices,
                      slots.reshape(-1, 9))


@dataclass
class AngleReport:
    """Result of the stiffness off-diagonal sign audit."""

    worst_offdiag: float
    violating_pairs: list
    passes: bool
    tolerance: float


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


def _max_diameter(vertices, triangles):
    edges = vertices[triangles[:, [1, 2, 0]]] - vertices[triangles]
    return float(np.hypot(edges[..., 0], edges[..., 1]).max())


def _triangle_edges(triangles):
    """Edges 01, 12, 02 of every triangle as sorted pairs, shape (3M, 2)."""
    return np.sort(triangles[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)


def _sorted_rows(edges):
    """Edge pairs in lexicographic order."""
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def generate_interface_mesh(n, domain=(-1.0, 1.0, -1.0, 1.0),
                            interface_box=(-0.5, 0.5, -0.5, 0.5)):
    """Build a structured right-triangle mesh resolving an interface box.

    The domain ``(xmin, xmax, ymin, ymax)`` is split into an n-by-n grid of
    cells, each cut along the lower-left/upper-right diagonal.  Triangles
    whose centroid lies inside ``interface_box`` get region tag 1, the rest
    tag 2.  The interface consists of the grid edges on the box boundary
    that do not lie on the outer boundary; a box sharing sides with the
    domain therefore degenerates to a line interface (e.g. a vertical line
    when the box spans the full height and half the width).

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

    on_boundary = np.zeros((n + 1, n + 1), dtype=bool)
    on_boundary[[0, n], :] = True
    on_boundary[:, [0, n]] = True
    boundary_vertices = np.flatnonzero(on_boundary)

    # Interface edges: the box perimeter, minus any side flush with the
    # outer boundary.
    column = np.arange(iy0, iy1) * (n + 1)
    row = np.arange(ix0, ix1)
    sides = [np.column_stack([column + i, column + i + n + 1])
             for i in (ix0, ix1) if 0 < i < n]
    sides += [np.column_stack([row + j * (n + 1), row + j * (n + 1) + 1])
              for j in (iy0, iy1) if 0 < j < n]
    interface_edges = _sorted_rows(
        np.concatenate(sides + [np.empty((0, 2), dtype=np.int64)]))

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        regions=regions,
        boundary_vertices=boundary_vertices,
        interface_edges=interface_edges,
        h=_max_diameter(vertices, triangles),
    )


def refine_uniform(mesh):
    """Red refinement: split every triangle into 4 via edge midpoints.

    Region tags are inherited, the child records the parent mesh and
    the edge bisected by every new vertex, and h halves exactly.
    """
    n_old = mesh.n_vertices
    edges = _triangle_edges(mesh.triangles)
    keys, first, inverse, counts = np.unique(
        edges[:, 0] * n_old + edges[:, 1], return_index=True,
        return_inverse=True, return_counts=True)
    # number the midpoints in the order a triangle-by-triangle walk meets
    # their edges
    order = np.argsort(first)
    midpoint = np.empty_like(order)
    midpoint[order] = n_old + np.arange(order.size)
    midpoint_edges = edges[first[order]]

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m02 = midpoint[inverse].reshape(-1, 3).T
    triangles = np.stack([v0, m01, m02, v1, m12, m01, v2, m02, m12,
                          m01, m12, m02], axis=1).reshape(-1, 3)
    vertices = np.vstack([
        mesh.vertices,
        0.5 * (mesh.vertices[midpoint_edges[:, 0]]
               + mesh.vertices[midpoint_edges[:, 1]]),
    ])
    # an edge used by one triangle lies on the boundary
    boundary_vertices = np.union1d(mesh.boundary_vertices,
                                   midpoint[counts == 1])

    iface = np.sort(mesh.interface_edges, axis=1)
    iface_keys = iface[:, 0] * n_old + iface[:, 1]
    if not np.isin(iface_keys, keys).all():
        raise ValidationError("interface edge is not an edge of a triangle")
    mids = midpoint[np.searchsorted(keys, iface_keys)]
    interface_edges = _sorted_rows(np.concatenate([
        np.column_stack([iface[:, 0], mids]),
        np.column_stack([iface[:, 1], mids]),
    ]))

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        regions=np.repeat(mesh.regions, 4),
        boundary_vertices=boundary_vertices,
        interface_edges=interface_edges,
        h=mesh.h / 2.0,
        parent=mesh,
        midpoint_edges=midpoint_edges,
    )


def check_angle_condition(mesh, diffusion):
    """Audit the sign of the stiffness off-diagonal entries.

    The discrete maximum principle requires a(phi_i, phi_j) <= 0 for all
    i != j.  Entries above the tolerance (1e-12 times the largest diagonal
    entry) are reported as violating pairs.  Pure diagnostic.
    """
    from .assembly import assemble_stiffness  # deferred: avoids cycle

    A = assemble_stiffness(mesh, diffusion).tocoo()
    off = A.row != A.col
    tol = ANGLE_TOL_FACTOR * float(A.data[~off].max())
    rows, cols, vals = A.row[off], A.col[off], A.data[off]
    worst = float(vals.max()) if vals.size else 0.0
    bad = vals > tol
    pairs = sorted(
        {(int(min(i, j)), int(max(i, j)))
         for i, j in zip(rows[bad], cols[bad])}
    )
    return AngleReport(
        worst_offdiag=worst,
        violating_pairs=pairs,
        passes=not pairs,
        tolerance=tol,
    )


def validate_mesh(mesh):
    """Raise ValidationError if the mesh breaks a structural invariant."""
    n = mesh.n_vertices
    if mesh.triangles.size and (
            mesh.triangles.min() < 0 or mesh.triangles.max() >= n):
        raise ValidationError("triangle references a vertex index out of range")
    if mesh.interface_edges.size and (
            mesh.interface_edges.min() < 0 or mesh.interface_edges.max() >= n):
        raise ValidationError("interface edge references a vertex out of range")
    if mesh.boundary_vertices.size and (
            mesh.boundary_vertices.min() < 0
            or mesh.boundary_vertices.max() >= n):
        raise ValidationError("boundary vertex index out of range")
    areas = mesh.areas
    if np.any(areas <= 0):
        bad = int(np.argmax(areas <= 0))
        raise ValidationError(
            f"triangle {bad} has non-positive signed area {areas[bad]:g}")
    if not np.all(np.isin(mesh.regions, (1, 2))):
        raise ValidationError("region tags must be 1 or 2")
    edges, counts = np.unique(_triangle_edges(mesh.triangles), axis=0,
                              return_counts=True)
    if counts.size and counts.max() > 2:
        bad = int(np.argmax(counts))
        raise ValidationError(
            f"edge {tuple(edges[bad].tolist())} shared by {counts[bad]} "
            f"triangles (non-conforming)")
    return mesh


def save_mesh(mesh):
    """Serialize to the plain-text mesh format (full float precision)."""
    bset = set(int(v) for v in mesh.boundary_vertices)
    lines = [f"vertices {mesh.n_vertices}"]
    for i, (x, y) in enumerate(mesh.vertices):
        lines.append(f"{float(x)!r} {float(y)!r} {1 if i in bset else 0}")
    lines.append(f"triangles {mesh.n_triangles}")
    for (a, b, c), r in zip(mesh.triangles, mesh.regions):
        lines.append(f"{a} {b} {c} {r}")
    lines.append(f"interface_edges {len(mesh.interface_edges)}")
    for a, b in mesh.interface_edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def load_mesh(text):
    """Parse the plain-text mesh format and validate the result.

    The format holds no refinement links, so the loaded mesh has
    ``parent`` and ``midpoint_edges`` set to None and cannot take part in
    prolongation or a two-grid solve.

    Raises ParseError (with the 1-based line number) on malformed input
    and ValidationError on structurally invalid meshes.
    """
    rows = []  # (line_number, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(rows):
            raise ParseError("unexpected end of input",
                             rows[-1][0] if rows else 1)
        row = rows[pos]
        pos += 1
        return row

    def section(keyword):
        lineno, tokens = take()
        if len(tokens) != 2 or tokens[0] != keyword:
            raise ParseError(f"expected '{keyword} <count>'", lineno)
        try:
            count = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad count {tokens[1]!r}", lineno) from None
        if count < 0:
            raise ParseError("negative count", lineno)
        return count

    nv = section("vertices")
    vertices = np.empty((nv, 2))
    flags = np.empty(nv, dtype=np.int64)
    for i in range(nv):
        lineno, tokens = take()
        if len(tokens) != 3:
            raise ParseError("expected 'x y boundary_flag'", lineno)
        try:
            vertices[i] = (float(tokens[0]), float(tokens[1]))
            flags[i] = int(tokens[2])
        except ValueError:
            raise ParseError("bad vertex line", lineno) from None
        if flags[i] not in (0, 1):
            raise ParseError("boundary flag must be 0 or 1", lineno)

    nt = section("triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    regions = np.empty(nt, dtype=np.int64)
    for i in range(nt):
        lineno, tokens = take()
        if len(tokens) != 4:
            raise ParseError("expected 'v0 v1 v2 region'", lineno)
        try:
            triangles[i] = [int(t) for t in tokens[:3]]
            regions[i] = int(tokens[3])
        except ValueError:
            raise ParseError("bad triangle line", lineno) from None
        if regions[i] not in (1, 2):
            raise ParseError("region must be 1 or 2", lineno)

    ne = section("interface_edges")
    edges = np.empty((ne, 2), dtype=np.int64)
    for i in range(ne):
        lineno, tokens = take()
        if len(tokens) != 2:
            raise ParseError("expected 'va vb'", lineno)
        try:
            edges[i] = [int(t) for t in tokens]
        except ValueError:
            raise ParseError("bad edge line", lineno) from None
    if pos != len(rows):
        raise ParseError("trailing content", rows[pos][0])

    # bounds must hold before any vertex-indexed computation (h)
    if nt and (triangles.min() < 0 or triangles.max() >= nv):
        raise ValidationError("triangle references a vertex index out of range")
    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        regions=regions,
        boundary_vertices=np.nonzero(flags == 1)[0],
        interface_edges=edges,
        h=_max_diameter(vertices, triangles) if nt else 0.0,
    )
    return validate_mesh(mesh)
