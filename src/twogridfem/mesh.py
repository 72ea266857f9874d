"""Interface-resolving triangulations of rectangular domains.

Meshes are structured right-triangle subdivisions of an axis-aligned
rectangle, with a second axis-aligned rectangle ("interface box") whose
boundary carries the internal interface.  Every triangle lies entirely
inside or outside the box, so the triangulation resolves the interface by
construction.  Uniform (red) refinement keeps meshes nested, which the
two-grid machinery relies on.
"""

import warnings
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
    interior_vertices : sorted int array, the vertices not on the
        boundary: the unknowns of every system solved on the mesh
    interior_prolongation : ``prolongation[interior_vertices][:,
        parent.interior_vertices]``, or None without a parent
    interior_restriction : the transpose of ``interior_prolongation`` as
        CSR, or None without a parent
    csr_pattern : the :class:`CsrPattern` of every P1 matrix on the mesh

    All arrays are read-only.  ``interior_vertices``, ``areas``,
    ``gradients``, the prolongations, the restriction and ``csr_pattern``
    are computed once, on first use; two threads racing on that first use
    compute the same values, so meshes are safe to share.
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
    02 of every triangle, shape (M, 3)."""
    a, b = triangles[:, [0, 1, 0]], triangles[:, [1, 2, 2]]
    keys, edge_of = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                              return_inverse=True)
    lo, hi = np.divmod(keys, n)
    return lo, hi, edge_of.reshape(-1, 3)


def _csr_pattern(triangles, n):
    lo, hi, edge_of = _unique_edges(triangles, n)
    n_edges = lo.size
    size = n + 2 * n_edges
    index_dtype = np.int32 if size < 2 ** 31 else np.int64
    # number the diagonal, upper (lo, hi) and lower (hi, lo) entries
    # 1 ... size (no number is an explicit zero); the conversion to CSR
    # sorts the numbers into the entries' positions
    rows = np.concatenate([np.arange(n), lo, hi])
    cols = np.concatenate([np.arange(n), hi, lo])
    a = sp.csr_matrix((np.arange(1, size + 1, dtype=index_dtype),
                       (rows, cols)), shape=(n, n))
    del rows, cols, lo, hi
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
    lo, hi, edge_of = _unique_edges(mesh.triangles, n_old)
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
    # an edge used by one triangle lies on the boundary
    boundary_vertices = np.union1d(mesh.boundary_vertices,
                                   midpoint[np.bincount(edge_of.ravel()) == 1])

    iface = np.sort(mesh.interface_edges, axis=1)
    iface_keys = iface[:, 0] * n_old + iface[:, 1]
    keys = lo * n_old + hi
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
    lo, hi, edge_of = _unique_edges(mesh.triangles, n)
    counts = np.bincount(edge_of.ravel())
    if counts.size and counts.max() > 2:
        bad = int(np.argmax(counts))
        raise ValidationError(
            f"edge ({lo[bad]}, {hi[bad]}) shared by {counts[bad]} "
            f"triangles (non-conforming)")
    return mesh


def save_mesh(mesh):
    """Serialize to the plain-text mesh format (full float precision)."""
    flags = np.zeros(mesh.n_vertices, dtype=np.int64)
    flags[mesh.boundary_vertices] = 1
    lines = [f"vertices {mesh.n_vertices}"]
    # by column: a list per row would cost a garbage-tracked object each
    lines += [f"{x!r} {y!r} {flag}" for x, y, flag
              in zip(*mesh.vertices.T.tolist(), flags.tolist())]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{a} {b} {c} {r}" for a, b, c, r
              in zip(*mesh.triangles.T.tolist(), mesh.regions.tolist())]
    lines.append(f"interface_edges {len(mesh.interface_edges)}")
    lines += [f"{a} {b}" for a, b in zip(*mesh.interface_edges.T.tolist())]
    return "\n".join(lines) + "\n"


def _parse_rows(bodies, dtype):
    """Lines of whitespace-separated numbers as a structured array with
    one field per column, or None unless every line parses.  Some numpy
    versions truncate a float in an integer column with only a
    DeprecationWarning; here that fails under any warning filters."""
    if not bodies:
        return np.zeros(0, dtype)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(bodies, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None


def load_mesh(text):
    """Parse the plain-text mesh format and validate the result.

    The format holds no refinement links, so the loaded mesh has
    ``parent`` and ``midpoint_edges`` set to None and cannot take part in
    prolongation or a two-grid solve.

    Raises ParseError (with the 1-based line number) on malformed input
    and ValidationError on structurally invalid meshes.
    """
    lines = [raw.partition("#")[0].strip() for raw in text.splitlines()]
    numbers = [i for i, body in enumerate(lines, start=1) if body]
    bodies = [body for body in lines if body]
    pos = 0

    def end_of_input():
        return ParseError("unexpected end of input",
                          numbers[-1] if numbers else 1)

    def section(keyword):
        nonlocal pos
        if pos >= len(bodies):
            raise end_of_input()
        lineno, tokens = numbers[pos], bodies[pos].split()
        pos += 1
        if len(tokens) != 2 or tokens[0] != keyword:
            raise ParseError(f"expected '{keyword} <count>'", lineno)
        try:
            count = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad count {tokens[1]!r}", lineno) from None
        if count < 0:
            raise ParseError("negative count", lineno)
        return count

    def table(count, columns, shape_message, value_message,
              allowed=None, range_message=None):
        """The next ``count`` lines, one array per column of the dtypes
        ``columns``; the last column may take only the ``allowed`` values,
        if given."""
        nonlocal pos
        block = bodies[pos:pos + count]
        dtype = np.dtype([(f"c{i}", kind) for i, kind in enumerate(columns)])
        values = _parse_rows(block, dtype) if len(block) == count else None
        if values is None or (allowed is not None and not np.isin(
                values[dtype.names[-1]], allowed).all()):
            # the first bad line, as a line-by-line parse meets it
            for lineno, body in zip(numbers[pos:], block):
                if len(body.split()) != len(columns):
                    raise ParseError(shape_message, lineno)
                row = _parse_rows([body], dtype)
                if row is None:
                    raise ParseError(value_message, lineno)
                if allowed is not None and row[0][-1] not in allowed:
                    raise ParseError(range_message, lineno)
            raise end_of_input()
        pos += count
        return [values[name] for name in dtype.names]

    nv = section("vertices")
    x, y, flags = table(nv, (float, float, np.int64),
                        "expected 'x y boundary_flag'", "bad vertex line",
                        (0, 1), "boundary flag must be 0 or 1")
    vertices = np.column_stack([x, y])
    nt = section("triangles")
    *corners, regions = table(nt, (np.int64,) * 4,
                              "expected 'v0 v1 v2 region'",
                              "bad triangle line",
                              (1, 2), "region must be 1 or 2")
    triangles = np.column_stack(corners)
    edges = np.column_stack(table(section("interface_edges"),
                                  (np.int64,) * 2, "expected 'va vb'",
                                  "bad edge line"))
    if pos != len(bodies):
        raise ParseError("trailing content", numbers[pos])

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
