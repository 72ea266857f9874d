import dataclasses

import numpy as np
import pytest

from twogridfem import (
    Mesh,
    Nonlinearity,
    Problem,
    manufactured_interface_problem,
)


@pytest.fixture
def unit_square_pair():
    """Unit square split into two right triangles along the diagonal."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 1, 3], [0, 3, 2]])
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        regions=np.array([1, 1]),
    )


def cube_problem(d_inside=1000.0, d_outside=1.0, f=8.0):
    """b(xi) = xi^3 with a constant volume source (barriers (0, f^(1/3)))."""
    return Problem(
        diffusion={1: d_inside, 2: d_outside},
        nonlinearity=Nonlinearity(
            eval=lambda tags, xi: xi ** 3,
            d1=lambda tags, xi: 3.0 * xi ** 2,
            d2=lambda tags, xi: 6.0 * xi,
            barrier_alpha=0.0,
            barrier_beta=0.0,
        ),
        source=lambda x: np.full(x.shape[:-1], f),
    )


def strong_cube_problem(lam=1e4):
    """The manufactured problem with D = 1/1 and b = lam u^3, its source
    raised by (lam - 1) u^3 so that the manufactured u still solves it;
    returns (problem, ManufacturedSolution)."""
    problem, solution = manufactured_interface_problem(1.0, 1.0)
    cube, source = problem.nonlinearity, problem.source

    def raised_source(points):
        return source(points) + (lam - 1.0) * solution.exact(points) ** 3

    return dataclasses.replace(
        problem,
        nonlinearity=Nonlinearity(
            eval=lambda tags, xi: lam * cube.eval(tags, xi),
            d1=lambda tags, xi: lam * cube.d1(tags, xi),
            d2=lambda tags, xi: lam * cube.d2(tags, xi),
            barrier_alpha=cube.barrier_alpha,
            barrier_beta=cube.barrier_beta,
        ),
        source=raised_source,
    ), solution


def grad_l2_squared_oracle(mesh, values):
    """Independent per-element gradient energy: solves each element's
    affine interpolation problem directly instead of using basis-gradient
    formulas."""
    total = 0.0
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        a = np.array([p[1] - p[0], p[2] - p[0]])
        rhs = np.array([values[tri[1]] - values[tri[0]],
                        values[tri[2]] - values[tri[0]]])
        grad = np.linalg.solve(a, rhs)
        area = 0.5 * abs(np.linalg.det(a))
        total += area * float(grad @ grad)
    return total


def dense_stiffness_oracle(mesh, diffusion):
    """Independent dense assembly via the cotangent formula.

    For a triangle with angle theta_k opposite the edge (i, j), the
    off-diagonal stiffness entry is -D cot(theta_k) / 2; diagonals follow
    from zero row sums.
    """
    n = mesh.n_vertices
    a = np.zeros((n, n))
    for tri, region in zip(mesh.triangles, mesh.regions):
        d = diffusion[int(region)]
        p = mesh.vertices[tri]
        local = np.zeros((3, 3))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            u = p[i] - p[k]
            v = p[j] - p[k]
            cross = u[0] * v[1] - u[1] * v[0]
            cot = float(u @ v) / abs(cross)
            local[i, j] -= 0.5 * d * cot
            local[j, i] -= 0.5 * d * cot
        for k in range(3):
            local[k, k] = -local[k].sum()
        for r in range(3):
            for c in range(3):
                a[tri[r], tri[c]] += local[r, c]
    return a


def relabelled(mesh, seed=0):
    """``mesh`` with a random vertex numbering, its triangles shuffled and
    each triangle's vertices rotated cyclically (still counterclockwise)."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.n_vertices)  # new number of each vertex
    vertices = np.empty_like(mesh.vertices)
    vertices[label] = mesh.vertices
    order = rng.permutation(mesh.n_triangles)
    rotate = (np.arange(3) + rng.integers(0, 3, (mesh.n_triangles, 1))) % 3
    triangles = np.take_along_axis(label[mesh.triangles[order]], rotate,
                                   axis=1)
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        regions=mesh.regions[order],
    )


def distorted(mesh, amplitude=0.3, seed=0):
    """``mesh`` without its parent, each vertex off the boundary and off
    the interface moved by up to ``amplitude * mesh.h``, uniformly in each
    coordinate."""
    rng = np.random.default_rng(seed)
    fixed = np.zeros(mesh.n_vertices, dtype=bool)
    fixed[mesh.boundary_vertices] = True
    fixed[mesh.interface_edges.ravel()] = True
    shift = rng.uniform(-1.0, 1.0, (mesh.n_vertices, 2))
    shift *= amplitude * mesh.h / np.sqrt(2.0)
    return Mesh(
        vertices=np.where(fixed[:, None], mesh.vertices,
                          mesh.vertices + shift),
        triangles=mesh.triangles,
        regions=mesh.regions,
    )
