"""Two-grid algorithm: exact coarse nonlinear solve, one fine Newton step.

The coarse problem is solved with damped Newton to tight tolerance, the
solution is prolongated to the fine mesh (exact P1 nodal interpolation on
nested meshes) and takes the fine Dirichlet data on the boundary, and a
single Newton correction on the fine mesh, the same
:func:`~twogridfem.solvers.newton_step` that every Newton iteration takes,
produces the two-grid approximation.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import (
    FemFunction,
    assemble_semilinear_residual,
    assemble_stiffness,
)
from .solvers import (
    NewtonOptions,
    SolveReport,
    make_initial_guess,
    newton_solve,
    newton_step,
)

__all__ = [
    "TwoGridResult",
    "TwoGridError",
    "NotNested",
    "InvalidRegularity",
    "prolongate",
    "linearized_solve",
    "two_grid_solve",
    "newton_levels",
    "nested_newton_solve",
    "select_coarse_size",
]

# "Exact" coarse solve tolerance: the algorithm assumes the coarse
# nonlinear problem is solved exactly; this pins down what that means.
COARSE_NEWTON_OPTS = NewtonOptions(abs_tol=1e-12, rel_tol=1e-12,
                                   max_iters=80)
# The fine step's PCG tolerance, relative to ||r(u_base)||: the correction
# system's roundoff floor scales with the correction, not with u.  It is a
# fixed number, not tied to the discretization error.
FINE_PCG_TOL = 1e-12


class TwoGridError(Exception):
    pass


class NotNested(TwoGridError, ValueError):
    """Two meshes (or the functions on them) that must be nested are not."""


class InvalidRegularity(TwoGridError):
    pass


@dataclass(eq=False)
class TwoGridResult:
    coarse_solution: FemFunction
    fine_solution: FemFunction
    coarse_report: SolveReport
    fine_report: SolveReport


def refinement_chain(fine_mesh, coarse_mesh):
    """Meshes from coarse to fine along parent links; NotNested otherwise."""
    chain = [fine_mesh]
    node = fine_mesh
    while node is not coarse_mesh:
        node = node.parent
        if node is None:
            raise NotNested(
                "fine mesh is not a refinement descendant of the coarse mesh")
        chain.append(node)
    return list(reversed(chain))


def prolongate(u_coarse, t_h):
    """Embed a coarse P1 function into the fine space on a nested mesh.

    Each level's ``Mesh.prolongation`` is applied in turn: coarse vertices
    copy their values and each edge-midpoint vertex averages its edge
    endpoints, so the prolonged function equals the coarse one pointwise
    everywhere.
    """
    chain = refinement_chain(t_h, u_coarse.mesh)
    values = u_coarse.values
    for mesh in chain[1:]:
        values = mesh.prolongation @ values
    return FemFunction(t_h, values)


def _prolonged_base(u_coarse, t_h, problem):
    """``u_coarse`` prolongated to ``t_h``, with the fine Dirichlet data
    imposed on the boundary: on non-affine data the prolongation of the
    coarse boundary values misses the fine interpolant."""
    return make_initial_guess(t_h, problem,
                              prolongate(u_coarse, t_h).values)


def linearized_solve(problem, u_base):
    """One Newton step from ``u_base`` on its (fine) mesh.

    Returns u_base + delta, where delta solves J delta = -r(u_base) with
    homogeneous Dirichlet rows, r is the semilinear residual and
    J = a(., .) + (b'(u_base) ., .) its Jacobian at u_base
    (:func:`~twogridfem.solvers.newton_step`).  ``u_base`` carries the
    Dirichlet data, so the result does too.

    PCG runs to FINE_PCG_TOL relative to ||r(u_base)||, preconditioned by
    the V-cycle on the mesh's refinement chain.  Returns (solution,
    SolveReport of the linear solve, with the wall time of the whole call
    in ``wall_s``); NoConvergence propagates, with the reason PCG stopped.
    """
    start = time.perf_counter()
    t_h = u_base.mesh
    nl = problem.nonlinearity
    d1_nodal = np.asarray(nl.d1(t_h.vertices, u_base.values), dtype=float)
    if np.any(d1_nodal < 0):
        warnings.warn(
            "b'(u_base) is negative at some vertices; the linearized system "
            "may be indefinite (local monotonicity violated)",
            stacklevel=2)

    stiffness = assemble_stiffness(t_h, problem.diffusion)
    residual = assemble_semilinear_residual(u_base, problem,
                                            stiffness=stiffness)
    delta, report = newton_step(problem, u_base, residual, stiffness,
                                FINE_PCG_TOL)
    report.wall_s = time.perf_counter() - start
    return FemFunction(t_h, u_base.values + delta), report


def two_grid_solve(t_coarse, t_fine, problem):
    """Run the two-grid algorithm on a nested mesh pair.

    Step 1 solves the nonlinear problem on the coarse mesh (Newton to the
    documented "exact" tolerance); step 2 prolongates and takes one Newton
    step on the fine mesh.  Total fine-grid work is a single linear solve.
    """
    u_coarse, coarse_report = newton_solve(
        t_coarse, problem, None, COARSE_NEWTON_OPTS)
    u_base = _prolonged_base(u_coarse, t_fine, problem)
    u_fine, fine_report = linearized_solve(problem, u_base)
    return TwoGridResult(
        coarse_solution=u_coarse,
        fine_solution=u_fine,
        coarse_report=coarse_report,
        fine_report=fine_report,
    )


def newton_levels(meshes, problem, opts=None):
    """Warm-started Newton solves, level by level, on a refinement chain.

    ``meshes`` is a coarse-to-fine refinement chain.  The first level's
    Newton solve starts from the default initial guess, every later one
    from the prolongated solution of the level before (with the level's
    Dirichlet data imposed on its boundary), which keeps
    iteration counts flat across levels.  Yields (solution, SolveReport)
    per level, as each level is solved.
    """
    solution = None
    for mesh in meshes:
        initial = (None if solution is None
                   else _prolonged_base(solution, mesh, problem))
        solution, report = newton_solve(mesh, problem, initial, opts)
        yield solution, report


def nested_newton_solve(meshes, problem, opts=None):
    """Full nonlinear solve on the finest mesh of a refinement chain.

    Runs :func:`newton_levels` and returns the finest solution and the
    per-level reports.
    """
    solution = None
    reports = []
    for solution, report in newton_levels(meshes, problem, opts):
        reports.append(report)
    return solution, reports


def select_coarse_size(h, s, tau, d=2, snap="up", levels=None):
    """Coarse mesh size matching the two-grid accuracy balance.

    With solution regularity s and dual regularity tau (t = min(s, tau) - 1),
    the fine-grid error h^(s-1) is preserved when
    H = h^((s-1)/(t + 2(s-1))) in 2D or H = h^((s-1)/(t/2 + 2(s-1))) in 3D.
    The formula value is snapped to a level of the dyadic hierarchy
    {h * 2^k}: ``snap="up"`` picks the finest-or-equal level not exceeding
    the formula value (preserving H <= h^exponent), ``snap="nearest"`` the
    geometrically closest one.  Passing ``levels`` restricts candidates to
    an explicit list of available coarse sizes.
    """
    for name, value in (("s", s), ("tau", tau)):
        if not value > 1:
            raise InvalidRegularity(f"{name} must exceed 1, got {value:g}")
    if d not in (2, 3):
        raise InvalidRegularity(f"dimension must be 2 or 3, got {d}")
    if snap not in ("up", "nearest"):
        raise ValueError(f"snap must be 'up' or 'nearest', got {snap!r}")
    t = min(s, tau) - 1.0
    denom = t + 2.0 * (s - 1.0) if d == 2 else t / 2.0 + 2.0 * (s - 1.0)
    target = h ** ((s - 1.0) / denom)

    if levels is None:
        k = math.log2(target / h)
        k = math.floor(k + 1e-9) if snap == "up" else round(k)
        return h * 2.0 ** max(k, 0)

    below = [lv for lv in levels if lv <= target * (1.0 + 1e-9)]
    if snap == "up" and below:
        return max(below)
    return min(levels, key=lambda lv: abs(math.log(lv) - math.log(target)))
