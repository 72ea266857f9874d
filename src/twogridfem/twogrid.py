"""Two-grid algorithm: exact coarse nonlinear solve, one fine Newton step.

The coarse problem is solved with damped Newton to tight tolerance, the
solution is prolongated to the fine mesh (exact P1 nodal interpolation on
nested meshes), and a single Newton correction on the fine mesh, the same
:func:`~twogridfem.solvers.newton_step` that every Newton iteration takes,
produces the two-grid approximation.  Every solve imposes its mesh's
Dirichlet data on the state it starts from.
"""

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    FemFunction,
    _block_slices,
    assemble_semilinear_residual,
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
# Energy stopping tolerance of the warm-started levels of newton_levels:
# a level stops once its estimated Newton error is at most this share of
# |||u_h|||.  The seed-0 power11 chain's finest level then stops 3e-8
# relative off the converged load-vertex value, far below its
# discretization error.
LEVEL_ENERGY_RTOL = 3e-5
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


def linearized_solve(problem, u_base):
    """One Newton step from ``u_base`` on its (fine) mesh.

    ``u_base`` first takes the Dirichlet data on the boundary
    (:func:`~twogridfem.solvers.make_initial_guess`).  Returns
    u_base + delta, where delta vanishes on the boundary and its values
    on the free vertices solve J delta = -r(u_base): r is the semilinear
    residual and J = a(., .) + (b'(u_base) ., .) its Jacobian at u_base,
    both assembled on the free vertices only
    (:func:`~twogridfem.solvers.newton_step`).  Warns when b'(u_base),
    evaluated with each triangle's region at its corners, is negative.

    PCG runs to FINE_PCG_TOL relative to ||r(u_base)||, preconditioned by
    the V-cycle on the mesh's refinement chain.  Returns (solution,
    SolveReport of the linear solve, with the wall time of the whole call
    in ``wall_s``); NoConvergence propagates, with the reason PCG stopped.
    """
    start = time.perf_counter()
    t_h = u_base.mesh
    u_base = make_initial_guess(t_h, problem, u_base.values)
    # a vertex has no single region: check b' at every triangle corner,
    # one block of triangles at a time, as assembly does, so that the
    # temporaries stay in cache
    d1 = problem.nonlinearity.d1
    if any(np.any(d1(t_h.regions[block, None],
                     u_base.values[t_h.triangles[block]]) < 0)
           for block in _block_slices(t_h)):
        warnings.warn(
            "b'(u_base) is negative at some triangle corners; the linearized "
            "system may be indefinite (local monotonicity violated)",
            stacklevel=2)

    residual = assemble_semilinear_residual(u_base, problem)
    delta, report = newton_step(problem, u_base, residual, FINE_PCG_TOL)
    report.wall_s = time.perf_counter() - start
    return FemFunction(t_h, u_base.values + delta), report


def two_grid_solve(t_coarse, t_fine, problem):
    """Run the two-grid algorithm on a nested mesh pair.

    Step 1 solves the nonlinear problem on the coarse mesh (Newton to the
    documented "exact" tolerance); step 2 prolongates and takes one Newton
    step on the fine mesh.  Total fine-grid work is a single linear solve.
    NotNested is raised before any solve when the pair is not nested.
    """
    refinement_chain(t_fine, t_coarse)
    u_coarse, coarse_report = newton_solve(
        t_coarse, problem, None, COARSE_NEWTON_OPTS)
    u_fine, fine_report = linearized_solve(problem,
                                           prolongate(u_coarse, t_fine))
    return TwoGridResult(
        coarse_solution=u_coarse,
        fine_solution=u_fine,
        coarse_report=coarse_report,
        fine_report=fine_report,
    )


def newton_levels(meshes, problem, opts=None):
    """Warm-started Newton solves, level by level, on a refinement chain.

    ``meshes`` is a coarse-to-fine refinement chain.  The first level's
    Newton solve starts from the default initial guess and runs to the
    sup-norm target alone; every later one starts from the prolongated
    solution of the level before, which keeps iteration counts flat
    across levels.  The later levels also stop on the energy test of
    :func:`~twogridfem.solvers.newton_solve`, at ``opts.energy_rtol`` or,
    when that is unset, ``LEVEL_ENERGY_RTOL``, whichever of it and the
    sup-norm target is met first.  Each level's last V-cycle is the
    coarse hierarchy of the next level's first step, so a chain builds
    one hierarchy, on its first level with a parent, as long as every
    step cuts the residual ``HIERARCHY_REUSE_CUT`` times.  Yields
    (solution, SolveReport) per level, as each level is solved.
    """
    opts = opts or NewtonOptions()
    cold = replace(opts, energy_rtol=None)
    warm = replace(opts, energy_rtol=opts.energy_rtol or LEVEL_ENERGY_RTOL)
    cycles = []  # the last level's V-cycle; newton_solve takes it out
    solution = None
    for mesh in meshes:
        if solution is None:
            solution, report = newton_solve(mesh, problem, None, cold,
                                            _cycles=cycles)
        else:
            if mesh.parent is not solution.mesh:
                cycles.clear()
            solution, report = newton_solve(
                mesh, problem, prolongate(solution, mesh), warm,
                _cycles=cycles)
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


def select_coarse_size(h, s, tau, d=2, levels=None):
    """Coarse mesh size matching the two-grid accuracy balance.

    With solution regularity s and dual regularity tau (t = min(s, tau) - 1),
    the fine-grid error h^(s-1) is preserved when
    H <= h^((s-1)/(t + 2(s-1))) in 2D or H <= h^((s-1)/(t/2 + 2(s-1))) in
    3D.  Returns the coarsest candidate not above that bound, or the finest
    candidate when all are above it.  The candidates are ``levels``, the
    available coarse sizes, or by default the dyadic sizes h * 2^k up to
    the bound.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h:g}")
    if not (math.isfinite(s) and s > 1):
        raise InvalidRegularity(f"s must be finite and exceed 1, got {s:g}")
    if not tau > 1:
        raise InvalidRegularity(f"tau must exceed 1, got {tau:g}")
    if d not in (2, 3):
        raise InvalidRegularity(f"dimension must be 2 or 3, got {d}")
    t = min(s, tau) - 1.0
    denom = t + 2.0 * (s - 1.0) if d == 2 else t / 2.0 + 2.0 * (s - 1.0)
    target = h ** ((s - 1.0) / denom)

    if levels is None:
        top = max(math.floor(math.log2(target / h) + 1e-9), 0)
        levels = [h * 2 ** k for k in range(top + 1)]
    elif len(levels) == 0:
        raise ValueError("levels is empty: no coarse size to choose from")
    elif not all(math.isfinite(lv) and lv > 0 for lv in levels):
        raise ValueError(f"levels must be positive and finite, got {levels}")
    below = [lv for lv in levels if lv <= target * (1.0 + 1e-9)]
    return max(below) if below else min(levels)
