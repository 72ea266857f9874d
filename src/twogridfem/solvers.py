"""Preconditioned conjugate gradients and damped Newton iteration."""

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (
    DEFAULT_QUAD_DEGREE,
    FemFunction,
    apply_dirichlet,
    assemble_load,
    assemble_reaction_jacobian,
    assemble_semilinear_residual,
    assemble_stiffness,
    triangle_rule,
)

__all__ = [
    "NewtonOptions",
    "SolveReport",
    "SolverError",
    "NoConvergence",
    "LineSearchStall",
    "VCycle",
    "pcg_solve",
    "newton_step",
    "newton_solve",
    "make_initial_guess",
]

logger = logging.getLogger(__name__)

# Inexact-Newton forcing: linear solves run at relative tolerance
# FORCING_FACTOR * (current nonlinear residual), capped at FORCING_FACTOR
# and floored at FORCING_FLOOR.
FORCING_FACTOR = 1e-2
FORCING_FLOOR = 1e-12


class SolverError(Exception):
    pass


class NoConvergence(SolverError):
    """Budget exhausted or progress stalled; carries the best iterate seen."""

    def __init__(self, message, best=None, report=None, last=None):
        super().__init__(message)
        self.best = best
        self.report = report
        self.last = best if last is None else last


class LineSearchStall(SolverError):
    """Damping reduced the step below the minimum without progress."""

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


@dataclass
class NewtonOptions:
    """Damped Newton controls: sup-norm tolerances and step-halving limits."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_iters: int = 40
    min_step: float = 2.0 ** -10

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    """What a solve did; ``wall_s``, the wall time of the whole call, is
    set by ``newton_solve`` and ``twogrid.linearized_solve`` only."""

    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
    linear_iters_total: int = 0
    wall_s: float = 0.0


def _jacobi_inverse(a):
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolverError("matrix has non-positive diagonal; not SPD")
    return 1.0 / diag


class _Level(NamedTuple):
    matrix: sp.csr_matrix        # the level's operator A
    weights: np.ndarray          # l1-Jacobi smoother, 1 / sum_j |a_ij|
    prolongation: sp.csr_matrix  # P0 from the next coarser level
    restriction: sp.csr_matrix   # P0^T


class VCycle:
    """Symmetric multigrid V(1,1)-cycle on a mesh's refinement chain.

    ``matrix`` is an SPD system on ``mesh.interior_vertices``, as
    :func:`~twogridfem.assembly.apply_dirichlet` returns it.  Each coarser
    level's operator is the Galerkin product P0^T A P0 on its interior
    vertices, P0 being ``Mesh.interior_prolongation``.  Every level
    smooths once before and once after its coarse correction with
    l1-Jacobi, which converges for any SPD matrix without a damping
    parameter, and the root of the chain is solved exactly.  Calling the
    cycle on a residual applies an SPD approximation of the inverse.
    """

    def __init__(self, mesh, matrix):
        self.levels = []
        a = matrix.tocsr()
        while mesh.parent is not None:
            p, r = mesh.interior_prolongation, mesh.interior_restriction
            abs_a = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr),
                                  shape=a.shape)
            weights = 1.0 / (abs_a @ np.ones(a.shape[0]))
            self.levels.append(_Level(a, weights, p, r))
            mesh = mesh.parent
            a = r @ a @ p
        self.root_solve = splu(a.tocsc()).solve

    def __call__(self, r):
        # a loop, not recursion: a closure calling itself would form a
        # reference cycle and keep every level alive until the garbage
        # collector runs
        down = []
        for level in self.levels:
            x = level.weights * r
            down.append((r, x))
            r = level.restriction @ (r - level.matrix @ x)
        x = self.root_solve(r)
        for level, (r, x_pre) in zip(reversed(self.levels), reversed(down)):
            x = x_pre + level.prolongation @ x
            x += level.weights * (r - level.matrix @ x)
        return x


def pcg_solve(a, rhs, tol=1e-10, max_iters=None, preconditioner=None):
    """Preconditioned conjugate gradients for SPD systems, started at zero.

    ``preconditioner`` maps a residual to an SPD approximation of
    A^-1 applied to it, such as a :class:`VCycle`; without one, Jacobi
    (the inverse diagonal) is used.

    Stops when the recurrence residual satisfies ||rhs - A x||_2 <=
    tol * ||rhs||_2 and an explicit residual recomputation confirms it.
    When the recurrence meets the target but the true residual does not,
    the iteration restarts from the true residual; once a restart no
    longer lowers the true residual, the attainable accuracy is reached
    and NoConvergence reports the stagnation.  NoConvergence is also
    raised when the iteration budget runs out.  It carries the iterate
    with the lowest true residual seen as ``best``.
    """
    n = rhs.shape[0]
    if max_iters is None:
        max_iters = min(max(500, 2 * n), 100_000)
    minv = _jacobi_inverse(a)
    if preconditioner is None:
        def preconditioner(r):
            return minv * r

    x = np.zeros(n)
    r = np.array(rhs, dtype=float)
    rnorm = float(np.linalg.norm(r))
    target = tol * rnorm
    history = [rnorm]
    if rnorm <= target:  # a zero right-hand side, or tol >= 1
        return x, SolveReport(0, history, True, 0)

    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    # lowest true residual so far; evaluated at the start, every restart
    # and the end of the budget
    best_x, best_norm = x.copy(), rnorm
    for k in range(1, max_iters + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0 or not np.isfinite(pap):
            raise SolverError("encountered non-positive curvature; not SPD")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        if rnorm <= target:
            true_r = rhs - a @ x
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= target:
                return x, SolveReport(k, history, True, k)
            if true_norm >= best_norm:
                raise NoConvergence(
                    f"pcg: stagnated after {k} iterations, restarts no "
                    f"longer lower the true residual (best true residual "
                    f"{best_norm:.3e}, target {target:.3e})",
                    best=best_x,
                    report=SolveReport(k, history, False, k),
                    last=x,
                )
            best_x, best_norm = x.copy(), true_norm
            # recurrence drifted: restart from the true residual
            r = true_r
            z = preconditioner(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    true_norm = float(np.linalg.norm(rhs - a @ x))
    if true_norm < best_norm:
        best_x, best_norm = x, true_norm
    raise NoConvergence(
        f"pcg: no convergence in {max_iters} iterations "
        f"(best true residual {best_norm:.3e}, target {target:.3e})",
        best=best_x,
        report=SolveReport(max_iters, history, False, max_iters),
        last=x,
    )


def make_initial_guess(mesh, problem, values=None):
    """``values`` (default zero) with the Dirichlet data imposed on the
    boundary."""
    values = (np.zeros(mesh.n_vertices) if values is None
              else np.array(values, dtype=float))
    if problem.dirichlet is not None:
        values[mesh.boundary_vertices] = np.broadcast_to(
            np.asarray(problem.dirichlet(
                mesh.vertices[mesh.boundary_vertices]), dtype=float),
            (len(mesh.boundary_vertices),))
    return FemFunction(mesh, values)


def newton_step(mesh, problem, state, residual, stiffness, quad, tol):
    """One Newton correction: PCG on J delta = -residual.

    J = K + R(state) is ``stiffness`` plus the reaction Jacobian at
    ``state``, restricted to the free vertices by :func:`apply_dirichlet`.
    PCG runs to relative tolerance ``tol``, preconditioned by the V-cycle
    on the mesh's refinement chain, or by Jacobi on a mesh without a
    ``parent``.  Returns (delta, SolveReport of the linear solve), delta
    zero on the boundary; NoConvergence propagates, its ``best`` and
    ``last`` iterates scattered the same way.
    """
    jac = assemble_reaction_jacobian(mesh, state, problem.nonlinearity.d1,
                                     quad)
    jac.data += stiffness.data
    system, rhs = apply_dirichlet(jac, -residual, mesh.boundary_vertices)
    del jac  # PCG needs only the restriction
    preconditioner = None if mesh.parent is None else VCycle(mesh, system)

    def scatter(values):
        delta = np.zeros(mesh.n_vertices)
        delta[mesh.interior_vertices] = values
        return delta

    try:
        x, report = pcg_solve(system, rhs, tol=tol,
                              preconditioner=preconditioner)
    except NoConvergence as exc:
        exc.best, exc.last = scatter(exc.best), scatter(exc.last)
        raise
    return scatter(x), report


def newton_solve(mesh, problem, initial=None, opts=None, quad=None):
    """Damped Newton iteration for the discrete semilinear system.

    The stiffness and load are assembled once; every iteration takes a
    :func:`newton_step` at the current state with the inexact-Newton
    forcing tolerance, falls back to PCG's best iterate when the step's
    solve stops early, and accepts the first step-halving candidate that
    does not increase the residual sup-norm.  Dirichlet rows are held
    exactly: ``initial`` must carry the boundary data (the default initial
    guess does).

    Returns (solution, SolveReport); raises NoConvergence or
    LineSearchStall with the best iterate attached.  Every report records
    the wall time of the whole call in ``wall_s``.
    """
    start = time.perf_counter()
    opts = opts or NewtonOptions()
    quad = quad or triangle_rule(DEFAULT_QUAD_DEGREE)
    if initial is None:
        initial = make_initial_guess(mesh, problem)
    if initial.mesh is not mesh:
        raise ValueError("initial guess lives on a different mesh")

    load = assemble_load(mesh, problem, quad)
    stiffness = assemble_stiffness(mesh, problem.diffusion)

    def residual(values):
        return assemble_semilinear_residual(
            mesh, FemFunction(mesh, values), problem, quad,
            stiffness=stiffness, load=load)

    u = initial.values.copy()
    r = residual(u)
    rsup = float(np.abs(r).max())
    history = [rsup]
    target = max(opts.abs_tol, opts.rel_tol * rsup)
    lin_total = 0
    iterations = 0

    while rsup > target:
        if iterations >= opts.max_iters:
            raise NoConvergence(
                f"newton: residual {rsup:.3e} above {target:.3e} after "
                f"{iterations} iterations",
                best=FemFunction(mesh, u),
                report=SolveReport(iterations, history, False, lin_total,
                                   time.perf_counter() - start),
            )
        eta = max(FORCING_FLOOR, min(FORCING_FACTOR, FORCING_FACTOR * rsup))
        try:
            delta, lin_report = newton_step(
                mesh, problem, FemFunction(mesh, u), r, stiffness, quad, eta)
        except NoConvergence as exc:  # fall back to the best iterate
            logger.warning("newton: inner pcg stopped early, using best "
                           "iterate (%s)", exc)
            delta, lin_report = exc.best, exc.report
        lin_total += lin_report.iterations

        step = 1.0
        accepted = False
        while step >= opts.min_step:
            u_try = u + step * delta
            r_try = residual(u_try)
            rsup_try = float(np.abs(r_try).max())
            if rsup_try <= rsup:
                u, r, rsup = u_try, r_try, rsup_try
                accepted = True
                break
            step /= 2.0
        if not accepted:
            raise LineSearchStall(
                f"newton: line search stalled at residual {rsup:.3e}",
                best=FemFunction(mesh, u),
                report=SolveReport(iterations, history, False, lin_total,
                                   time.perf_counter() - start),
            )
        iterations += 1
        history.append(rsup)
        logger.info("iter %d resid %.6e lin_iters %d",
                    iterations, rsup, lin_report.iterations)

    return FemFunction(mesh, u), SolveReport(
        iterations, history, True, lin_total, time.perf_counter() - start)
