"""Preconditioned conjugate gradients and damped Newton iteration."""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

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
    "pcg_solve",
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
    """Iteration budget exhausted; carries the best iterate seen."""

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
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    """What a solve did; ``wall_s`` is set by ``newton_solve`` only."""

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


def pcg_solve(a, rhs, tol=1e-10, max_iters=None, x0=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Stops when the recurrence residual satisfies ||rhs - A x||_2 <=
    tol * ||rhs||_2 and an explicit residual recomputation confirms it.
    Raises NoConvergence (carrying the best iterate) when the iteration
    budget runs out.
    """
    n = rhs.shape[0]
    if max_iters is None:
        max_iters = min(max(500, 2 * n), 100_000)
    minv = _jacobi_inverse(a)

    bnorm = float(np.linalg.norm(rhs))
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, [0.0], True, 0)
    r = rhs - a @ x
    rnorm = float(np.linalg.norm(r))
    history = [rnorm]
    if rnorm <= tol * bnorm:
        return x, SolveReport(0, history, True, 0)

    z = minv * r
    p = z.copy()
    rz = float(r @ z)
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
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x.copy()
        if rnorm <= tol * bnorm:
            true_r = rhs - a @ x
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= tol * bnorm:
                return x, SolveReport(k, history, True, k)
            # recurrence drifted: restart from the true residual
            r = true_r
            z = minv * r
            p = z.copy()
            rz = float(r @ z)
            continue
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NoConvergence(
        f"pcg: no convergence in {max_iters} iterations "
        f"(best residual {best_norm:.3e}, target {tol * bnorm:.3e})",
        best=best_x,
        report=SolveReport(max_iters, history, False, max_iters),
        last=x,
    )


def make_initial_guess(mesh, problem):
    """Zero coefficients with the Dirichlet data imposed on the boundary."""
    values = np.zeros(mesh.n_vertices)
    if problem.dirichlet is not None:
        values[mesh.boundary_vertices] = np.broadcast_to(
            np.asarray(problem.dirichlet(
                mesh.vertices[mesh.boundary_vertices]), dtype=float),
            (len(mesh.boundary_vertices),))
    return FemFunction(mesh, values)


def newton_solve(mesh, problem, initial=None, opts=None, quad=None):
    """Damped Newton iteration for the discrete semilinear system.

    The stiffness and load are assembled once; every iteration assembles
    the reaction Jacobian at the current state, solves the constrained
    correction system with Jacobi-PCG at the inexact-Newton forcing
    tolerance, and accepts the first step-halving candidate that does not
    increase the residual sup-norm.  Dirichlet rows are held exactly:
    ``initial`` must carry the boundary data (the default initial guess
    does).

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

    stiffness = assemble_stiffness(mesh, problem.diffusion)
    load = assemble_load(mesh, problem, quad)
    d1 = problem.nonlinearity.d1

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
        jac = stiffness + assemble_reaction_jacobian(
            mesh, FemFunction(mesh, u), d1, quad)
        jac_c, rhs_c = apply_dirichlet(jac, -r, mesh.boundary_vertices)
        eta = max(FORCING_FLOOR, min(FORCING_FACTOR, FORCING_FACTOR * rsup))
        try:
            delta, lin_report = pcg_solve(jac_c, rhs_c, tol=eta)
        except NoConvergence as exc:  # fall back to the best iterate
            logger.warning("newton: inner pcg hit its budget, using best "
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
