"""Preconditioned conjugate gradients and damped Newton iteration."""

import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (
    FemFunction,
    _free_jacobian,
    _free_load,
    _free_residual,
    _free_stiffness,
)

__all__ = [
    "NewtonOptions",
    "SolveReport",
    "SolverError",
    "NoConvergence",
    "LineSearchStall",
    "CoarseHierarchy",
    "VCycle",
    "pcg_solve",
    "newton_step",
    "newton_solve",
    "make_initial_guess",
]

logger = logging.getLogger(__name__)

# Inexact-Newton forcing: linear solves run at relative tolerance
# FORCING_FACTOR * (current nonlinear residual), capped at FORCING_FACTOR
# and floored at FORCING_FLOOR.  It is raised to at least
# min(FORCING_FACTOR, TARGET_SHARE * target / ||r||_2): a correction whose
# linear residual is a tenth of the Newton target in the 2-norm, and so in
# the sup-norm, is as good as the outer iteration can use.
FORCING_FACTOR = 1e-2
FORCING_FLOOR = 1e-12
TARGET_SHARE = 0.1
# A Newton step that cuts the residual sup-norm at least this many times
# leaves the Jacobian close enough to keep its V-cycle's coarse hierarchy
# for the next step; after a slower step the hierarchy is rebuilt.
HIERARCHY_REUSE_CUT = 10.0
# the line search halves the Newton step down to this fraction of it
MIN_STEP = 2.0 ** -10
# Damping of the V-cycle's l1-Jacobi smoother.  With W = 1 / sum_j |a_ij|
# every row of W A has absolute sum 1, so by Gershgorin lambda_max(W A)
# <= 1 for any symmetric A, and SMOOTHER_WEIGHT * W keeps omega * lambda
# below 2: the smoother converges in the energy norm and the V(1,1)-cycle
# stays SPD for any SPD matrix (Baker, Falgout, Kolev and Yang, SISC
# 2011).  8/5 = 2 / (1/4 + 1) is the degree-1 Chebyshev weight for
# [1/4, 1], the part of the spectrum a 2D full-coarsening cycle leaves to
# the smoother; it lowers the smoothing factor from 3/4 (W alone, which is
# Jacobi damped by 1/2 on the interior stiffness rows) to 3/5.
SMOOTHER_WEIGHT = 8.0 / 5.0


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
    """Damping reduced the step below MIN_STEP without progress."""

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


@dataclass
class NewtonOptions:
    """Damped Newton controls: sup-norm tolerances, the iteration cap and
    the relative tolerance of the energy stopping test (``None``: the
    sup-norm test only; see :func:`newton_solve`)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_iters: int = 40
    energy_rtol: float | None = None

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            # an infinite tolerance stops Newton before its first step
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.energy_rtol is not None and not 0 < self.energy_rtol < np.inf:
            raise ValueError("energy_rtol must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveReport:
    """What a solve did; ``wall_s``, the wall time of the whole call, is
    set by ``newton_solve`` and ``twogrid.linearized_solve`` only.

    ``newton_solve`` also lists, per Newton step, the PCG iterations of its
    correction (``step_linear_iters``, summing to ``linear_iters_total``),
    whether the step built a new coarse hierarchy for its V-cycle
    (``step_new_hierarchy``; never on a mesh without a ``parent``, and
    not on a step that ran on its parent level's V-cycle in
    ``newton_levels``) and the Newton decrement (-delta . r)^(1/2) of its
    correction (``step_decrements``), and names the test that stopped a
    converged solve in ``stopped_by``: ``"residual"`` or ``"energy"``.
    ``residual_history`` holds the residual sup-norm at the start and
    after every step, except after the final correction of an energy
    stop, which is taken without one: that history has one entry per
    step."""

    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
    linear_iters_total: int = 0
    wall_s: float = 0.0
    step_linear_iters: list = field(default_factory=list)
    step_new_hierarchy: list = field(default_factory=list)
    step_decrements: list = field(default_factory=list)
    stopped_by: str | None = None


def _jacobi_inverse(a):
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolverError("matrix has non-positive diagonal; not SPD")
    return 1.0 / diag


class _Level(NamedTuple):
    matrix: sp.csr_matrix        # the level's operator A
    weights: np.ndarray          # smoother, SMOOTHER_WEIGHT / sum_j |a_ij|
    prolongation: sp.csr_matrix  # P0 from the next coarser level
    restriction: sp.csc_matrix   # P0^T, a view of P0's arrays


class CoarseHierarchy:
    """The coarse part of a :class:`VCycle` at a Newton state: on every
    ancestor of the state's mesh, the problem's Newton matrix K + R at
    the state injected onto the ancestor's vertices (a child numbers its
    parent's vertices first), and the LU factors of the root's.

    Each level is rediscretized on the ancestor's free vertices by
    ``assembly._free_jacobian``, the assembler of the finest level.  The
    hierarchy holds no fine-level data, so keeping it between Newton
    steps costs only the coarse operators.
    """

    def __init__(self, state, problem):
        mesh = state.mesh
        if mesh.parent is None:
            raise ValueError("a root mesh has no coarse levels")
        self.levels = []
        while mesh.parent is not None:
            mesh = mesh.parent
            a = _free_jacobian(
                FemFunction(mesh, state.values[:mesh.n_vertices]), problem)
            if mesh.parent is not None:
                self.levels.append(_make_level(mesh, a))
        self.root_solve = splu(a.tocsc()).solve


def _make_level(mesh, a):
    """A V-cycle level: ``a`` on ``mesh``'s free vertices, its damped
    l1-Jacobi weights and the transfers from the parent's free vertices."""
    abs_a = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr),
                          shape=a.shape)
    weights = SMOOTHER_WEIGHT / (abs_a @ np.ones(a.shape[0]))
    # the transpose view is made once per level: making it takes 17-75 us,
    # longer than the restriction itself on meshes up to n = 64
    p0 = mesh.interior_prolongation
    return _Level(a, weights, p0, p0.T)


class VCycle:
    """Symmetric multigrid V(1,1)-cycle on a mesh's refinement chain.

    ``matrix`` is an SPD system on ``mesh.interior_vertices``, in
    ``mesh.free_pattern`` as :func:`newton_step` assembles it; ``mesh``
    has a ``parent``.  The coarser levels and the root come from
    ``coarse``, a :class:`CoarseHierarchy` on ``mesh``, each level's
    operator on its mesh's interior vertices, with transfers P0 =
    ``Mesh.interior_prolongation`` and restrictions its transpose, a CSC
    view of the same arrays.  Every level smooths once before and
    once after its coarse correction with l1-Jacobi over-relaxed by
    ``SMOOTHER_WEIGHT`` = 8/5, which still converges for any SPD matrix,
    and the root of the chain is solved exactly.  Calling the cycle on a
    residual applies an SPD approximation of the inverse, the hierarchy's
    operators being SPD where b' >= 0; a hierarchy built at an earlier
    Newton state makes it one of a nearby operator's inverse.
    """

    def __init__(self, mesh, matrix, coarse):
        self.levels = [_make_level(mesh, matrix.tocsr())] + coarse.levels
        self.root_solve = coarse.root_solve

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
    if not np.isfinite(rnorm):
        raise SolverError(f"pcg: right-hand side is not finite ({rnorm})")
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
    """A copy of ``values`` (default zero) with the Dirichlet data imposed
    on the boundary: g, or zero when the problem has none."""
    values = (np.zeros(mesh.n_vertices) if values is None
              else np.array(values, dtype=float))
    boundary = mesh.boundary_vertices
    values[boundary] = (0.0 if problem.dirichlet is None else np.asarray(
        problem.dirichlet(mesh.vertices[boundary]), dtype=float))
    return FemFunction(mesh, values)


def newton_step(problem, state, residual, tol, coarse=None):
    """One Newton correction: PCG on J delta = -residual.

    J = K + R(state), the stiffness plus the reaction Jacobian at
    ``state``, is assembled on the free vertices only: the reaction's
    element matrices are scattered straight into ``Mesh.free_pattern``
    and the stiffness's free block, built once per mesh and diffusion, is
    added to them.  PCG runs to relative tolerance ``tol``,
    preconditioned by the V-cycle on the mesh's refinement chain, or by
    Jacobi on a mesh without a ``parent``.  The V-cycle's coarse levels
    come from ``coarse``, a :class:`CoarseHierarchy` of an earlier step on
    the mesh; without one the step builds its own at ``state``.  The fine
    matrix dies with the step.  Returns
    (delta, SolveReport of the linear solve), delta zero on the boundary;
    NoConvergence propagates, its ``best`` and ``last`` iterates scattered
    the same way.
    """
    delta, report, _ = _newton_step(problem, state, residual, tol, coarse)
    return delta, report


def _newton_step(problem, state, residual, tol, coarse):
    """:func:`newton_step`, also returning the step's V-cycle, which holds
    the fine matrix (``None`` on a mesh without a ``parent``)."""
    mesh = state.mesh
    system = _free_jacobian(state, problem)
    rhs = -residual[mesh.interior_vertices]
    preconditioner = None
    if mesh.parent is not None:
        preconditioner = VCycle(mesh, system, coarse or CoarseHierarchy(
            state, problem))

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
    return scatter(x), report, preconditioner


def newton_solve(mesh, problem, initial=None, opts=None, _cycles=None):
    """Damped Newton iteration for the discrete semilinear system.

    The load, with the Dirichlet lift on the free rows, is assembled
    once, and the stiffness once per mesh and diffusion; every iteration
    takes a :func:`newton_step` at the current state with the
    inexact-Newton forcing tolerance, falls back to PCG's best iterate
    when the step's solve stops early, and accepts the first step-halving
    candidate that does not increase the residual sup-norm.  The
    iteration starts from ``initial`` (default zero) with the Dirichlet
    data imposed on the boundary (:func:`make_initial_guess`), and every
    step holds those rows exactly.

    The forcing never asks PCG for a linear residual below a tenth of the
    Newton target (``TARGET_SHARE``).  A step that cuts the residual
    sup-norm at least ``HIERARCHY_REUSE_CUT`` times hands its V-cycle's
    coarse levels, a :class:`CoarseHierarchy` or a cycle handed in through
    ``_cycles``, to the next step; any slower step drops them, and the
    next step builds a new hierarchy at its own state.  Only the coarse
    levels are kept between steps: a step's fine matrix dies before the
    next step assembles its own.

    The iteration stops when the residual sup-norm is at most
    max(``abs_tol``, ``rel_tol`` * initial sup-norm), or, with
    ``opts.energy_rtol`` set, as soon as the energy test passes
    (Deuflhard, "Newton Methods for Nonlinear Problems", 2004, ch. 2).
    Each correction delta at residual r has the Newton decrement
    eps = (-delta . r)^(1/2), its length in the Jacobian's energy norm.
    When the previous step was taken in full and the contraction
    theta = eps_k / eps_(k-1) is below 1, the error left in u + delta is
    estimated by theta / (1 - theta) * eps_k, and the test passes when
    that is at most ``energy_rtol`` * |||u + delta|||, where
    |||v||| = (v_f . K_ff v_f)^(1/2) is the stiffness energy norm on the
    free vertices.  The correction is then taken in full and ends the
    solve without a residual at the new iterate.  The test needs two
    decrements, so it never stops a solve after a single step.

    ``_cycles``, private to :func:`~twogridfem.twogrid.newton_levels`, is
    a list holding at most one V-cycle of a solve on ``mesh.parent``: the
    solve takes it out as its first step's coarse hierarchy (a
    :class:`VCycle` has the ``levels`` and ``root_solve`` of one) and
    leaves its own last step's V-cycle in its place.

    Returns (solution, SolveReport); raises NoConvergence (at once on a
    non-finite initial residual) or LineSearchStall with the best iterate
    attached.  Every report records the wall time of the whole call in
    ``wall_s``, the per-step PCG iterations, hierarchy builds and Newton
    decrements, and, once converged, which test stopped the iteration.
    """
    start = time.perf_counter()
    opts = opts or NewtonOptions()
    if initial is not None and initial.mesh is not mesh:
        raise ValueError("initial guess lives on a different mesh")
    initial = make_initial_guess(
        mesh, problem, None if initial is None else initial.values)

    load = _free_load(initial, problem)

    def residual(values):
        return _free_residual(FemFunction(mesh, values), problem, load)

    u = initial.values
    r = residual(u)
    rsup = float(np.abs(r).max())
    history = [rsup]
    target = max(opts.abs_tol, opts.rel_tol * rsup)
    step_iters = []
    step_built = []
    decrements = []
    previous_full = False  # the line search took the last step in full
    coarse = _cycles.pop() if _cycles else None
    cycle = None
    iterations = 0

    def report(stopped_by=None):
        return SolveReport(iterations, history, stopped_by is not None,
                           sum(step_iters), time.perf_counter() - start,
                           step_iters, step_built, decrements, stopped_by)

    def converged(stopped_by):
        if _cycles is not None and cycle is not None:
            _cycles.append(cycle)
        return FemFunction(mesh, u), report(stopped_by)

    def energy_converged(delta):
        if not (previous_full and decrements[-1] < decrements[-2]):
            return False
        theta = decrements[-1] / decrements[-2]
        free = mesh.interior_vertices
        u_f = u[free] + delta[free]
        norm = math.sqrt(float(
            u_f @ (_free_stiffness(mesh, problem.diffusion) @ u_f)))
        return theta / (1.0 - theta) * decrements[-1] <= (
            opts.energy_rtol * norm)

    if not np.isfinite(rsup):
        raise NoConvergence(f"newton: initial residual {rsup} is not finite",
                            best=initial, report=report())
    while rsup > target:
        if iterations >= opts.max_iters:
            raise NoConvergence(
                f"newton: residual {rsup:.3e} above {target:.3e} after "
                f"{iterations} iterations",
                best=FemFunction(mesh, u), report=report())
        # the boundary rows of r are zero: its 2-norm is PCG's ||rhs||
        eta = max(FORCING_FLOOR, min(FORCING_FACTOR, max(
            FORCING_FACTOR * rsup,
            TARGET_SHARE * target / float(np.linalg.norm(r)))))
        state = FemFunction(mesh, u)
        # one fine matrix at a time: the last step's dies here
        cycle = None
        step_built.append(mesh.parent is not None and coarse is None)
        if step_built[-1]:
            coarse = CoarseHierarchy(state, problem)
        try:
            delta, lin_report, cycle = _newton_step(problem, state, r, eta,
                                                    coarse)
        except NoConvergence as exc:  # fall back to the best iterate
            logger.warning("newton: inner pcg stopped early, using best "
                           "iterate (%s)", exc)
            delta, lin_report = exc.best, exc.report
        step_iters.append(lin_report.iterations)
        # the boundary entries of delta are zero
        decrements.append(math.sqrt(max(-float(delta @ r), 0.0)))
        if opts.energy_rtol is not None and energy_converged(delta):
            u = u + delta
            iterations += 1
            logger.info("iter %d energy stop lin_iters %d",
                        iterations, lin_report.iterations)
            return converged("energy")

        step = 1.0
        accepted = False
        while step >= MIN_STEP:
            u_try = u + step * delta
            r_try = residual(u_try)
            rsup_try = float(np.abs(r_try).max())
            if rsup_try <= rsup:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            raise LineSearchStall(
                f"newton: line search stalled at residual {rsup:.3e}",
                best=FemFunction(mesh, u), report=report())
        if rsup_try * HIERARCHY_REUSE_CUT > rsup:
            coarse = None
        previous_full = step == 1.0
        u, r, rsup = u_try, r_try, rsup_try
        iterations += 1
        history.append(rsup)
        logger.info("iter %d resid %.6e lin_iters %d",
                    iterations, rsup, lin_report.iterations)

    return converged("residual")
