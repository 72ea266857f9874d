"""Norms, error measurement, barrier checks and convergence-rate extraction."""

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    QUADRATURE_WEIGHTS,
    FemFunction,
    _block_slices,
    _diffusion_per_triangle,
    _positive_areas,
    _stiffness_sums,
    quadrature_blocks,
    state_blocks,
)
from .problems import ManufacturedSolution
from .twogrid import prolongate

__all__ = [
    "ErrorRecord",
    "ConvergenceReport",
    "LinfReport",
    "AngleReport",
    "AnalysisError",
    "ZeroError",
    "BoundaryNotZero",
    "DegenerateDenominator",
    "energy_norm",
    "grad_l2_norm",
    "lp_norm",
    "error_norms",
    "estimate_eoc",
    "convergence_report",
    "linf_check",
    "check_angle_condition",
    "ladyzhenskaya_margin",
    "ladyzhenskaya_margin_formula",
    "twogrid_bound_ratio",
]

LINF_TOL = 1e-9
ANGLE_TOL_FACTOR = 1e-12  # scaled by the largest stiffness diagonal entry
DEGENERATE_L4 = 1e-14


class AnalysisError(Exception):
    pass


class ZeroError(AnalysisError):
    """A zero error makes the convergence rate undefined."""


class BoundaryNotZero(AnalysisError):
    pass


class DegenerateDenominator(AnalysisError):
    pass


@dataclass
class ErrorRecord:
    h: float
    n_dof: int
    err_energy: float
    err_l2: float
    err_l4: float
    err_linf_nodal: float


@dataclass
class ConvergenceReport:
    records: list
    eoc_energy: list = field(default_factory=list)
    eoc_l2: list = field(default_factory=list)
    eoc_l4: list = field(default_factory=list)


@dataclass
class LinfReport:
    passes: bool
    lower: float
    upper: float
    min_value: float
    max_value: float
    violations: list
    tolerance: float


@dataclass
class AngleReport:
    """Result of the stiffness off-diagonal sign audit."""

    worst_offdiag: float
    violating_pairs: list
    passes: bool
    tolerance: float


def energy_norm(mesh, diffusion, v):
    """|||v||| = sqrt(v^T A v) with the unconstrained stiffness matrix A.

    Summed element by element as int D |grad v|^2, exact for P1
    functions (piecewise-constant gradients); no matrix is assembled.
    """
    if v.mesh is not mesh:
        raise ValueError("v lives on a different mesh than the one given")
    scale = _diffusion_per_triangle(mesh, diffusion) * _positive_areas(mesh)
    total = 0.0
    for block in _block_slices(mesh):
        grad = np.einsum("mi,mid->md", v.values[mesh.triangles[block]],
                         mesh.gradients[block])
        total += float(scale[block] @ np.einsum("md,md->m", grad, grad))
    return math.sqrt(total)


def grad_l2_norm(v):
    """H1 seminorm ||grad v||_2 (unit diffusion energy norm)."""
    return energy_norm(v.mesh, {1: 1.0, 2: 1.0}, v)


def lp_norm(v, p):
    """L^p norm of a FemFunction, p in {2, 4}, by quadrature."""
    if p not in (2, 4):
        raise ValueError(f"p must be 2 or 4, got {p}")
    areas = _positive_areas(v.mesh)
    total = 0.0
    for block, _, values in state_blocks(v):
        power = values * values
        if p == 4:
            power *= power
        total += float(np.sum(areas[block, None] * QUADRATURE_WEIGHTS
                              * power))
    return total ** (1.0 / p)


def _manufactured_errors(diffusion, u_h, exact):
    mesh = u_h.mesh
    d = _diffusion_per_triangle(mesh, diffusion)
    areas = _positive_areas(mesh)
    e2 = e4 = een = 0.0
    for (block, points), (_, _, uh_q) in zip(quadrature_blocks(mesh),
                                             state_blocks(u_h)):
        w = areas[block, None] * QUADRATURE_WEIGHTS
        diff = exact.exact(points) - uh_q
        diff2 = diff * diff
        e2 += float(np.sum(w * diff2))
        e4 += float(np.sum(w * diff2 * diff2))
        uh_grad = np.einsum("mi,mid->md", u_h.values[mesh.triangles[block]],
                            mesh.gradients[block])
        gdiff = exact.exact_grad(points) - uh_grad[:, None, :]
        een += float(np.sum(d[block, None] * w
                            * np.sum(gdiff * gdiff, axis=-1)))
    linf = float(np.max(np.abs(exact.exact(mesh.vertices) - u_h.values)))
    return math.sqrt(een), math.sqrt(e2), e4 ** 0.25, linf


def error_norms(diffusion, u_h, exact):
    """Errors of u_h against a manufactured solution or a finer reference.

    With a ManufacturedSolution the exact fields are integrated block by
    block with the 7-point rule, the exact gradients (used directly, not
    interpolated) weighted by each triangle's diffusion.  With a reference
    FemFunction on a nested finer mesh, u_h is prolongated there and the
    norms are exact differences of two P1 functions.
    """
    if isinstance(exact, ManufacturedSolution):
        een, e2, e4, linf = _manufactured_errors(diffusion, u_h, exact)
    elif isinstance(exact, FemFunction):
        diff = prolongate(u_h, exact.mesh) - exact
        een = energy_norm(exact.mesh, diffusion, diff)
        e2 = lp_norm(diff, 2)
        e4 = lp_norm(diff, 4)
        linf = float(np.max(np.abs(diff.values)))
    else:
        raise TypeError(
            "exact must be a ManufacturedSolution or a reference FemFunction")
    return ErrorRecord(
        h=u_h.mesh.h,
        n_dof=len(u_h.mesh.interior_vertices),
        err_energy=een,
        err_l2=e2,
        err_l4=e4,
        err_linf_nodal=linf,
    )


def estimate_eoc(hs, errors):
    """Empirical orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    hs = [float(x) for x in hs]
    errors = [float(e) for e in errors]
    if len(hs) != len(errors) or len(hs) < 2:
        raise ValueError("need at least two (h, error) pairs")
    for i, h in enumerate(hs):
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"mesh size h[{i}] must be positive and "
                             f"finite, got {h:g}")
    for i, e in enumerate(errors):
        if not (math.isfinite(e) and e >= 0):
            raise ValueError(f"error[{i}] must be finite and nonnegative, "
                             f"got {e:g}")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")
    if any(e == 0.0 for e in errors):
        raise ZeroError("zero error: convergence rate undefined")
    return [math.log(e1 / e2) / math.log(h1 / h2)
            for (h1, e1), (h2, e2) in zip(zip(hs, errors),
                                          zip(hs[1:], errors[1:]))]


def convergence_report(records):
    """Bundle records (ordered by decreasing h) with per-norm EOC lists."""
    report = ConvergenceReport(records=list(records))
    if len(records) >= 2:
        hs = [r.h for r in records]
        report.eoc_energy = estimate_eoc(hs, [r.err_energy for r in records])
        report.eoc_l2 = estimate_eoc(hs, [r.err_l2 for r in records])
        report.eoc_l4 = estimate_eoc(hs, [r.err_l4 for r in records])
    return report


def linf_check(u_h, barriers, tol=LINF_TOL):
    """Verify that all nodal values lie inside the barrier interval; a
    value that is not (NaN included) is a violation."""
    lower, upper = barriers
    values = u_h.values
    bad = np.nonzero(~((values >= lower - tol) & (values <= upper + tol)))[0]
    return LinfReport(
        passes=bad.size == 0,
        lower=lower,
        upper=upper,
        min_value=float(values.min()),
        max_value=float(values.max()),
        violations=[int(i) for i in bad],
        tolerance=tol,
    )


def check_angle_condition(mesh, diffusion):
    """Audit the sign of the stiffness off-diagonal entries.

    The discrete maximum principle requires a(phi_i, phi_j) <= 0 for all
    i != j.  Entries above the tolerance (1e-12 times the largest diagonal
    entry) are reported as violating pairs.  Pure diagnostic: it reads the
    stiffness's vertex and edge sums and builds no matrix.
    """
    sums = _stiffness_sums(mesh, diffusion)
    diagonal, off = sums[:mesh.n_vertices], sums[mesh.n_vertices:]
    tol = ANGLE_TOL_FACTOR * float(diagonal.max())
    bad = off > tol
    lo, hi, _ = mesh.edges  # ordered by (lo, hi)
    return AngleReport(
        worst_offdiag=float(off.max()),
        violating_pairs=list(zip(lo[bad].tolist(), hi[bad].tolist())),
        passes=not bad.any(),
        tolerance=tol,
    )


def ladyzhenskaya_margin(v):
    """Slack in ||v||_4 <= C ||v||_2^a ||grad v||_2^b for an H^1_0 function.

    On the (2D) mesh the constants are C = 2^(1/4), a = b = 1/2; the margin
    must be nonnegative up to roundoff.  The 3D inequality is available as
    a pure formula via ladyzhenskaya_margin_formula.
    """
    if np.any(v.values[v.mesh.boundary_vertices] != 0.0):
        raise BoundaryNotZero("v must vanish on the boundary (H^1_0)")
    l2 = lp_norm(v, 2)
    l4 = lp_norm(v, 4)
    grad = grad_l2_norm(v)
    return ladyzhenskaya_margin_formula(l2, grad, l4, d=2)


def ladyzhenskaya_margin_formula(norm_l2, norm_grad, norm_l4, d,
                                 constant="lemma"):
    """Pure-formula margin C * l2^a * grad^b - l4 for d = 2 or 3.

    ``constant="lemma"`` uses 2^(1/4) (2D) or sqrt(2) (3D);
    ``constant="appendix"`` uses the sharper 3D alternative (4/3)^(3/8).
    """
    if d == 2:
        if constant != "lemma":
            raise ValueError("only the lemma constant exists in 2D")
        c, a, b = 2.0 ** 0.25, 0.5, 0.5
    elif d == 3:
        if constant == "lemma":
            c = math.sqrt(2.0)
        elif constant == "appendix":
            c = (4.0 / 3.0) ** 0.375
        else:
            raise ValueError(f"unknown constant tag {constant!r}")
        a, b = 0.25, 0.75
    else:
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    return c * norm_l2 ** a * norm_grad ** b - norm_l4


def twogrid_bound_ratio(u_h, u_coarse_prolonged, u_two_grid, diffusion):
    """Ratio |||u_h - u^h||| / ||u_h - u_H||_4^2 from the two-grid bound.

    A bounded ratio across level pairs is the empirical signature of the
    remainder estimate behind the algorithm.  Raises DegenerateDenominator
    when the coarse and fine solutions coincide to roundoff.
    """
    coarse_gap, two_grid_gap = u_h - u_coarse_prolonged, u_h - u_two_grid
    denom = lp_norm(coarse_gap, 4)
    if denom < DEGENERATE_L4:
        raise DegenerateDenominator(
            f"||u_h - u_H||_4 = {denom:.3e} is numerically zero")
    return energy_norm(u_h.mesh, diffusion, two_grid_gap) / denom ** 2
