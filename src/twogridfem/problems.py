"""PDE data: diffusion, nonlinearities, sources, built-in problem instances.

Nonlinearity callbacks are numpy-vectorized: they accept coordinate arrays
of shape (..., 2) and state arrays of shape (...) and return arrays of
shape (...).  All problem data is immutable and the callbacks must be pure.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "Nonlinearity",
    "PointSource",
    "Problem",
    "ManufacturedSolution",
    "ProblemError",
    "NoFiniteBarrier",
    "UnknownProblem",
    "compute_barriers",
    "builtin_problem",
    "manufactured_interface_problem",
]

DEFAULT_DOMAIN = (-1.0, 1.0, -1.0, 1.0)
DEFAULT_BOX = (-0.5, 0.5, -0.5, 0.5)


class ProblemError(Exception):
    pass


class NoFiniteBarrier(ProblemError):
    """The source-folded nonlinearity admits no finite sign-change constants."""


class UnknownProblem(ProblemError):
    pass


@dataclass(eq=False)
class Nonlinearity:
    """Reaction term b(x, xi) with derivatives and sign-change constants.

    ``barrier_alpha <= barrier_beta`` are constants with b(x, xi) >= 0 for
    xi >= barrier_beta and b(x, xi) <= 0 for xi <= barrier_alpha, for a.e.
    x.
    """

    eval: callable
    d1: callable
    d2: callable
    barrier_alpha: float
    barrier_beta: float

    def __post_init__(self):
        if self.barrier_alpha > self.barrier_beta:
            raise ValueError("barrier_alpha must not exceed barrier_beta")


@dataclass(frozen=True)
class PointSource:
    location: tuple
    magnitude: float


@dataclass(eq=False)
class Problem:
    """Full problem data for -div(D grad u) + b(x, u) = loads.

    diffusion maps region tags {1, 2} to positive scalars.  The volume
    source is a callback with caller-supplied sup-norm bound; a point
    source is a separate nodal descriptor (delta loads have no L-infinity
    bound, so barrier statements do not apply to them).  ``domain`` and
    ``interface_box`` record the geometry the callbacks were built for.
    """

    diffusion: dict
    nonlinearity: Nonlinearity
    source: callable = None
    source_bound: float = 0.0
    point_source: PointSource = None
    interface_flux: callable = None
    dirichlet: callable = None
    dirichlet_bounds: tuple = (0.0, 0.0)
    domain: tuple = DEFAULT_DOMAIN
    interface_box: tuple = DEFAULT_BOX
    name: str = ""

    def __post_init__(self):
        d = {int(k): float(v) for k, v in self.diffusion.items()}
        if min(d.values()) <= 0:
            raise ValueError("diffusion must be positive in every region")
        self.diffusion = d


@dataclass(eq=False)
class ManufacturedSolution:
    """Closed-form solution used by convergence studies.

    ``exact(points)`` evaluates u, ``exact_grad(points, region)`` the
    per-region gradient (the gradient jumps across the interface), and
    ``source`` is the volume load that makes u solve the PDE.
    """

    exact: callable
    exact_grad: callable
    source: callable


def _sample_points(problem, count, seed):
    """Deterministic x-samples covering both regions of the domain."""
    xmin, xmax, ymin, ymax = problem.domain
    rng = np.random.default_rng(seed)
    pts = np.column_stack([
        rng.uniform(xmin, xmax, count),
        rng.uniform(ymin, ymax, count),
    ])
    extra = [((xmin + xmax) / 2, (ymin + ymax) / 2),
             (xmin + 0.01 * (xmax - xmin), ymin + 0.01 * (ymax - ymin))]
    if problem.interface_box is not None:
        bx0, bx1, by0, by1 = problem.interface_box
        extra.append(((bx0 + bx1) / 2, (by0 + by1) / 2))
    return np.vstack([pts, np.asarray(extra)])


_SEARCH_LIMIT = 1e9


def _smallest_nonneg_point(fn, start):
    """Smallest xi >= start with fn(xi) >= 0 (fn assumed to change sign once)."""
    if fn(start) >= 0:
        return start
    lo, step = start, 1.0
    while True:
        hi = lo + step
        if hi - start > _SEARCH_LIMIT:
            raise NoFiniteBarrier(
                "no finite upper sign-change constant for the folded "
                "nonlinearity")
        if fn(hi) >= 0:
            return brentq(fn, lo, hi, xtol=1e-13)
        lo, step = hi, step * 2.0


def _largest_nonpos_point(fn, start, cap):
    """Largest xi with fn <= 0 on (-inf, xi]; searches from ``start``."""
    if fn(start) > 0:
        # even the declared constant fails once the source is folded in:
        # move down until the condition holds again
        hi, step = start, 1.0
        while True:
            lo = hi - step
            if start - lo > _SEARCH_LIMIT:
                raise NoFiniteBarrier(
                    "no finite lower sign-change constant for the folded "
                    "nonlinearity")
            if fn(lo) <= 0:
                return brentq(fn, lo, hi, xtol=1e-13)
            hi, step = lo, step * 2.0
    # condition holds at start; push up toward the sign change, but never
    # past the upper constant
    lo, step = start, 1.0
    while True:
        hi = min(lo + step, cap)
        if fn(hi) > 0:
            return brentq(fn, lo, hi, xtol=1e-13)
        if hi >= cap:
            return cap
        lo, step = hi, step * 2.0


def compute_barriers(problem, samples=128, seed=0):
    """Solution bounds (lower, upper) from the sign structure of b.

    The volume source is folded into the nonlinearity
    (b~(x, xi) = b(x, xi) - f(x)) before locating its sign-change
    constants; the Dirichlet bounds then enter through
    upper = max(beta~, sup g) and lower = min(alpha~, inf g).
    Interface-flux loads are not folded (the bound statements do not
    cover them), and point sources have no finite fold at all.
    """
    nl = problem.nonlinearity
    if problem.point_source is not None:
        raise NoFiniteBarrier(
            "point sources are not essentially bounded; no finite barriers")
    g_lo, g_hi = problem.dirichlet_bounds

    if problem.source is None and not problem.source_bound:
        alpha_t, beta_t = nl.barrier_alpha, nl.barrier_beta
    else:
        x = _sample_points(problem, samples, seed)
        if problem.source is not None:
            fvals = np.asarray(problem.source(x), dtype=float)
            lo_shift, hi_shift = fvals, fvals
        else:
            bound = float(problem.source_bound)
            lo_shift, hi_shift = -bound, bound

        def folded_min(xi):
            return float(np.min(nl.eval(x, np.full(len(x), xi)) - hi_shift))

        def folded_max(xi):
            return float(np.max(nl.eval(x, np.full(len(x), xi)) - lo_shift))

        beta_t = _smallest_nonneg_point(folded_min, nl.barrier_beta)
        alpha_t = _largest_nonpos_point(folded_max, nl.barrier_alpha, beta_t)
    return min(alpha_t, g_lo), max(beta_t, g_hi)


def _power_nonlinearity(exponent):
    p = int(exponent)

    def b(x, xi):
        return xi ** p

    def d1(x, xi):
        return p * xi ** (p - 1)

    def d2(x, xi):
        return p * (p - 1) * xi ** (p - 2)

    return Nonlinearity(b, d1, d2, 0.0, 0.0)


def _inside_box(box):
    bx0, bx1, by0, by1 = box

    def inside(x):
        return ((x[..., 0] >= bx0) & (x[..., 0] <= bx1)
                & (x[..., 1] >= by0) & (x[..., 1] <= by1))

    return inside


def builtin_problem(name, **params):
    """Construct one of the built-in problem instances.

    power11: D = (1000 inside, 1 outside), point load 1000 at the origin,
        b(xi) = xi^11.
    sinh_pbe: b(x, xi) = kappa2(x) sinh(xi) with kappa2 = 0 inside the box,
        constant interface-flux load.
    linear_reaction: b(xi) = c xi with c >= 0, constant volume source.
    zero_reaction: pure diffusion with a constant volume source.
    """
    domain = params.pop("domain", DEFAULT_DOMAIN)
    box = params.pop("interface_box", DEFAULT_BOX)

    if name == "power11":
        d_in = float(params.pop("d_inside", 1000.0))
        d_out = float(params.pop("d_outside", 1.0))
        magnitude = float(params.pop("magnitude", 1000.0))
        location = params.pop("location", (0.0, 0.0))
        _reject_extra(name, params)
        return Problem(
            diffusion={1: d_in, 2: d_out},
            nonlinearity=_power_nonlinearity(11),
            point_source=PointSource(tuple(location), magnitude),
            domain=domain, interface_box=box, name=name,
        )

    if name == "sinh_pbe":
        kappa2 = float(params.pop("kappa2", 1.0))
        d_in = float(params.pop("d_inside", 2.0))
        d_out = float(params.pop("d_outside", 80.0))
        g_flux = float(params.pop("g_flux", 1.0))
        _reject_extra(name, params)
        if kappa2 < 0:
            raise ValueError("kappa2 must be nonnegative")
        inside = _inside_box(box)

        def kap(x):
            return np.where(inside(x), 0.0, kappa2)

        nl = Nonlinearity(
            eval=lambda x, xi: kap(x) * np.sinh(xi),
            d1=lambda x, xi: kap(x) * np.cosh(xi),
            d2=lambda x, xi: kap(x) * np.sinh(xi),
            barrier_alpha=0.0, barrier_beta=0.0,
        )
        return Problem(
            diffusion={1: d_in, 2: d_out},
            nonlinearity=nl,
            interface_flux=lambda x: np.full(x.shape[:-1], g_flux),
            domain=domain, interface_box=box, name=name,
        )

    if name in ("linear_reaction", "zero_reaction"):
        c = float(params.pop("c", 1.0)) if name == "linear_reaction" else 0.0
        f = float(params.pop("f", 1.0))
        d_in = float(params.pop("d_inside", 1.0))
        d_out = float(params.pop("d_outside", 1.0))
        _reject_extra(name, params)
        if c < 0:
            raise ValueError("reaction coefficient c must be nonnegative")
        nl = Nonlinearity(
            eval=lambda x, xi: c * xi,
            d1=lambda x, xi: np.full(np.shape(xi), c),
            d2=lambda x, xi: np.zeros(np.shape(xi)),
            barrier_alpha=0.0, barrier_beta=0.0,
        )
        return Problem(
            diffusion={1: d_in, 2: d_out},
            nonlinearity=nl,
            source=lambda x: np.full(x.shape[:-1], f),
            source_bound=abs(f),
            domain=domain, interface_box=box, name=name,
        )

    raise UnknownProblem(f"no built-in problem named {name!r}")


def _reject_extra(name, params):
    if params:
        raise UnknownProblem(
            f"unknown parameters for {name}: {sorted(params)}")


def manufactured_interface_problem(d1, d2):
    """Exact-solution problem on (-1,1)^2 with the interface on x = 0.

    The solution is u(x, y) = w(x) sin(pi y) with w piecewise
    linear-plus-sine: continuous at 0, with D w' continuous at 0 and
    w(+-1) = 0, so u carries a genuine gradient jump across the interface
    while satisfying both jump conditions.  The reaction is b(xi) = xi^3.
    The construction is validated at build time to 1e-12.
    """
    d1 = float(d1)
    d2 = float(d2)
    if d1 <= 0 or d2 <= 0:
        raise ValueError("diffusion coefficients must be positive")
    pi = np.pi
    flux = 1.0  # common value of D w' at the interface
    # w_left = (1 + x) + a_l sin(pi x), w_right = (1 - x) + a_r sin(pi x)
    a_l = (flux / d1 - 1.0) / pi
    a_r = (flux / d2 + 1.0) / pi

    def w(x, left):
        if left:
            return (1.0 + x) + a_l * np.sin(pi * x)
        return (1.0 - x) + a_r * np.sin(pi * x)

    def w_prime(x, left):
        if left:
            return 1.0 + a_l * pi * np.cos(pi * x)
        return -1.0 + a_r * pi * np.cos(pi * x)

    cont = abs(w(0.0, True) - w(0.0, False))
    flux_jump = abs(d1 * w_prime(0.0, True) - d2 * w_prime(0.0, False))
    if cont > 1e-12 or flux_jump > 1e-12:
        raise RuntimeError(
            f"manufactured construction failed: [u]={cont:g}, "
            f"[D du/dn]={flux_jump:g}")

    def w_any(x):
        return np.where(x < 0.0, w(x, True), w(x, False))

    def exact(points):
        x, y = points[..., 0], points[..., 1]
        return w_any(x) * np.sin(pi * y)

    def exact_grad(points, region):
        x, y = points[..., 0], points[..., 1]
        left = region == 1
        gx = w_prime(x, left) * np.sin(pi * y)
        gy = pi * w(x, left) * np.cos(pi * y)
        return np.stack([gx, gy], axis=-1)

    nl = _power_nonlinearity(3)

    def source(points):
        x, y = points[..., 0], points[..., 1]
        dv = np.where(x < 0.0, d1, d2)
        av = np.where(x < 0.0, a_l, a_r)
        u = w_any(x) * np.sin(pi * y)
        return (dv * pi ** 2 * (av * np.sin(pi * x) + w_any(x))
                * np.sin(pi * y) + u ** 3)

    # sup-norm estimate of f on a dense grid (metadata for barrier checks)
    gx = np.linspace(-1.0, 1.0, 201)
    gpts = np.stack(np.meshgrid(gx, gx, indexing="xy"), axis=-1)
    f_bound = float(np.max(np.abs(source(gpts)))) * 1.01

    problem = Problem(
        diffusion={1: d1, 2: d2},
        nonlinearity=nl,
        source=source,
        source_bound=f_bound,
        domain=(-1.0, 1.0, -1.0, 1.0),
        interface_box=(-1.0, 0.0, -1.0, 1.0),
        name="manufactured",
    )
    solution = ManufacturedSolution(
        exact=exact, exact_grad=exact_grad, source=source)
    return problem, solution
