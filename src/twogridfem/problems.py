"""PDE data: diffusion, nonlinearities, sources, built-in problem instances.

Nonlinearity callbacks are numpy-vectorized: they accept coordinate arrays
of shape (..., 2) and state arrays of shape (...) and return arrays of
shape (...).  All problem data is immutable and the callbacks must be pure
and pointwise: assembly calls them, and the error norms call a
manufactured solution's ``exact`` and ``exact_grad``, on one block of
points at a time.  Callbacks should write integer powers as products:
numpy's ``**`` with an integer exponent calls libm ``pow``, which is about
20x slower on a negative base.
"""

import numbers
from dataclasses import dataclass

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
    "BUILTIN_PROBLEMS",
    "compute_barriers",
    "builtin_problem",
    "manufactured_interface_problem",
]

DEFAULT_DOMAIN = (-1.0, 1.0, -1.0, 1.0)
DEFAULT_BOX = (-0.5, 0.5, -0.5, 0.5)

# the names builtin_problem constructs
BUILTIN_PROBLEMS = ("power11", "sinh_pbe", "linear_reaction", "zero_reaction")


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
        if np.isnan(self.barrier_alpha) or np.isnan(self.barrier_beta):
            raise ValueError("barrier_alpha and barrier_beta must not be NaN")
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
    source is a pointwise callback; a point source is a separate nodal
    descriptor (delta loads have no L-infinity bound, so barrier
    statements do not apply to them).  ``dirichlet_bounds`` = (inf g,
    sup g) is read by ``compute_barriers`` only, and only when
    ``dirichlet`` is set; without ``dirichlet`` the data is 0.
    ``domain`` and ``interface_box`` record the geometry the callbacks
    were built for.
    """

    diffusion: dict
    nonlinearity: Nonlinearity
    source: callable = None
    point_source: PointSource = None
    interface_flux: callable = None
    dirichlet: callable = None
    dirichlet_bounds: tuple = None
    domain: tuple = DEFAULT_DOMAIN
    interface_box: tuple = DEFAULT_BOX
    name: str = ""

    def __post_init__(self):
        d = {int(k): float(v) for k, v in self.diffusion.items()}
        if not d or not all(np.isfinite(v) and v > 0 for v in d.values()):
            raise ValueError(
                "diffusion must be finite and positive in every region")
        self.diffusion = d


@dataclass(eq=False)
class ManufacturedSolution:
    """Closed-form solution used by convergence studies.

    ``exact(points)`` evaluates u and ``exact_grad(points)`` its gradient;
    the volume load that makes u solve the PDE is the problem's
    ``source``.  Both must be pointwise: ``error_norms`` passes one block
    of quadrature points (B, 7, 2) at a time.  The gradient jumps across
    the interface, and every quadrature point lies strictly inside a
    triangle of a mesh that resolves the interface, so ``exact_grad``
    picks the side from the point alone.
    """

    exact: callable
    exact_grad: callable


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
BARRIER_SAMPLES = 128  # compute_barriers samples the source at this
BARRIER_SEED = 0       # many random points, drawn with this seed


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


def compute_barriers(problem):
    """Solution bounds (lower, upper) from the sign structure of b.

    The volume source is folded into the nonlinearity
    (b~(x, xi) = b(x, xi) - f(x)) before locating its sign-change
    constants, sampled at ``BARRIER_SAMPLES`` points; without a source
    they are the nonlinearity's own.  The Dirichlet bounds then enter
    through upper = max(beta~, sup g) and lower = min(alpha~, inf g): a
    problem with ``dirichlet`` data must declare ``dirichlet_bounds``,
    and one without has g = 0.  Interface-flux loads are not folded (the
    bound statements do not cover them), and point sources have no finite
    fold at all.
    """
    nl = problem.nonlinearity
    if problem.point_source is not None:
        raise NoFiniteBarrier(
            "point sources are not essentially bounded; no finite barriers")
    if problem.dirichlet is None:
        g_lo = g_hi = 0.0
    elif problem.dirichlet_bounds is None:
        raise ProblemError("dirichlet_bounds (inf g, sup g) must be given "
                           "with dirichlet data")
    else:
        g_lo, g_hi = problem.dirichlet_bounds

    if problem.source is None:
        alpha_t, beta_t = nl.barrier_alpha, nl.barrier_beta
    else:
        x = _sample_points(problem, BARRIER_SAMPLES, BARRIER_SEED)
        fvals = np.asarray(problem.source(x), dtype=float)

        def folded_min(xi):
            return float(np.min(nl.eval(x, np.full(len(x), xi)) - fvals))

        def folded_max(xi):
            return float(np.max(nl.eval(x, np.full(len(x), xi)) - fvals))

        beta_t = _smallest_nonneg_point(folded_min, nl.barrier_beta)
        alpha_t = _largest_nonpos_point(folded_max, nl.barrier_alpha, beta_t)
    return min(alpha_t, g_lo), max(beta_t, g_hi)


def _integer_power(xi, k):
    """xi ** k for an integer k >= 0, by repeated squaring; xi itself for
    k = 1."""
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    result = None
    while True:
        if k & 1:
            result = xi if result is None else result * xi
        k >>= 1
        if not k:
            return np.ones_like(xi) if result is None else result
        xi = xi * xi


def _power_nonlinearity(exponent):
    """b(xi) = xi^p for an integer p >= 2, with its two derivatives."""
    if not isinstance(exponent, numbers.Integral) or exponent < 2:
        raise ValueError(f"exponent must be an integer >= 2, got {exponent!r}")
    p = int(exponent)

    def b(x, xi):
        return _integer_power(xi, p)

    def d1(x, xi):
        return p * _integer_power(xi, p - 1)

    def d2(x, xi):
        return p * (p - 1) * _integer_power(xi, p - 2)

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
        d_in = _number("d_inside", params.pop("d_inside", 1000.0))
        d_out = _number("d_outside", params.pop("d_outside", 1.0))
        magnitude = _number("magnitude", params.pop("magnitude", 1000.0))
        location = _point(params.pop("location", (0.0, 0.0)))
        _reject_extra(name, params)
        return Problem(
            diffusion={1: d_in, 2: d_out},
            nonlinearity=_power_nonlinearity(11),
            point_source=PointSource(location, magnitude),
            domain=domain, interface_box=box, name=name,
        )

    if name == "sinh_pbe":
        kappa2 = _number("kappa2", params.pop("kappa2", 1.0))
        d_in = _number("d_inside", params.pop("d_inside", 2.0))
        d_out = _number("d_outside", params.pop("d_outside", 80.0))
        g_flux = _number("g_flux", params.pop("g_flux", 1.0))
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
        c = (_number("c", params.pop("c", 1.0)) if name == "linear_reaction"
             else 0.0)
        f = _number("f", params.pop("f", 1.0))
        d_in = _number("d_inside", params.pop("d_inside", 1.0))
        d_out = _number("d_outside", params.pop("d_outside", 1.0))
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
            domain=domain, interface_box=box, name=name,
        )

    raise UnknownProblem(f"no built-in problem named {name!r}; choose from "
                         f"{', '.join(BUILTIN_PROBLEMS)}")


def _number(key, value):
    """``value`` as one finite float; ValueError naming ``key`` otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be one number, got {value!r}") from None
    if not np.isfinite(number):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return number


def _point(location):
    """``location`` as a pair of finite floats; ValueError otherwise."""
    try:
        x, y = (float(c) for c in location)
        if np.isfinite([x, y]).all():
            return x, y
    except (TypeError, ValueError):
        pass
    raise ValueError(f"location must be two finite numbers, got {location!r}")


def _reject_extra(name, params):
    if params:
        raise UnknownProblem(
            f"unknown parameters for {name}: {sorted(params)}")


def manufactured_interface_problem(d_inside, d_outside):
    """Exact-solution problem on (-1,1)^2 with the interface on x = 0.

    The solution is u(x, y) = w(x) sin(pi y) with w piecewise
    linear-plus-sine: continuous at 0, with D w' continuous at 0 and
    w(+-1) = 0, so u carries a genuine gradient jump across the interface
    while satisfying both jump conditions.  The reaction is b(xi) = xi^3.
    The construction is validated at build time to 1e-12.
    """
    d1 = _number("d_inside", d_inside)
    d2 = _number("d_outside", d_outside)
    if d1 <= 0 or d2 <= 0:
        raise ValueError("d_inside and d_outside must be positive")
    pi = np.pi
    flux = 1.0  # common value of D w' at the interface
    # w_left = (1 + x) + a_l sin(pi x), w_right = (1 - x) + a_r sin(pi x)
    a_l = (flux / d1 - 1.0) / pi
    a_r = (flux / d2 + 1.0) / pi

    def w(x, sin_x, left):
        """w on the side ``left`` of x = 0, given sin(pi x)."""
        return (np.where(left, 1.0 + x, 1.0 - x)
                + np.where(left, a_l, a_r) * sin_x)

    def w_prime(cos_x, left):
        """w' on the side ``left`` of x = 0, given cos(pi x)."""
        return (np.where(left, 1.0, -1.0)
                + np.where(left, a_l, a_r) * pi * cos_x)

    cont = abs(w(0.0, 0.0, True) - w(0.0, 0.0, False))
    flux_jump = abs(d1 * w_prime(1.0, True) - d2 * w_prime(1.0, False))
    if cont > 1e-12 or flux_jump > 1e-12:
        raise RuntimeError(
            f"manufactured construction failed: [u]={cont:g}, "
            f"[D du/dn]={flux_jump:g}")

    def exact(points):
        x, y = points[..., 0], points[..., 1]
        return w(x, np.sin(pi * x), x < 0.0) * np.sin(pi * y)

    def exact_grad(points):
        x, y = points[..., 0], points[..., 1]
        left = x < 0.0
        gx = w_prime(np.cos(pi * x), left) * np.sin(pi * y)
        gy = pi * w(x, np.sin(pi * x), left) * np.cos(pi * y)
        return np.stack([gx, gy], axis=-1)

    nl = _power_nonlinearity(3)

    def source(points):
        x, y = points[..., 0], points[..., 1]
        left = x < 0.0
        dv = np.where(left, d1, d2)
        av = np.where(left, a_l, a_r)
        sin_x, sin_y = np.sin(pi * x), np.sin(pi * y)
        wx = w(x, sin_x, left)
        u = wx * sin_y
        return dv * pi ** 2 * (av * sin_x + wx) * sin_y + u * u * u

    problem = Problem(
        diffusion={1: d1, 2: d2},
        nonlinearity=nl,
        source=source,
        domain=(-1.0, 1.0, -1.0, 1.0),
        interface_box=(-1.0, 0.0, -1.0, 1.0),
        name="manufactured",
    )
    return problem, ManufacturedSolution(exact=exact, exact_grad=exact_grad)
