import dataclasses

import numpy as np
import pytest

from twogridfem import (
    BUILTIN_PROBLEMS,
    Mesh,
    NoFiniteBarrier,
    Nonlinearity,
    PointSource,
    Problem,
    UnknownProblem,
    builtin_problem,
    compute_barriers,
    generate_interface_mesh,
    linf_check,
    manufactured_interface_problem,
    newton_solve,
)
from twogridfem.assembly import quadrature_blocks
from twogridfem.problems import (
    BARRIER_SAMPLES,
    BARRIER_SEED,
    ProblemError,
    _integer_power,
    _power_nonlinearity,
    _sample_points,
    _smallest_nonneg_point,
)

from conftest import cube_problem


EPS = np.finfo(float).eps


def sample_points(rng, count):
    return np.column_stack([rng.uniform(-1, 1, count),
                            rng.uniform(-1, 1, count)])


def box_tags(x):
    """Region tags of points x: 1 inside the default interface box
    (-0.5, 0.5)^2, 2 outside."""
    return np.where(np.all(np.abs(x) <= 0.5, axis=-1), 1, 2)


def sample_tags(rng, count):
    """Region tags of uniform samples of (-1, 1)^2: both regions occur."""
    return box_tags(sample_points(rng, count))


@pytest.mark.parametrize("name", BUILTIN_PROBLEMS)
def test_builtin_derivatives_match_finite_differences(name):
    nl = builtin_problem(name).nonlinearity
    rng = np.random.default_rng(42)
    tags = sample_tags(rng, 1000)
    xi = rng.uniform(-3.0, 3.0, 1000)
    h = 1e-5 * np.maximum(1.0, np.abs(xi))
    fd1 = (nl.eval(tags, xi + h) - nl.eval(tags, xi - h)) / (2 * h)
    d1 = nl.d1(tags, xi)
    assert np.all(np.abs(fd1 - d1) <= 1e-6 * (1.0 + np.abs(d1)))
    fd2 = (nl.d1(tags, xi + h) - nl.d1(tags, xi - h)) / (2 * h)
    d2 = nl.d2(tags, xi)
    assert np.all(np.abs(fd2 - d2) <= 1e-6 * (1.0 + np.abs(d2)))


@pytest.mark.parametrize("name", BUILTIN_PROBLEMS)
def test_builtin_sign_conditions_by_sampling(name):
    nl = builtin_problem(name).nonlinearity
    rng = np.random.default_rng(1)
    tags = sample_tags(rng, 200)
    above = nl.barrier_beta + rng.uniform(0.0, 5.0, 200)
    below = nl.barrier_alpha - rng.uniform(0.0, 5.0, 200)
    assert np.all(nl.eval(tags, above) >= -1e-12)
    assert np.all(nl.eval(tags, below) <= 1e-12)


def test_builtin_monotonicity_between_barriers():
    # all built-ins are locally monotone: d1 >= 0 on the barrier interval
    rng = np.random.default_rng(2)
    for name in BUILTIN_PROBLEMS:
        problem = builtin_problem(name)
        nl = problem.nonlinearity
        tags = sample_tags(rng, 100)
        xi = rng.uniform(nl.barrier_alpha - 1.0, nl.barrier_beta + 1.0, 100)
        assert np.all(nl.d1(tags, xi) >= -1e-12)


@pytest.mark.parametrize("k", range(12))
def test_integer_power_matches_pow(k):
    rng = np.random.default_rng(k)
    magnitude = np.exp(rng.uniform(np.log(1e-20), np.log(1e25), 2000))
    xi = np.concatenate([rng.uniform(-3.0, 3.0, 2000), magnitude,
                         -magnitude, [0.0, -0.0]])
    got, ref = _integer_power(xi, k), xi ** k
    # each of the k - 1 products rounds by up to eps / 2, pow by up to eps
    rtol = max(4.0, (k + 1) / 2) * EPS
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=0)
    # odd powers keep the sign of a negative base, even ones drop it
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_integer_power_propagates_nan_and_inf():
    xi = np.array([np.nan, np.inf, -np.inf])
    for k in range(12):
        np.testing.assert_array_equal(_integer_power(xi, k), xi ** k)


def test_integer_power_refuses_negative_exponent():
    with pytest.raises(ValueError, match="nonnegative"):
        _integer_power(np.ones(3), -1)


@pytest.mark.parametrize("exponent", [2.5, 3.0, "3", 1, 0, -1])
def test_power_nonlinearity_refuses_exponent_below_two_or_not_integer(
        exponent):
    # 2.5 used to be truncated to 2, and p = 1 made d2 NaN at xi = 0
    with pytest.raises(ValueError, match="integer >= 2"):
        _power_nonlinearity(exponent)


@pytest.mark.parametrize("exponent", [2, 3, np.int64(11)])
def test_power_nonlinearity_values_and_derivatives(exponent):
    nl = _power_nonlinearity(exponent)
    p = int(exponent)
    xi = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    # powers of two: every product is exact
    np.testing.assert_array_equal(nl.eval(None, xi), xi ** p)
    np.testing.assert_array_equal(nl.d1(None, xi), p * xi ** (p - 1))
    np.testing.assert_array_equal(nl.d2(None, xi),
                                  p * (p - 1) * xi ** (p - 2))


def test_power11_configuration():
    p = builtin_problem("power11")
    assert p.diffusion == {1: 1000.0, 2: 1.0}
    assert p.point_source == PointSource((0.0, 0.0), 1000.0)
    assert p.source is None
    tags = np.array([1, 1, 2, 2])
    np.testing.assert_allclose(p.nonlinearity.eval(tags, np.full(4, 2.0)),
                               2048.0)


def test_sinh_pbe_kappa_vanishes_inside():
    p = builtin_problem("sinh_pbe", kappa2=1.0)
    inside, outside = np.array([1, 1]), np.array([2, 2])  # region tags
    xi = np.array([1.3, -0.7])
    assert np.all(p.nonlinearity.eval(inside, xi) == 0.0)
    np.testing.assert_allclose(p.nonlinearity.eval(outside, xi), np.sinh(xi))
    # cosh >= 1 outside: strictly monotone there
    assert np.all(p.nonlinearity.d1(outside, xi) >= 1.0)


def test_linear_reaction_zero_c_is_pure_diffusion():
    p = builtin_problem("linear_reaction", c=0.0, f=1.0)
    tags = np.array([1, 2, 2])
    assert np.all(p.nonlinearity.eval(tags, np.array([1.0, -2.0, 5.0]))
                  == 0.0)


@pytest.mark.parametrize("name", BUILTIN_PROBLEMS)
def test_every_listed_problem_builds_with_its_defaults(name):
    assert builtin_problem(name).name == name


def test_builtin_rejects_unknown_name_and_params():
    with pytest.raises(UnknownProblem, match=", ".join(BUILTIN_PROBLEMS)):
        builtin_problem("frobnicate")
    with pytest.raises(UnknownProblem):
        builtin_problem("power11", wibble=3.0)


def test_builtin_rejects_bad_values():
    with pytest.raises(ValueError):
        builtin_problem("linear_reaction", c=-1.0)
    with pytest.raises(ValueError):
        builtin_problem("sinh_pbe", kappa2=-2.0)
    with pytest.raises(ValueError, match="kappa2 must be one number"):
        builtin_problem("sinh_pbe", kappa2=(1.0, 2.0))
    for location in (0.3, (0.0, float("nan")), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="location"):
            builtin_problem("power11", location=location)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for key in ("magnitude", "d_inside"):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                builtin_problem("power11", **{key: bad})
        with pytest.raises(ValueError, match="f must be finite"):
            builtin_problem("zero_reaction", f=bad)
        with pytest.raises(ValueError, match="d_inside must be finite"):
            manufactured_interface_problem(bad, 1.0)


def test_nonlinearity_validation():
    def nonlinearity(alpha, beta):
        return Nonlinearity(lambda tags, xi: xi, lambda tags, xi: 1.0,
                            lambda tags, xi: 0.0, alpha, beta)

    with pytest.raises(ValueError, match="must not exceed"):
        nonlinearity(1.0, 0.0)
    # a NaN constant once built, and its barriers then flagged every vertex
    nan = float("nan")
    for alpha, beta in ((nan, 0.0), (0.0, nan), (nan, nan)):
        with pytest.raises(ValueError, match="must not be NaN"):
            nonlinearity(alpha, beta)
    nonlinearity(-np.inf, np.inf)  # no finite barrier: still allowed


def test_problem_rejects_nonpositive_diffusion():
    nl = builtin_problem("zero_reaction").nonlinearity
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            Problem(diffusion={1: bad, 2: 1.0}, nonlinearity=nl)


def test_barriers_cube_with_constant_source():
    lower, upper = compute_barriers(cube_problem())
    assert lower == pytest.approx(0.0, abs=1e-12)
    assert upper == pytest.approx(2.0, abs=1e-9)


def test_barriers_sinh_no_source():
    lower, upper = compute_barriers(builtin_problem("sinh_pbe"))
    assert (lower, upper) == (0.0, 0.0)


def test_barriers_bracket_folded_nonlinearity():
    problem = cube_problem()
    lower, upper = compute_barriers(problem)
    rng = np.random.default_rng(9)
    x = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)])
    nl = problem.nonlinearity
    tags = box_tags(x)
    folded_at_upper = nl.eval(tags, np.full(50, upper)) - problem.source(x)
    folded_at_lower = nl.eval(tags, np.full(50, lower)) - problem.source(x)
    assert np.all(folded_at_upper >= -1e-9)
    assert np.all(folded_at_lower <= 1e-9)


def test_barriers_fold_each_region_with_its_own_reaction():
    # b = 2 xi in region 1 and xi in region 2 against f = 1: the folded
    # sign changes at 1/2 and 1.  Every sample is folded with both, so
    # the barriers do not depend on the box: a box covering the whole
    # domain used to tag every sample 1 and give the upper barrier 1/2
    def problem(box):
        return Problem(
            diffusion={1: 1.0, 2: 1.0},
            nonlinearity=Nonlinearity(
                eval=lambda tags, xi: np.where(tags == 1, 2.0, 1.0) * xi,
                d1=lambda tags, xi: np.where(tags == 1, 2.0, 1.0)
                * np.ones_like(xi),
                d2=lambda tags, xi: np.zeros_like(xi),
                barrier_alpha=0.0, barrier_beta=0.0),
            source=lambda x: np.ones(x.shape[:-1]),
            interface_box=box)

    for box in ((-0.5, 0.5, -0.5, 0.5), (-1.0, 1.0, -1.0, 1.0)):
        lower, upper = compute_barriers(problem(box))
        assert lower == 0.0 and upper == pytest.approx(1.0, abs=1e-12)


def test_barriers_hold_on_a_mesh_whose_interface_is_not_the_box():
    # region 1, where b is weak, is the right half of the domain, not the
    # problem's interface box; f = 2 outside the box.  Tagged from the box,
    # the samples with f = 2 all took region 2's b, and the upper barrier
    # was 1, below f / 1 = 2 on the right half outside the box
    generated = generate_interface_mesh(8)
    centroids = generated.triangle_coords().mean(axis=1)
    mesh = Mesh(generated.vertices, generated.triangles,
                np.where(centroids[:, 0] > 0.0, 1, 2))
    assert not np.array_equal(mesh.regions, generated.regions)

    def weight(tags):
        return np.where(tags == 1, 1.0, 100.0)

    problem = Problem(
        diffusion={1: 1.0, 2: 1.0},
        nonlinearity=Nonlinearity(
            eval=lambda tags, xi: weight(tags) * xi,
            d1=lambda tags, xi: weight(tags) * np.ones_like(xi),
            d2=lambda tags, xi: np.zeros_like(xi),
            barrier_alpha=0.0, barrier_beta=0.0),
        source=lambda x: np.where(box_tags(x) == 1, 1.0, 2.0))
    lower, upper = compute_barriers(problem)
    for block, x in quadrature_blocks(mesh):
        tags = mesh.regions[block, None]
        f = problem.source(x)
        assert np.all(problem.nonlinearity.eval(tags, np.full(f.shape, upper))
                      >= f)
        assert np.all(problem.nonlinearity.eval(tags, np.full(f.shape, lower))
                      <= f)


def folded_extremes(problem, xi):
    """The min and the max over compute_barriers' samples, in both
    regions, of b(r, xi) - f(x), evaluated as compute_barriers does."""
    x = _sample_points(problem, BARRIER_SAMPLES, BARRIER_SEED)
    folded = (problem.nonlinearity.eval(np.array([[1], [2]]),
                                        np.full((2, len(x)), xi))
              - np.asarray(problem.source(x), dtype=float))
    return float(np.min(folded)), float(np.max(folded))


@pytest.mark.parametrize("exponent, f, root", [
    (3, 8.0, 2.0), (3, -8.0, -2.0), (11, 3.0, 3.0 ** (1 / 11)),
    (11, -3.0, -(3.0 ** (1 / 11))), (11, 0.7, 0.7 ** (1 / 11))])
def test_barriers_are_the_safe_ends_of_their_brackets(exponent, f, root):
    # the bisection returns the end of its last bracket on the side where
    # the sign condition holds, so it holds exactly there: a root finder
    # such as brentq only gets within its tolerance, on either side
    problem = Problem(diffusion={1: 1.0, 2: 1.0},
                      nonlinearity=_power_nonlinearity(exponent),
                      source=lambda x: np.full(x.shape[:-1], f))
    lower, upper = compute_barriers(problem)
    assert folded_extremes(problem, upper)[0] >= 0.0
    assert folded_extremes(problem, lower)[1] <= 0.0
    barrier, other = (upper, lower) if f > 0 else (lower, upper)
    assert other == 0.0  # the Dirichlet data g = 0
    assert abs(barrier - root) <= 1e-13


def test_barrier_search_stops_where_the_bracket_is_one_ulp_wide():
    # near 1e8 adjacent doubles are 1.5e-8 apart: the bracket never gets
    # within 1e-13, and the bisection stops when its midpoint is an end
    root = 1e8 + 0.3
    found = _smallest_nonneg_point(lambda xi: xi - root, 0.0)
    assert found == root


def test_barriers_no_finite_barrier_for_zero_reaction_with_source():
    with pytest.raises(NoFiniteBarrier):
        compute_barriers(builtin_problem("zero_reaction", f=1.0))


def test_barriers_point_source_rejected():
    with pytest.raises(NoFiniteBarrier):
        compute_barriers(builtin_problem("power11"))


def test_barriers_include_dirichlet_bounds():
    p = cube_problem()
    p2 = Problem(diffusion=p.diffusion, nonlinearity=p.nonlinearity,
                 source=p.source,
                 dirichlet=lambda x: np.full(x.shape[:-1], 3.0),
                 dirichlet_bounds=(3.0, 3.0))
    lower, upper = compute_barriers(p2)
    assert upper == pytest.approx(3.0)  # sup g beats the sign constant 2
    assert lower == pytest.approx(2.0, abs=1e-9)  # min(alpha~, inf g)


def test_barriers_of_dirichlet_data_need_its_declared_bounds():
    # with g = 3 and no declared bounds the barriers used to be those of
    # g = 0, (0, 1), which flagged 81 vertices of the correct solution
    p = dataclasses.replace(builtin_problem("linear_reaction"),
                            dirichlet=lambda x: np.full(x.shape[:-1], 3.0))
    with pytest.raises(ProblemError, match="dirichlet_bounds"):
        compute_barriers(p)
    p = dataclasses.replace(p, dirichlet_bounds=(3.0, 3.0))
    lower, upper = compute_barriers(p)
    assert upper == pytest.approx(3.0)  # sup g beats beta~ = f / c = 1
    assert lower == pytest.approx(1.0)  # alpha~ = 1, below inf g
    u, report = newton_solve(generate_interface_mesh(8), p)
    assert report.converged
    assert linf_check(u, (lower, upper)).passes


def test_manufactured_no_contrast_reduces_smoothly():
    problem, exact = manufactured_interface_problem(1.0, 1.0)
    # flux jump vanishes identically when D1 == D2
    y = np.linspace(-0.9, 0.9, 100)
    eps = 1e-13
    g1 = exact.exact_grad(np.column_stack([np.full(100, -eps), y]))
    g2 = exact.exact_grad(np.column_stack([np.full(100, eps), y]))
    np.testing.assert_allclose(1.0 * g1[:, 0], 1.0 * g2[:, 0], atol=1e-12)


def test_manufactured_jump_conditions_on_interface():
    problem, exact = manufactured_interface_problem(1000.0, 1.0)
    rng = np.random.default_rng(4)
    y = rng.uniform(-1.0, 1.0, 100)
    eps = 1e-13
    left = np.column_stack([np.full(100, -eps), y])
    right = np.column_stack([np.full(100, eps), y])
    # [u] = 0: one-sided values agree to 1e-12
    assert np.max(np.abs(exact.exact(left) - exact.exact(right))) <= 1e-12
    # [D du/dn] = 0: conormal fluxes agree to 1e-12
    flux_left = 1000.0 * exact.exact_grad(left)[:, 0]
    flux_right = 1.0 * exact.exact_grad(right)[:, 0]
    assert np.max(np.abs(flux_left - flux_right)) <= 1e-12


def test_manufactured_dirichlet_boundary_is_zero():
    problem, exact = manufactured_interface_problem(1000.0, 1.0)
    t = np.linspace(-1, 1, 50)
    for pts in (
        np.column_stack([t, np.full(50, -1.0)]),
        np.column_stack([t, np.full(50, 1.0)]),
        np.column_stack([np.full(50, -1.0), t]),
        np.column_stack([np.full(50, 1.0), t]),
    ):
        assert np.max(np.abs(exact.exact(pts))) <= 1e-12


def test_manufactured_source_matches_pde_by_finite_differences():
    problem, exact = manufactured_interface_problem(1000.0, 1.0)
    rng = np.random.default_rng(8)
    # keep FD stencils away from the interface and the boundary
    x = np.concatenate([rng.uniform(-0.9, -0.1, 20),
                        rng.uniform(0.1, 0.9, 20)])
    y = rng.uniform(-0.9, 0.9, 40)
    pts = np.column_stack([x, y])
    h = 1e-4
    lap = (exact.exact(pts + [h, 0]) + exact.exact(pts - [h, 0])
           + exact.exact(pts + [0, h]) + exact.exact(pts - [0, h])
           - 4.0 * exact.exact(pts)) / h ** 2
    d = np.where(x < 0, 1000.0, 1.0)
    f_fd = -d * lap + exact.exact(pts) ** 3
    f = problem.source(pts)
    assert np.max(np.abs(f_fd - f) / np.maximum(1.0, np.abs(f))) <= 1e-5


def test_manufactured_gradient_matches_finite_differences():
    problem, exact = manufactured_interface_problem(1000.0, 1.0)
    pts = np.array([[-0.5, 0.3], [0.4, -0.7]])
    h = 1e-6
    gx = (exact.exact(pts + [h, 0]) - exact.exact(pts - [h, 0])) / (2 * h)
    gy = (exact.exact(pts + [0, h]) - exact.exact(pts - [0, h])) / (2 * h)
    g = exact.exact_grad(pts)
    np.testing.assert_allclose(gx, g[:, 0], rtol=1e-8)
    np.testing.assert_allclose(gy, g[:, 1], rtol=1e-8)


@pytest.mark.parametrize("d_in, d_out", [(1000.0, 1.0), (2.0, 80.0)])
def test_manufactured_fields_match_closed_form(d_in, d_out):
    # the closed form written out term by term, with libm pow for u^3
    problem, exact = manufactured_interface_problem(d_in, d_out)
    pi = np.pi
    a_l = (1.0 / d_in - 1.0) / pi
    a_r = (1.0 / d_out + 1.0) / pi

    def w(x):
        return np.where(x < 0.0, (1.0 + x) + a_l * np.sin(pi * x),
                        (1.0 - x) + a_r * np.sin(pi * x))

    points = np.random.default_rng(5).uniform(-1.0, 1.0, (500, 7, 2))
    x, y = points[..., 0], points[..., 1]
    u = w(x) * np.sin(pi * y)
    assert np.array_equal(exact.exact(points), u)
    # sin(pi / 2) is exactly 1, so on y = 1/2 exact is w itself
    on_half = np.stack([x, np.full_like(x, 0.5)], axis=-1)
    assert np.array_equal(exact.exact(on_half), w(x))
    dv = np.where(x < 0.0, d_in, d_out)
    av = np.where(x < 0.0, a_l, a_r)
    f = (dv * pi ** 2 * (av * np.sin(pi * x) + w(x)) * np.sin(pi * y)
         + u ** 3)
    np.testing.assert_allclose(problem.source(points), f, rtol=1e-15,
                               atol=0)


def test_manufactured_rejects_bad_diffusion():
    with pytest.raises(ValueError):
        manufactured_interface_problem(0.0, 1.0)
