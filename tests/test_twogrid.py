import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from twogridfem import (
    FemFunction,
    InvalidRegularity,
    Mesh,
    NewtonOptions,
    Nonlinearity,
    NotNested,
    Problem,
    assemble_semilinear_residual,
    builtin_problem,
    energy_norm,
    generate_interface_mesh,
    linearized_solve,
    lp_norm,
    nested_newton_solve,
    newton_levels,
    newton_solve,
    newton_step,
    prolongate,
    refine_uniform,
    select_coarse_size,
    two_grid_solve,
)
from twogridfem.assembly import _moment_vector, assemble_load, \
    assemble_reaction_jacobian, assemble_stiffness
from twogridfem.solvers import make_initial_guess
from twogridfem.twogrid import COARSE_NEWTON_OPTS

TIGHT = NewtonOptions(abs_tol=1e-12, rel_tol=1e-13, max_iters=80)


def hierarchy(n0, levels, problem=None):
    domain = problem.domain if problem else (-1, 1, -1, 1)
    if problem:
        box = problem.interface_box
    else:
        # default box needs n0 divisible by 4; fall back to a half-domain box
        box = (-0.5, 0.5, -0.5, 0.5) if n0 % 4 == 0 else (-1, 0, -1, 1)
    meshes = [generate_interface_mesh(n0, domain, box)]
    for _ in range(levels):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def test_prolongate_hat_function():
    coarse, fine = hierarchy(2, 1)
    center = int(np.nonzero(
        np.all(coarse.vertices == [0.0, 0.0], axis=1))[0][0])
    hat = np.zeros(coarse.n_vertices)
    hat[center] = 1.0
    p = prolongate(FemFunction(coarse, hat), fine)
    assert p.values[center] == 1.0
    mids = fine.midpoint_edges
    touching = (mids[:, 0] == center) | (mids[:, 1] == center)
    new_vals = p.values[coarse.n_vertices:]
    assert np.all(new_vals[touching] == 0.5)
    assert np.all(new_vals[~touching] == 0.0)
    others = np.arange(coarse.n_vertices) != center
    assert np.all(p.values[:coarse.n_vertices][others] == 0.0)


def test_prolongate_preserves_energy_norm():
    coarse, fine = hierarchy(4, 1)
    rng = np.random.default_rng(0)
    u = FemFunction(coarse, rng.standard_normal(coarse.n_vertices))
    pu = prolongate(u, fine)
    d = {1: 1000.0, 2: 1.0}
    assert energy_norm(fine, d, pu) == pytest.approx(
        energy_norm(coarse, d, u), rel=1e-13)


def test_prolongate_two_levels_is_composition():
    m0, m1, m2 = hierarchy(2, 2)
    rng = np.random.default_rng(1)
    u = FemFunction(m0, rng.standard_normal(m0.n_vertices))
    direct = prolongate(u, m2)
    composed = prolongate(prolongate(u, m1), m2)
    np.testing.assert_array_equal(direct.values, composed.values)


def test_prolongate_matches_midpoint_average_exactly():
    meshes = hierarchy(4, 2)
    rng = np.random.default_rng(2)
    values = rng.standard_normal(meshes[0].n_vertices)
    expected = values
    for mesh in meshes[1:]:
        e0, e1 = mesh.midpoint_edges.T
        expected = np.concatenate(
            [expected, 0.5 * (expected[e0] + expected[e1])])
    got = prolongate(FemFunction(meshes[0], values), meshes[-1]).values
    assert np.all(got == expected)


def test_prolongate_rejects_unrelated_meshes():
    a = generate_interface_mesh(4)
    b = generate_interface_mesh(4)
    with pytest.raises(NotNested):
        prolongate(FemFunction.zeros(a), b)


def test_prolongate_onto_loaded_mesh_is_not_nested():
    coarse, fine = hierarchy(4, 1)
    copy = Mesh(fine.vertices, fine.triangles, fine.regions)
    assert copy.parent is None and copy.midpoint_edges is None
    with pytest.raises(NotNested):
        prolongate(FemFunction.zeros(coarse), copy)


def test_linearized_solve_affine_equals_fine_galerkin():
    problem = builtin_problem("linear_reaction", c=1.0, f=1.0)
    coarse, fine = hierarchy(4, 1)
    u_coarse, _ = newton_solve(coarse, problem, None, TIGHT)
    u_lin, report = linearized_solve(problem, prolongate(u_coarse, fine))
    u_direct, _ = newton_solve(fine, problem, None, TIGHT)
    assert np.abs(u_lin.values - u_direct.values).max() <= 1e-9
    assert report.converged
    assert report.wall_s > 0.0


def test_linearized_solve_fixed_point():
    problem = builtin_problem("sinh_pbe")
    mesh = generate_interface_mesh(8)
    u_star, _ = newton_solve(mesh, problem, None, TIGHT)
    u_again, _ = linearized_solve(problem, u_star)
    assert np.abs(u_again.values - u_star.values).max() <= 1e-9


def test_linearized_solve_warns_on_negative_slope():
    problem = Problem(
        diffusion={1: 1.0, 2: 1.0},
        nonlinearity=Nonlinearity(
            eval=lambda tags, xi: xi ** 3 - 0.1 * xi,
            d1=lambda tags, xi: 3 * xi ** 2 - 0.1,
            d2=lambda tags, xi: 6 * xi,
            barrier_alpha=-1.0, barrier_beta=1.0),
        source=lambda x: np.zeros(x.shape[:-1]),
    )
    mesh = generate_interface_mesh(4)
    with pytest.warns(UserWarning, match="negative"):
        linearized_solve(problem, FemFunction.zeros(mesh))


@pytest.mark.parametrize("slope_inside, warns", [(-0.1, True), (0.0, False)])
def test_linearized_solve_checks_the_slope_in_each_region(slope_inside,
                                                          warns):
    # b' = slope_inside in region 1 and 1 in region 2
    def slope(tags, xi):
        return np.where(tags == 1, slope_inside, 1.0) * np.ones_like(xi)

    problem = Problem(
        diffusion={1: 1.0, 2: 1.0},
        nonlinearity=Nonlinearity(
            eval=lambda tags, xi: slope(tags, xi) * xi, d1=slope,
            d2=lambda tags, xi: np.zeros_like(xi),
            barrier_alpha=0.0, barrier_beta=0.0),
        source=lambda x: np.ones(x.shape[:-1]),
    )
    mesh = generate_interface_mesh(4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        linearized_solve(problem, FemFunction.zeros(mesh))
    messages = [str(w.message) for w in caught]
    if warns:
        assert any("negative" in m for m in messages)
    else:
        assert messages == []


def test_two_grid_strict_improvement_on_power11():
    problem = builtin_problem("power11")
    meshes = hierarchy(8, 3, problem)
    coarse, fine = meshes[0], meshes[-1]
    result = two_grid_solve(coarse, fine, problem)
    u_h, _ = nested_newton_solve(meshes, problem, TIGHT)
    base = prolongate(result.coarse_solution, fine)
    err_two = energy_norm(fine, problem.diffusion, u_h - result.fine_solution)
    err_base = energy_norm(fine, problem.diffusion, u_h - base)
    assert err_two < err_base
    assert result.fine_solution.mesh is fine
    assert result.coarse_solution.mesh is coarse


def test_two_grid_remainder_bound_with_second_derivative():
    problem = builtin_problem("power11")
    meshes = hierarchy(8, 2, problem)
    coarse, fine = meshes[0], meshes[-1]
    result = two_grid_solve(coarse, fine, problem)
    u_h, _ = nested_newton_solve(meshes, problem, TIGHT)
    base = prolongate(result.coarse_solution, fine)
    err = u_h - result.fine_solution

    a = assemble_stiffness(fine, problem.diffusion)
    m = assemble_reaction_jacobian(base, problem.nonlinearity.d1)
    defect = float(err.values @ ((a + m) @ err.values))
    values = np.concatenate([u_h.values, base.values])
    sup_b2 = float(np.max(np.abs(
        problem.nonlinearity.d2(None, np.linspace(values.min(),
                                                  values.max(), 1001)))))
    bound = sup_b2 * lp_norm(u_h - base, 4) ** 2 \
        * lp_norm(err, 4)
    assert abs(defect) <= bound


def test_two_grid_requires_nested_pair(monkeypatch):
    import twogridfem.twogrid as twogrid_module
    solves = []

    def spy(*args, **kwargs):
        solves.append(args[0])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(twogrid_module, "newton_solve", spy)
    problem = builtin_problem("sinh_pbe")
    a = generate_interface_mesh(4)
    b = generate_interface_mesh(8)
    with pytest.raises(NotNested):
        two_grid_solve(a, b, problem)
    # refused before the coarse solve
    assert solves == []


def test_two_grid_fine_step_converges_on_a_large_jump():
    # the fine PCG tolerance is relative to the residual: posed for the
    # solution instead, 1e-12 of ||J u_base - r|| lies below the roundoff
    # floor of iterates the size of u, and PCG stagnates
    problem = builtin_problem("linear_reaction", d_inside=1000.0)
    meshes = hierarchy(8, 4)  # n = 8 ... 128
    result = two_grid_solve(meshes[2], meshes[4], problem)
    assert result.fine_report.converged
    # the problem is affine: one Newton step solves the fine system
    u_h, _ = newton_solve(meshes[4], problem)
    assert np.abs(result.fine_solution.values - u_h.values).max() <= 1e-9


def affine_dirichlet_problem(power):
    """b = xi^power, f = 8 and the affine g = 1 + x/2 - y/4."""
    return Problem(
        diffusion={1: 1.0, 2: 1.0},
        nonlinearity=Nonlinearity(
            eval=lambda tags, xi: xi ** power,
            d1=lambda tags, xi: power * xi ** (power - 1),
            d2=None, barrier_alpha=0.0, barrier_beta=0.0),
        source=lambda x: np.full(x.shape[:-1], 8.0),
        dirichlet=lambda x: 1.0 + 0.5 * x[..., 0] - 0.25 * x[..., 1],
    )


@pytest.mark.parametrize("power", [3, 1])
def test_solvers_keep_nonhomogeneous_dirichlet_data(power):
    # g is affine, so the prolongation reproduces it on the fine boundary,
    # and the dyadic vertices keep every value exact
    problem = affine_dirichlet_problem(power)
    meshes = hierarchy(8, 2)
    fine = meshes[-1]
    b = fine.boundary_vertices
    g = problem.dirichlet(fine.vertices[b])
    assert np.ptp(g) > 1.0
    u_h, report = newton_solve(fine, problem)
    assert report.converged
    assert np.array_equal(u_h.values[b], g)
    result = two_grid_solve(meshes[0], fine, problem)
    assert np.array_equal(result.fine_solution.values[b], g)
    if power == 1:  # affine: one Newton step solves the fine system
        assert np.abs(result.fine_solution.values - u_h.values).max() <= 1e-9


def nonaffine_dirichlet_problem():
    """linear_reaction with g = sin(3x) + y^2 on the boundary."""
    return dataclasses.replace(
        builtin_problem("linear_reaction"),
        dirichlet=lambda x: np.sin(3.0 * x[..., 0]) + x[..., 1] ** 2)


def full_residual(u, problem):
    """K u + (b(u), phi) - loads on every vertex, from the public full
    stiffness: the oracle of the solvers' free-vertex residual."""
    mesh = u.mesh
    return (assemble_stiffness(mesh, problem.diffusion) @ u.values
            + _moment_vector(mesh, problem.nonlinearity.eval, u)
            - assemble_load(mesh, problem))


@pytest.mark.parametrize("problem", [
    affine_dirichlet_problem(3), nonaffine_dirichlet_problem()],
    ids=["affine_g", "sin_g"])
def test_solutions_with_dirichlet_data_solve_the_full_system(problem):
    # the solvers assemble the free rows only, with the stiffness's
    # coupling K_fb g to the Dirichlet data as a lift; without that lift
    # the free rows of the full residual would miss it by about |K_fb g|
    mesh = hierarchy(8, 2)[-1]
    free = mesh.interior_vertices
    u_h, report = newton_solve(mesh, problem, None, TIGHT)
    assert report.converged
    r = full_residual(u_h, problem)
    assert np.abs(r[free]).max() <= 1e-9
    # one Newton step: r(u_base) + J(u_base) delta = 0 on the free rows
    start = FemFunction.zeros(mesh)
    u_lin, report = linearized_solve(problem, start)
    assert report.converged
    base = make_initial_guess(mesh, problem, start.values)
    jac = (assemble_stiffness(mesh, problem.diffusion)
           + assemble_reaction_jacobian(base, problem.nonlinearity.d1))
    r_base = full_residual(base, problem)
    gap = r_base + jac @ (u_lin.values - base.values)
    assert np.abs(gap[free]).max() <= 1e-9 * np.abs(r_base[free]).max()


def test_prolonged_bases_take_the_fine_dirichlet_data():
    # g is not affine: the prolonged coarse boundary values miss the fine
    # interpolant of g by 6.6e-2 unless the fine data are imposed
    problem = nonaffine_dirichlet_problem()
    meshes = hierarchy(8, 3)  # n = 8 ... 64
    u_h, _ = newton_solve(meshes[-1], problem, None, TIGHT)
    nested, _ = nested_newton_solve(meshes, problem, TIGHT)
    result = two_grid_solve(meshes[0], meshes[-1], problem)
    for u in (nested, result.fine_solution):
        assert np.abs(u.values - u_h.values).max() <= 1e-8


def test_newton_imposes_zero_boundary_data_on_any_start():
    # a start of ones used to "converge" with 1.0 on the boundary
    problem = builtin_problem("linear_reaction")
    mesh = generate_interface_mesh(8)
    u, report = newton_solve(mesh, problem,
                             FemFunction(mesh, np.ones(mesh.n_vertices)))
    assert report.converged
    assert np.all(u.values[mesh.boundary_vertices] == 0.0)
    direct, _ = newton_solve(mesh, problem)
    assert np.abs(u.values - direct.values).max() <= 1e-9


def test_solves_from_zero_impose_the_dirichlet_data():
    # from zeros both solves used to keep 0 on the boundary, up to 1.997
    # off g
    problem = nonaffine_dirichlet_problem()
    fine = hierarchy(8, 1)[-1]
    b = fine.boundary_vertices
    g = problem.dirichlet(fine.vertices[b])
    u_h, report = newton_solve(fine, problem, FemFunction.zeros(fine), TIGHT)
    assert report.converged
    assert np.array_equal(u_h.values[b], g)
    # the problem is affine: one Newton step from zeros solves it
    u_lin, _ = linearized_solve(problem, FemFunction.zeros(fine))
    assert np.array_equal(u_lin.values[b], g)
    assert np.abs(u_lin.values - u_h.values).max() <= 1e-9


def test_nested_newton_matches_direct():
    problem = builtin_problem("sinh_pbe")
    meshes = hierarchy(4, 2)
    nested, reports = nested_newton_solve(meshes, problem, TIGHT)
    direct, _ = newton_solve(meshes[-1], problem, None, TIGHT)
    assert len(reports) == 3
    levels = list(newton_levels(meshes, problem, TIGHT))
    assert [u.mesh for u, _ in levels] == meshes
    assert np.array_equal(levels[-1][0].values, nested.values)
    assert np.abs(nested.values - direct.values).max() <= 1e-9


def test_first_level_runs_to_the_sup_norm_target_alone():
    # with energy_rtol = 1e-3 the cold n = 8 level once stopped by the
    # energy test after 8 steps; to the sup-norm target it takes 9
    problem = builtin_problem("power11")
    meshes = hierarchy(8, 1, problem)
    loose = NewtonOptions(energy_rtol=1e-3)
    (first, report), (_, warm) = newton_levels(meshes, problem, loose)
    assert (report.stopped_by, report.iterations) == ("residual", 9)
    assert warm.stopped_by == "energy"
    default, _ = next(newton_levels(meshes, problem))
    assert np.array_equal(first.values, default.values)


def test_power11_chain_keeps_multigrid_iteration_counts():
    problem = builtin_problem("power11")
    meshes = hierarchy(8, 4, problem)  # n = 8 ... 128
    reports = [report for _, report in newton_levels(meshes, problem)]
    # the V-cycle needs 14 PCG iterations on n = 128 (21 with the
    # undamped smoother); Jacobi needs 518
    assert reports[-1].linear_iters_total <= 16


@pytest.fixture(scope="module")
def power11_levels():
    """The seed-0 power11 chain n = 8 ... 256 as newton_levels solves it."""
    problem = builtin_problem("power11")
    meshes = hierarchy(8, 5, problem)
    return problem, meshes, list(newton_levels(meshes, problem))


def test_warm_levels_stop_on_the_energy_estimate_after_two_steps(
        power11_levels):
    # measured: Newton 9, 3, 3, 2, 2, 2 and PCG 64, 12, 12, 7, 7, 7; on
    # the sup-norm target alone n >= 64 took a third step, which held 7
    # of the level's 14-15 PCG iterations
    problem, meshes, levels = power11_levels
    for _, report in levels[3:]:
        assert report.converged
        assert report.iterations == 2
        assert report.stopped_by == "energy"
        assert len(report.step_decrements) == 2
    assert levels[0][1].stopped_by == "residual"
    # 2.6e-8 relative off the load-vertex value of a cold solve to the
    # sup-norm target
    fine = meshes[-1]
    reference, reference_report = newton_solve(fine, problem)
    assert reference_report.stopped_by == "residual"
    origin = int(np.argmin(np.abs(fine.vertices).max(axis=1)))
    assert levels[-1][0].values[origin] == pytest.approx(
        reference.values[origin], rel=1e-7, abs=0)


def test_energy_estimate_bounds_the_next_decrement(power11_levels):
    # the decrement of one more accurate Newton step over the estimate
    # theta / (1 - theta) * eps that stopped the level: measured 0.019
    # and 0.013 on n = 16 and 32 (three steps, quadratic by then), 0.69,
    # 0.34 and 0.40 on n = 64, 128 and 256
    problem, _, levels = power11_levels
    for solution, report in levels[1:]:
        assert report.stopped_by == "energy"
        previous, last = report.step_decrements[-2:]
        theta = last / previous
        residual = assemble_semilinear_residual(solution, problem)
        delta, _ = newton_step(problem, solution, residual, 1e-10)
        assert math.sqrt(-(delta @ residual)) <= theta / (1 - theta) * last


def test_two_grid_coarse_solve_stops_on_the_residual(power11_levels):
    # the "exact" coarse solve runs to its sup-norm target as before:
    # n = 16 -> 256 takes coarse Newton 8, coarse PCG 28 and fine PCG 15
    problem, meshes, _ = power11_levels
    result = two_grid_solve(meshes[1], meshes[-1], problem)
    report = result.coarse_report
    assert report.stopped_by == "residual"
    history = report.residual_history
    assert history[-1] <= max(COARSE_NEWTON_OPTS.abs_tol,
                              COARSE_NEWTON_OPTS.rel_tol * history[0])
    assert (report.iterations, report.linear_iters_total,
            result.fine_report.iterations) == (8, 28, 15)


def test_select_coarse_size_reference_cases():
    assert select_coarse_size(1.0 / 64.0, 2.0, 2.0, d=2) == 0.25
    assert select_coarse_size(1.0 / 1024.0, 2.0, 2.0, d=3) == pytest.approx(
        1.0 / 16.0)


def test_select_coarse_size_equal_regularity_reduces_to_third():
    # (s-1)/(3(s-1)) = 1/3 regardless of s
    for s in (1.5, 2.0, 3.0, 4.0):
        assert select_coarse_size(1.0 / 64.0, s, s, d=2) == 0.25


def test_select_coarse_size_validation():
    with pytest.raises(InvalidRegularity):
        select_coarse_size(0.1, 1.0, 2.0)
    with pytest.raises(InvalidRegularity):
        select_coarse_size(0.1, 2.0, 0.5)
    with pytest.raises(InvalidRegularity):
        select_coarse_size(0.1, 2.0, 2.0, d=4)
    # s = inf made the exponent NaN, and h ** nan picked the first level
    with pytest.raises(InvalidRegularity, match="s must be finite"):
        select_coarse_size(0.1, math.inf, 2.0)
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be positive"):
            select_coarse_size(h, 2.0, 2.0)
    with pytest.raises(ValueError, match="levels is empty"):
        select_coarse_size(0.1, 2.0, 2.0, levels=[])
    # entries that are not positive and finite used to be returned as H
    for levels in ([-1.0], [math.nan, 0.5], [math.inf], [0.0]):
        with pytest.raises(ValueError, match="levels must be positive"):
            select_coarse_size(0.1, 2.0, 2.0, levels=levels)


def test_select_coarse_size_explicit_levels():
    # s=2, tau=1.2: t=0.2, exponent 1/2.2; target = 2^(-5/2.2) ~ 0.2069
    levels = [0.5, 0.25, 0.125]
    assert select_coarse_size(1.0 / 32.0, 2.0, 1.2, d=2,
                              levels=levels) == 0.125
    # nothing at or below the target: fall back to the finest available
    assert select_coarse_size(1.0 / 32.0, 2.0, 1.2, d=2,
                              levels=[0.5]) == 0.5


def test_select_coarse_size_default_levels_are_the_dyadic_sizes():
    for h, s, tau, d in itertools.product(
            (1.0, 0.3, 1.0 / 64.0, 1e-3, 2.0 ** -20),
            (1.1, 2.0, 3.5), (1.05, 2.0, math.inf), (2, 3)):
        dyadic = [h * 2 ** k for k in range(40)]
        assert (select_coarse_size(h, s, tau, d=d)
                == select_coarse_size(h, s, tau, d=d, levels=dyadic))
