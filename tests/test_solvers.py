import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import twogridfem.solvers as solvers
from twogridfem import (
    FemFunction,
    LineSearchStall,
    NewtonOptions,
    NoConvergence,
    VCycle,
    apply_dirichlet,
    assemble_reaction_jacobian,
    assemble_semilinear_residual,
    assemble_stiffness,
    builtin_problem,
    compute_barriers,
    generate_interface_mesh,
    linearized_solve,
    linf_check,
    newton_solve,
    newton_step,
    pcg_solve,
    refine_uniform,
    triangle_rule,
)

from conftest import cube_problem

D_UNIT = {1: 1.0, 2: 1.0}
D_JUMP = {1: 1000.0, 2: 1.0}


def laplace_system(n, diffusion=None, seed=0):
    mesh = generate_interface_mesh(n)
    a = assemble_stiffness(mesh, diffusion or D_UNIT)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(mesh.n_vertices)
    rhs[mesh.boundary_vertices] = 0.0
    ac, rc = apply_dirichlet(a, rhs, mesh.boundary_vertices)
    return ac, rc, mesh


def nested_meshes(refinements):
    """Meshes n = 8 * 2^k, k = 0 .. refinements, on the default geometry."""
    meshes = [generate_interface_mesh(8)]
    for _ in range(refinements):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def jump_system(mesh):
    """Stiffness with D = 1000/1, Dirichlet-eliminated, rhs = 1."""
    a = assemble_stiffness(mesh, D_JUMP)
    return apply_dirichlet(a, np.ones(mesh.n_vertices),
                           mesh.boundary_vertices)


def test_pcg_identity_single_iteration():
    a = sp.identity(5, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    x, report = pcg_solve(a, rhs, tol=1e-12)
    np.testing.assert_allclose(x, rhs, atol=1e-15)
    assert report.converged
    assert report.iterations == 1


def test_pcg_two_by_two():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, report = pcg_solve(a, np.array([1.0, 1.0]), tol=1e-14)
    np.testing.assert_allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-13)
    assert report.converged


def test_pcg_zero_rhs():
    a = sp.identity(4, format="csr")
    x, report = pcg_solve(a, np.zeros(4))
    assert np.all(x == 0.0)
    assert report.converged


def test_pcg_laplacian_within_ndof_iterations():
    ac, rc, mesh = laplace_system(16)
    n_dof = len(mesh.interior_vertices)
    x, report = pcg_solve(ac, rc, tol=1e-10, max_iters=n_dof)
    assert report.converged
    assert np.linalg.norm(rc - ac @ x) <= 1e-10 * np.linalg.norm(rc)
    assert report.iterations <= n_dof


def test_pcg_matches_dense_oracle():
    ac, rc, mesh = laplace_system(8, {1: 1000.0, 2: 1.0})
    assert mesh.n_vertices <= 200
    x, report = pcg_solve(ac, rc, tol=1e-12)
    oracle = np.linalg.solve(ac.toarray(), rc)
    np.testing.assert_allclose(x, oracle, atol=1e-8)


def test_pcg_no_convergence_carries_best_iterate():
    ac, rc, _ = laplace_system(16)
    with pytest.raises(NoConvergence) as err:
        pcg_solve(ac, rc, tol=1e-12, max_iters=3)
    exc = err.value
    assert exc.best is not None
    assert len(exc.report.residual_history) == 4
    # the best iterate is at least as good as the start
    assert np.linalg.norm(rc - ac @ exc.best) <= np.linalg.norm(rc)


def test_pcg_a_norm_error_monotone():
    ac, rc, _ = laplace_system(4)
    x_star = np.linalg.solve(ac.toarray(), rc)

    def a_norm(v):
        return float(np.sqrt(v @ (ac @ v)))

    errors = []
    for k in range(1, 12):
        try:
            xk, _ = pcg_solve(ac, rc, tol=1e-15, max_iters=k)
        except NoConvergence as exc:
            xk = exc.last
        errors.append(a_norm(x_star - xk))
    for e1, e2 in zip(errors, errors[1:]):
        assert e2 <= e1 * (1.0 + 1e-10)


@pytest.mark.parametrize("multigrid, tol", [(True, 1e-10), (False, 1e-12)])
def test_pcg_stops_at_attainable_accuracy(multigrid, tol):
    # on n = 128 the recurrence residual meets the target but the true
    # residual cannot; restarting forever would spend the whole budget
    mesh = nested_meshes(4)[-1]
    ac, rc = jump_system(mesh)
    preconditioner = VCycle(mesh, ac) if multigrid else None
    with pytest.raises(NoConvergence, match="stagnated") as err:
        pcg_solve(ac, rc, tol=tol, max_iters=4000,
                  preconditioner=preconditioner)
    exc = err.value
    assert exc.report.iterations < (100 if multigrid else 2000)
    best = np.linalg.norm(rc - ac @ exc.best)
    assert best <= np.linalg.norm(rc - ac @ exc.last)
    assert best > tol * np.linalg.norm(rc)
    assert f"best true residual {best:.3e}" in str(exc)


def test_vcycle_is_symmetric_and_positive():
    mesh = nested_meshes(2)[-1]
    ac, _ = jump_system(mesh)
    b = VCycle(mesh, ac)
    assert len(b.levels) == 2
    # every level solves on its mesh's free vertices
    for level, level_mesh in zip(b.levels, (mesh, mesh.parent)):
        n_free = len(level_mesh.interior_vertices)
        assert level.matrix.shape == (n_free, n_free)
    rng = np.random.default_rng(3)
    for _ in range(5):
        r1, r2 = rng.standard_normal((2, ac.shape[0]))
        b2 = b(r2)
        assert abs(r1 @ b2 - r2 @ b(r1)) <= (
            1e-12 * np.linalg.norm(r1) * np.linalg.norm(b2))
        assert r1 @ b(r1) > 0.0


def test_vcycle_pcg_iterations_do_not_grow_with_refinement(monkeypatch):
    meshes = nested_meshes(4)
    seen = []

    def spy(a, rhs, **kwargs):
        seen.append(kwargs["preconditioner"])
        return pcg_solve(a, rhs, **kwargs)

    # a root mesh has no hierarchy: its Newton steps run Jacobi-PCG
    monkeypatch.setattr(solvers, "pcg_solve", spy)
    newton_solve(meshes[0], builtin_problem("power11"))
    assert seen and all(b is None for b in seen)
    counts = []
    for mesh in meshes[1:]:
        ac, rc = jump_system(mesh)
        _, report = pcg_solve(ac, rc, tol=1e-8,
                              preconditioner=VCycle(mesh, ac))
        counts.append(report.iterations)
    # Jacobi needs 69 on n = 32 and doubles per level
    assert max(counts) <= 25, counts


def test_vcycle_is_freed_without_the_garbage_collector(monkeypatch):
    refs = []

    def spy(a, rhs, **kwargs):
        # every earlier cycle died when its pcg_solve returned
        assert all(ref() is None for ref in refs)
        levels = kwargs["preconditioner"].levels
        # the cycle uses the prolongations cached on the meshes
        assert levels[0].prolongation is fine.interior_prolongation
        assert levels[1].prolongation is fine.parent.interior_prolongation
        assert levels[0].restriction is fine.interior_restriction
        refs.append(weakref.ref(levels[-1].matrix))
        return pcg_solve(a, rhs, **kwargs)

    monkeypatch.setattr(solvers, "pcg_solve", spy)
    problem = builtin_problem("power11")
    fine = nested_meshes(2)[-1]
    gc.disable()
    try:
        newton_solve(fine, problem)
        linearized_solve(fine, problem, FemFunction.zeros(fine))
        assert len(refs) > 1
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def newton_step_at(mesh, problem, values):
    """Arguments of a Newton step at ``values`` on ``mesh``."""
    quad = triangle_rule(5)
    stiffness = assemble_stiffness(mesh, problem.diffusion)
    state = FemFunction(mesh, values)
    residual = assemble_semilinear_residual(mesh, state, problem, quad,
                                            stiffness=stiffness)
    return mesh, problem, state, residual, stiffness, quad


def test_newton_step_scatters_the_correction_onto_the_free_vertices():
    mesh = nested_meshes(1)[-1]
    problem = builtin_problem("power11")
    args = newton_step_at(mesh, problem, np.zeros(mesh.n_vertices))
    delta, report = newton_step(*args, tol=1e-9)
    assert report.converged
    assert delta.shape == (mesh.n_vertices,)
    assert np.all(delta[mesh.boundary_vertices] == 0.0)
    # the interior values solve the Jacobian's interior block
    _, _, state, residual, stiffness, quad = args
    jac = stiffness + assemble_reaction_jacobian(
        mesh, state, problem.nonlinearity.d1, quad)
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
    gap = jac.toarray()[np.ix_(free, free)] @ delta[free] + residual[free]
    assert np.linalg.norm(gap) <= 1e-9 * np.linalg.norm(residual)


def test_newton_step_out_of_budget_carries_full_length_iterates(
        monkeypatch):
    def short_pcg(a, rhs, **kwargs):
        return pcg_solve(a, rhs, max_iters=2, **kwargs)

    monkeypatch.setattr(solvers, "pcg_solve", short_pcg)
    mesh = nested_meshes(1)[-1]
    problem = builtin_problem("power11")
    args = newton_step_at(mesh, problem, np.zeros(mesh.n_vertices))
    with pytest.raises(NoConvergence, match="no convergence") as err:
        newton_step(*args, tol=1e-13)
    for iterate in (err.value.best, err.value.last):
        assert iterate.shape == (mesh.n_vertices,)
        assert np.all(iterate[mesh.boundary_vertices] == 0.0)
        assert np.any(iterate != 0.0)
    # newton_solve steps along the best iterate instead
    with pytest.raises(NoConvergence, match="newton") as err:
        newton_solve(mesh, problem, None, NewtonOptions(max_iters=1))
    assert err.value.report.iterations == 1


@pytest.mark.parametrize("c", [0.0, 1.0, 10.0])
def test_newton_single_iteration_on_affine_problems(c):
    problem = builtin_problem("linear_reaction", c=c, f=1.0)
    mesh = generate_interface_mesh(8)
    opts = NewtonOptions(abs_tol=1e-12, rel_tol=1e-2, max_iters=10)
    u, report = newton_solve(mesh, problem, None, opts)
    assert report.converged
    assert report.iterations == 1


def test_newton_needs_more_iterations_when_nonlinear():
    problem = builtin_problem("power11")
    mesh = generate_interface_mesh(8)
    opts = NewtonOptions(abs_tol=1e-12, rel_tol=1e-2, max_iters=40)
    u, report = newton_solve(mesh, problem, None, opts)
    assert report.converged
    assert report.iterations > 1


def test_newton_power11_tight_tolerance():
    problem = builtin_problem("power11")
    mesh = generate_interface_mesh(16)
    u, report = newton_solve(
        mesh, problem, None,
        NewtonOptions(abs_tol=1e-10, rel_tol=1e-14, max_iters=60))
    assert report.converged
    assert report.residual_history[-1] < 1e-10
    assert np.all(u.values[mesh.boundary_vertices] == 0.0)


def test_newton_residual_history_weakly_decreasing():
    problem = builtin_problem("sinh_pbe", g_flux=100.0)
    mesh = generate_interface_mesh(8)
    _, report = newton_solve(mesh, problem)
    hist = report.residual_history
    assert all(r2 <= r1 for r1, r2 in zip(hist, hist[1:]))


def test_newton_quadratic_convergence_on_sinh():
    problem = builtin_problem("sinh_pbe", g_flux=100.0)
    mesh = generate_interface_mesh(16)
    opts = NewtonOptions(abs_tol=1e-13, rel_tol=1e-14, max_iters=60)
    star, report = newton_solve(mesh, problem, None, opts)
    errors = []
    for k in range(1, report.iterations):
        try:
            uk, _ = newton_solve(mesh, problem, None, NewtonOptions(
                abs_tol=1e-13, rel_tol=1e-14, max_iters=k))
        except NoConvergence as exc:
            uk = exc.best
        errors.append(float(np.linalg.norm(uk.values - star.values)))
    assert len(errors) >= 2
    ratios = [e2 / e1 ** 2 for e1, e2 in zip(errors, errors[1:])]
    # calibrated headroom: observed ratios are ~0.01-0.06
    assert all(r <= 1.0 for r in ratios)


def test_newton_discrete_linf_bounds():
    problem = cube_problem()
    barriers = compute_barriers(problem)
    mesh = generate_interface_mesh(8, problem.domain, problem.interface_box)
    for _ in range(2):
        u, _ = newton_solve(mesh, problem)
        report = linf_check(u, barriers)
        assert report.passes
        mesh = refine_uniform(mesh)


def test_newton_independent_of_initial_guess():
    problem = builtin_problem("sinh_pbe")
    mesh = generate_interface_mesh(8)
    opts = NewtonOptions(abs_tol=1e-12, rel_tol=1e-13, max_iters=60)
    rng = np.random.default_rng(6)
    solutions = []
    for values in (
        np.zeros(mesh.n_vertices),
        np.full(mesh.n_vertices, 0.5),
        np.full(mesh.n_vertices, -0.5),
        rng.uniform(-0.3, 0.3, mesh.n_vertices),
    ):
        values[mesh.boundary_vertices] = 0.0
        u, _ = newton_solve(mesh, problem, FemFunction(mesh, values), opts)
        solutions.append(u.values)
    for other in solutions[1:]:
        assert np.abs(other - solutions[0]).max() <= 1e-8


def test_newton_no_convergence_carries_best():
    problem = builtin_problem("power11")
    mesh = generate_interface_mesh(8)
    with pytest.raises(NoConvergence) as err:
        newton_solve(mesh, problem, None,
                     NewtonOptions(abs_tol=1e-12, rel_tol=1e-14, max_iters=1))
    exc = err.value
    assert exc.best is not None
    assert exc.report.iterations == 1


def test_newton_unreachable_tolerance_reports_best():
    problem = builtin_problem("sinh_pbe")
    mesh = generate_interface_mesh(4)
    with pytest.raises((LineSearchStall, NoConvergence)) as err:
        newton_solve(mesh, problem, None,
                     NewtonOptions(abs_tol=1e-300, rel_tol=1e-300,
                                   max_iters=200))
    # the final iterate is still an excellent solution
    assert err.value.report.residual_history[-1] < 1e-10
    assert err.value.best is not None


def test_newton_line_search_stall_on_inconsistent_derivative():
    # a lying d1 (reported zero, true slope huge) sends Newton in a
    # direction no damping can rescue; the stall must be diagnosed
    from twogridfem import Nonlinearity, Problem

    lying = Problem(
        diffusion={1: 1.0, 2: 1.0},
        nonlinearity=Nonlinearity(
            eval=lambda x, xi: 1e8 * xi,
            d1=lambda x, xi: np.zeros(np.shape(xi)),
            d2=lambda x, xi: np.zeros(np.shape(xi)),
            barrier_alpha=0.0, barrier_beta=0.0),
        source=lambda x: np.ones(x.shape[:-1]),
        source_bound=1.0,
    )
    mesh = generate_interface_mesh(4)
    with pytest.raises(LineSearchStall):
        newton_solve(mesh, lying, None,
                     NewtonOptions(abs_tol=1e-10, rel_tol=1e-12,
                                   max_iters=10))


def test_newton_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(abs_tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iters=0)


def test_newton_rejects_mismatched_initial():
    problem = builtin_problem("sinh_pbe")
    mesh = generate_interface_mesh(4)
    other = generate_interface_mesh(4)
    with pytest.raises(ValueError):
        newton_solve(mesh, problem, FemFunction.zeros(other))
