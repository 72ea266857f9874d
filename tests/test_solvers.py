import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import twogridfem.assembly as assembly
import twogridfem.solvers as solvers
from twogridfem import (
    CoarseHierarchy,
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
    make_initial_guess,
    newton_levels,
    newton_solve,
    newton_step,
    pcg_solve,
    refine_uniform,
)

from conftest import cube_problem, strong_cube_problem, transient_peak

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


def jump_cycle(mesh, ac):
    """A V-cycle for :func:`jump_system`'s matrix ``ac``: its coarse levels
    are the stiffness with D = 1000/1, a problem without reaction at zero."""
    problem = builtin_problem("zero_reaction", d_inside=1000.0)
    return VCycle(mesh, ac, CoarseHierarchy(FemFunction.zeros(mesh), problem))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_pcg_refuses_a_non_finite_right_hand_side(bad):
    a = sp.identity(4, format="csr")
    with pytest.raises(solvers.SolverError, match="right-hand side is not finite"):
        pcg_solve(a, np.array([1.0, bad, 0.0, 0.0]))


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
    preconditioner = jump_cycle(mesh, ac) if multigrid else None
    with pytest.raises(NoConvergence, match="stagnated") as err:
        pcg_solve(ac, rc, tol=tol, max_iters=4000,
                  preconditioner=preconditioner)
    exc = err.value
    assert exc.report.iterations < (100 if multigrid else 2000)
    best = np.linalg.norm(rc - ac @ exc.best)
    assert best <= np.linalg.norm(rc - ac @ exc.last)
    assert best > tol * np.linalg.norm(rc)
    assert f"best true residual {best:.3e}" in str(exc)


def power11_cycle(mesh):
    """The V-cycle of a Newton step at power11's discrete solution, with
    its own hierarchy."""
    problem = builtin_problem("power11")
    u, _ = newton_solve(mesh, problem)
    return VCycle(mesh, assembly._free_jacobian(u, problem),
                  CoarseHierarchy(u, problem))


def start_cycle(problem):
    """The V-cycle of ``problem``'s first Newton step from the zero start,
    as :func:`newton_step` builds it, as a function of the mesh."""
    def cycle(mesh):
        state = make_initial_guess(mesh, problem)
        return VCycle(mesh, assembly._free_jacobian(state, problem),
                      CoarseHierarchy(state, problem))
    return cycle


CYCLES = pytest.mark.parametrize("cycle", [
    lambda mesh: jump_cycle(mesh, jump_system(mesh)[0]),
    power11_cycle,
    start_cycle(builtin_problem("linear_reaction", d_inside=1e6)),
    start_cycle(builtin_problem("linear_reaction", c=1e4)),
], ids=["jump", "power11", "contrast-1e6", "reaction-1e4"])


@CYCLES
def test_vcycle_is_symmetric_and_positive(cycle):
    # contrast and reaction spread the smoother's weight times the diagonal
    # over 0.8 ... 1.34 here, where over-relaxation could break positivity
    mesh = nested_meshes(2)[-1]
    b = cycle(mesh)
    assert len(b.levels) == 2
    # every level solves on its mesh's free vertices
    for level, level_mesh in zip(b.levels, (mesh, mesh.parent)):
        n_free = len(level_mesh.interior_vertices)
        assert level.matrix.shape == (n_free, n_free)
    rng = np.random.default_rng(3)
    for _ in range(5):
        r1, r2 = rng.standard_normal((2, len(mesh.interior_vertices)))
        b2 = b(r2)
        assert abs(r1 @ b2 - r2 @ b(r1)) <= (
            1e-12 * np.linalg.norm(r1) * np.linalg.norm(b2))
        assert r1 @ b(r1) > 0.0


def top_eigenvalue(a, weights):
    """lambda_max(W A) for W = diag(weights), from the similar SPD matrix
    W^1/2 A W^1/2."""
    root = sp.diags(np.sqrt(weights))
    return eigsh(root @ a @ root, k=1, which="LA", tol=1e-10,
                 return_eigenvectors=False)[0]


@CYCLES
def test_vcycle_smoother_weights_converge_on_every_level(cycle):
    mesh = nested_meshes(3)[-1]
    b = cycle(mesh)
    assert len(b.levels) == 3
    for level in b.levels:
        a = level.matrix
        l1 = 1.0 / (abs(a) @ np.ones(a.shape[0]))
        # the undamped l1 weights bound lambda_max(W A) by 1 (Gershgorin)
        assert top_eigenvalue(a, l1) <= 1.0 + 1e-10
        # the cycle over-relaxes them; the top mode is damped by
        # |1 - lambda|, not at all at 2: measured 1.6000 on every level
        # (1.0000 without the damping)
        assert 1.5 <= top_eigenvalue(a, level.weights) < 1.9


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
    with pytest.raises(ValueError, match="root mesh has no coarse levels"):
        CoarseHierarchy(FemFunction.zeros(meshes[0]),
                        builtin_problem("power11"))
    counts = []
    for mesh in meshes[1:]:
        ac, rc = jump_system(mesh)
        _, report = pcg_solve(ac, rc, tol=1e-8,
                              preconditioner=jump_cycle(mesh, ac))
        counts.append(report.iterations)
    # 11, 11, 12, 13 on n = 16 ... 128 (13 ... 16 with the undamped
    # smoother); Jacobi needs 69 on n = 32 and doubles per level
    assert max(counts) <= 14, counts


def test_vcycle_is_freed_without_the_garbage_collector(monkeypatch):
    fine_refs, coarse_refs, cycle_refs, reused, handed = [], [], [], [], []
    meshes = nested_meshes(3)
    by_free = {len(mesh.interior_vertices): mesh for mesh in meshes}

    def spy(a, rhs, **kwargs):
        cycle = kwargs["preconditioner"]
        if cycle is None:  # Jacobi on the root
            return pcg_solve(a, rhs, **kwargs)
        levels = cycle.levels
        # every earlier step's fine matrix died before this step assembled
        # its own, unless this cycle runs on it as a coarse level: one
        # matrix per mesh
        coarse = [level.matrix for level in levels[1:]]
        assert all(ref() is None or any(ref() is m for m in coarse)
                   for ref in fine_refs)
        last = cycle_refs[-1]() if cycle_refs else None
        handed.append(last is not None
                      and len(levels) == len(last.levels) + 1
                      and all(x is y for x, y in zip(levels[1:],
                                                     last.levels)))
        reused.append(bool(coarse_refs)
                      and coarse_refs[-1]() is levels[-1].matrix)
        # the cycle uses the prolongations cached on the meshes
        fine = by_free[a.shape[0]]
        for level, mesh in zip(levels, (fine, fine.parent)):
            assert level.prolongation is mesh.interior_prolongation
        # and restrict with a transpose view of their arrays, not a copy
        p0, r0 = fine.interior_prolongation, levels[0].restriction
        assert np.shares_memory(r0.data, p0.data)
        assert np.shares_memory(r0.indices, p0.indices)
        assert levels[0].matrix is a
        fine_refs.append(weakref.ref(a))
        coarse_refs.append(weakref.ref(levels[-1].matrix))
        cycle_refs.append(weakref.ref(cycle))
        return pcg_solve(a, rhs, **kwargs)

    monkeypatch.setattr(solvers, "pcg_solve", spy)
    problem = builtin_problem("power11")
    fine = meshes[2]
    gc.disable()
    try:
        _, report = newton_solve(fine, problem)
        # later steps reused a hierarchy, which lived until the solve
        # returned, and then died with all the others
        assert any(reused)
        assert reused == [not built for built in report.step_new_hierarchy]
        assert not any(handed)
        assert all(ref() is None for ref in coarse_refs + cycle_refs)
        linearized_solve(problem, FemFunction.zeros(fine))
        assert len(fine_refs) > 1
        assert all(ref() is None for ref in fine_refs + coarse_refs)
        # each level's last cycle runs under the next level's first one,
        # and all of them die when the chain returns
        del handed[:]
        reports = [report for _, report in newton_levels(meshes, problem)]
        assert handed == [k > 0 and step == 0
                          for k, report in enumerate(reports[1:])
                          for step in range(report.iterations)]
        assert all(ref() is None
                   for ref in fine_refs + coarse_refs + cycle_refs)
    finally:
        gc.enable()


def test_newton_levels_builds_one_hierarchy_per_chain(monkeypatch):
    builds = []
    build = solvers.CoarseHierarchy.__init__

    def spy(self, state, problem):
        builds.append(state.mesh.n_vertices)
        build(self, state, problem)

    monkeypatch.setattr(solvers.CoarseHierarchy, "__init__", spy)
    meshes = nested_meshes(3)
    reports = [report for _, report in
               newton_levels(meshes, builtin_problem("power11"))]
    # every later level starts on the V-cycle the level before ended with
    assert builds == [meshes[1].n_vertices]
    assert [sum(r.step_new_hierarchy) for r in reports] == [0, 1, 0, 0]
    for report in reports:
        assert len(report.step_linear_iters) == report.iterations
        assert sum(report.step_linear_iters) == report.linear_iters_total
    # 29 when every step built its own hierarchy and ran PCG to the
    # forcing alone
    assert reports[-1].linear_iters_total <= 24


def test_newton_levels_hands_no_cycle_past_a_skipped_level():
    # n = 64's first V-cycle cannot run on n = 16's levels under n = 32's
    meshes = nested_meshes(3)[1::2]  # n = 16, 64
    reports = [report for _, report in
               newton_levels(meshes, builtin_problem("power11"))]
    assert all(report.converged for report in reports)
    assert [report.step_new_hierarchy[0] for report in reports] == [True,
                                                                    True]


def test_warm_level_holds_one_fine_matrix_at_a_time():
    # the n = 128 level of newton_levels on meshes whose caches an earlier
    # chain built: measured 3.33 MB above live memory, 3.65 MB when each
    # level built its own coarse hierarchy, 4.35 MB when a step's V-cycle
    # lived on while the next step assembled its matrix
    problem = builtin_problem("power11")
    meshes = nested_meshes(4)
    list(newton_levels(meshes, problem))
    levels = newton_levels(meshes, problem)
    for _ in meshes[:-1]:
        next(levels)
    assert transient_peak(lambda: next(levels)) < 3.7e6


@pytest.fixture(scope="module")
def spied_power11_levels():
    """``newton_levels`` on power11, n = 8 ... 128, with the states at which
    each level evaluated a residual, keyed by the mesh's vertex count, and
    the free values of its last correction, keyed by its free count."""
    states, corrections = {}, {}
    free_residual, pcg = solvers._free_residual, solvers.pcg_solve

    def residual_spy(state, *args):
        states.setdefault(state.mesh.n_vertices, []).append(
            state.values.copy())
        return free_residual(state, *args)

    def pcg_spy(a, rhs, **kwargs):
        x, report = pcg(a, rhs, **kwargs)
        corrections[a.shape[0]] = x
        return x, report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_free_residual", residual_spy)
        patch.setattr(solvers, "pcg_solve", pcg_spy)
        levels = list(newton_levels(nested_meshes(4),
                                    builtin_problem("power11")))
    return levels, states, corrections


def test_energy_stop_evaluates_no_residual_after_its_correction(
        spied_power11_levels):
    # r(u0) and r(u1): the residual at the returned u2 made a third pass
    levels, states, _ = spied_power11_levels
    for solution, report in levels[3:]:  # n = 64, 128
        assert report.stopped_by == "energy"
        assert len(states[solution.mesh.n_vertices]) == 2


def test_energy_stop_history_ends_before_the_final_correction(
        spied_power11_levels):
    levels, _, _ = spied_power11_levels
    for _, report in levels[1:]:
        assert report.stopped_by == "energy"
        assert len(report.residual_history) == report.iterations
    root = levels[0][1]
    assert root.stopped_by == "residual"
    assert len(root.residual_history) == root.iterations + 1


def test_energy_stop_takes_the_final_correction_in_full(
        spied_power11_levels):
    levels, states, corrections = spied_power11_levels
    for solution, _ in levels[1:]:
        mesh = solution.mesh
        expected = states[mesh.n_vertices][-1].copy()
        expected[mesh.interior_vertices] += corrections[
            len(mesh.interior_vertices)]
        np.testing.assert_array_equal(solution.values, expected)


def strong_cube_case():
    """The lam = 1e4 cube problem, started at the nodal interpolant of its
    manufactured solution."""
    problem, solution = strong_cube_problem()
    return problem, lambda mesh: solution.exact(mesh.vertices)


@pytest.mark.parametrize("case, tol, most", [
    # 7, 6, 8, 7, 8 iterations on n = 16 ... 256 (9, 7, 5, 8, 10 with the
    # undamped smoother)
    (lambda: (builtin_problem("linear_reaction", c=1e4), None), 1e-8, 9),
    # 7, 7, 7, 7, 8 (9, 8, 9, 9, 10)
    (strong_cube_case, 1e-8, 9),
    # 8, 9, 9, 10, 11 (10, 11, 12, 13, 14)
    (lambda: (builtin_problem("linear_reaction", d_inside=1e6), None),
     1e-6, 12),
], ids=["reaction-1e4", "cube-1e4", "contrast-1e6"])
def test_newton_step_pcg_iterations_under_strong_reaction_and_contrast(
        case, tol, most):
    # coarse levels of the stiffness alone, without the reaction, took
    # 100 and 154 iterations on n = 128 and 256 with a reaction of 1e4
    problem, start = case()
    mesh = generate_interface_mesh(8, problem.domain, problem.interface_box)
    counts = []
    for _ in range(5):
        mesh = refine_uniform(mesh)
        state = make_initial_guess(
            mesh, problem, None if start is None else start(mesh))
        _, report = newton_step(
            problem, state, assemble_semilinear_residual(state, problem),
            tol)
        counts.append(report.iterations)
    assert max(counts) <= most, counts


@pytest.mark.parametrize("refinements, most", [(1, 28), (2, 42), (3, 50)])
def test_cold_newton_pcg_iterations(refinements, most):
    # a cold start begins at J(0) = K, far from the converged Jacobian:
    # only a step that cut the residual tenfold hands its hierarchy on
    # (the bounds are the measured counts; a new hierarchy on every step
    # takes 28, 41 and 48, the undamped smoother 31, 50 and 57)
    mesh = nested_meshes(refinements)[-1]
    _, report = newton_solve(mesh, builtin_problem("power11"))
    hist, built = report.residual_history, report.step_new_hierarchy
    assert built[0]
    assert built[1:] == [new * solvers.HIERARCHY_REUSE_CUT > old
                         for old, new in zip(hist, hist[1:-1])]
    assert report.linear_iters_total <= most


@pytest.mark.parametrize("problem", [
    builtin_problem("power11"),
    builtin_problem("linear_reaction", d_inside=1e4),
], ids=["power11", "linear_reaction"])
def test_newton_forcing_stops_at_a_tenth_of_the_target(problem,
                                                       monkeypatch):
    requests = []

    def spy(a, rhs, **kwargs):
        requests.append((kwargs["tol"], float(np.linalg.norm(rhs))))
        return pcg_solve(a, rhs, **kwargs)

    monkeypatch.setattr(solvers, "pcg_solve", spy)
    opts = NewtonOptions()
    _, report = newton_solve(nested_meshes(2)[-1], problem, None, opts)
    target = max(opts.abs_tol, opts.rel_tol * report.residual_history[0])
    assert len(requests) == report.iterations
    for tol, rhs_norm in requests:
        # the norms of r and of its restriction may differ in the last bit
        floor = min(solvers.FORCING_FACTOR, 0.1 * target / rhs_norm)
        assert tol >= floor * (1.0 - 1e-12)


def test_newton_does_not_ask_pcg_below_roundoff(caplog):
    # the forcing used to ask the last step for a residual of 9e-21,
    # which PCG cannot reach: it stagnated after 33 iterations
    problem = builtin_problem("linear_reaction", d_inside=1e4)
    mesh = nested_meshes(5)[-1]
    with caplog.at_level(logging.WARNING, logger=solvers.__name__):
        _, report = newton_solve(mesh, problem)
    assert report.converged
    assert not [rec for rec in caplog.records
                if rec.levelno >= logging.WARNING]


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "energy_rtol"])
def test_newton_options_refuse_a_nan_tolerance(field):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match=f"{field} must be finite and positive"):
            NewtonOptions(**{field: bad})


@pytest.mark.parametrize("name", ["power11", "linear_reaction"])
def test_cold_newton_stops_on_the_residual(name):
    problem = builtin_problem(name)
    mesh = nested_meshes(3)[-1]  # n = 64
    opts = NewtonOptions()
    _, report = newton_solve(mesh, problem, None, opts)
    assert report.stopped_by == "residual"
    history = report.residual_history
    assert history[-1] <= max(opts.abs_tol, opts.rel_tol * history[0])
    assert len(report.step_decrements) == report.iterations


def test_energy_test_never_stops_after_one_step():
    # on n = 32 from the prolonged n = 16 solution the first decrement,
    # 10.6, lies far below 1e3 |||u||| = 2.2e4, but a contraction needs
    # a second one
    problem = builtin_problem("power11")
    coarse, fine = nested_meshes(2)[1:]
    u_coarse, _ = newton_solve(coarse, problem)
    start = FemFunction(fine, fine.prolongation @ u_coarse.values)
    _, report = newton_solve(fine, problem, start,
                             NewtonOptions(energy_rtol=1e3))
    assert (report.iterations, report.stopped_by) == (2, "energy")


def newton_step_at(mesh, problem, values):
    """Arguments of a Newton step at ``values`` on ``mesh``."""
    state = FemFunction(mesh, values)
    return problem, state, assemble_semilinear_residual(state, problem)


def test_newton_step_scatters_the_correction_onto_the_free_vertices():
    mesh = nested_meshes(1)[-1]
    problem = builtin_problem("power11")
    args = newton_step_at(mesh, problem, np.zeros(mesh.n_vertices))
    delta, report = newton_step(*args, tol=1e-9)
    assert report.converged
    assert delta.shape == (mesh.n_vertices,)
    assert np.all(delta[mesh.boundary_vertices] == 0.0)
    # the interior values solve the Jacobian's interior block
    _, state, residual = args
    jac = (assemble_stiffness(mesh, problem.diffusion)
           + assemble_reaction_jacobian(state, problem.nonlinearity.d1))
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


@pytest.mark.parametrize("interior", [np.nan, 1e40], ids=["nan", "huge"])
def test_newton_refuses_a_non_finite_initial_residual(interior):
    # a NaN residual, or an infinite one and with it an infinite target,
    # passed the stopping test before any step
    problem = builtin_problem("power11")
    mesh = generate_interface_mesh(16)
    initial = make_initial_guess(mesh, problem,
                                 np.full(mesh.n_vertices, interior))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NoConvergence, match="initial residual (nan|inf) is not finite"):
        newton_solve(mesh, problem, initial)


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
            eval=lambda tags, xi: 1e8 * xi,
            d1=lambda tags, xi: np.zeros(np.shape(xi)),
            d2=lambda tags, xi: np.zeros(np.shape(xi)),
            barrier_alpha=0.0, barrier_beta=0.0),
        source=lambda x: np.ones(x.shape[:-1]),
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


def test_solves_assemble_the_stiffness_once_per_mesh_on_its_free_vertices(
        monkeypatch):
    built = []
    stiffness_sums = assembly._stiffness_sums

    def counted(mesh, *args):
        built.append(mesh.n_vertices)
        return stiffness_sums(mesh, *args)

    monkeypatch.setattr(assembly, "_stiffness_sums", counted)
    mesh = refine_uniform(generate_interface_mesh(8))
    problem = builtin_problem("power11")
    u, report = newton_solve(mesh, problem)
    assert report.converged
    # the solve path never builds the full pattern
    assert "csr_pattern" not in vars(mesh)
    # once per mesh of the chain: the V-cycle's coarse level is assembled
    # on the parent's free vertices
    chain = [mesh.n_vertices, mesh.parent.n_vertices]
    assert built == chain
    newton_solve(mesh, problem, u)
    linearized_solve(problem, u)
    assert built == chain
    # the cached stiffness does not keep its mesh alive
    ref = weakref.ref(mesh)
    del mesh, u
    gc.collect()
    assert ref() is None
