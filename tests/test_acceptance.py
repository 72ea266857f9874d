"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  The two study fixtures (manufactured rates, power11
two-grid) are module-scoped because they carry the heavy solves.
"""

import numpy as np
import pytest

from twogridfem import (
    FemFunction,
    NewtonOptions,
    builtin_problem,
    compute_barriers,
    convergence_report,
    energy_norm,
    error_norms,
    generate_interface_mesh,
    ladyzhenskaya_margin,
    linf_check,
    manufactured_interface_problem,
    nested_newton_solve,
    newton_levels,
    newton_solve,
    pcg_solve,
    prolongate,
    refine_uniform,
    select_coarse_size,
    twogrid_bound_ratio,
    two_grid_solve,
)
from twogridfem.assembly import apply_dirichlet, assemble_stiffness
from twogridfem.solvers import NoConvergence

from conftest import cube_problem, dense_stiffness_oracle

TIGHT = NewtonOptions(abs_tol=1e-10, rel_tol=1e-12, max_iters=80)


def report(criterion, passed, detail):
    print(f"[acceptance] criterion {criterion}: "
          f"{'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def hierarchy(n0, levels, problem):
    meshes = [generate_interface_mesh(n0, problem.domain,
                                      problem.interface_box)]
    for _ in range(levels):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


@pytest.fixture(scope="module")
def manufactured_study():
    """Criteria 1-3: D = (1000, 1), s = 2, levels h = 1/8 .. 1/128."""
    problem, exact = manufactured_interface_problem(1000.0, 1.0)
    meshes = hierarchy(16, 4, problem)  # cell sizes 1/8 .. 1/128
    records = [error_norms(problem.diffusion, u, exact)
               for mesh, (u, _) in zip(
                   meshes, newton_levels(meshes, problem, TIGHT))]
    return convergence_report(records)


@pytest.fixture(scope="module")
def power11_study():
    """Criterion 4/8 solves: chain n = 8 .. 512 with a 2-level-finer
    reference above the h = 1/64 study level."""
    problem = builtin_problem("power11")
    meshes = hierarchy(8, 6, problem)  # n = 8, 16, ..., 512
    solutions = [u for u, _ in newton_levels(meshes, problem, TIGHT)]
    return {"problem": problem, "meshes": meshes, "solutions": solutions}


def test_criterion_1_energy_rate(manufactured_study):
    rate = manufactured_study.eoc_energy[-1]
    report(1, abs(rate - 1.0) <= 0.1, f"eoc_energy -> {rate:.4f}, want 1.0+-0.1")


def test_criterion_2_l2_rate(manufactured_study):
    rate = manufactured_study.eoc_l2[-1]
    report(2, abs(rate - 2.0) <= 0.15, f"eoc_l2 -> {rate:.4f}, want 2.0+-0.15")


def test_criterion_3_l4_rate_lower_bound(manufactured_study):
    rate = manufactured_study.eoc_l4[-1]
    report(3, rate >= 1.5 - 0.1, f"eoc_l4 -> {rate:.4f}, want >= 1.4")


def test_criterion_4_two_grid_quality(power11_study):
    problem = power11_study["problem"]
    meshes = power11_study["meshes"]
    solutions = power11_study["solutions"]
    fine = meshes[4]            # n = 128, cell size 1/64
    reference = solutions[-1]   # n = 512, two refinements finer

    h_sel = select_coarse_size(1.0 / 64.0, 2.0, 2.0, d=2)
    assert h_sel == 0.25  # H = h^(1/3) lands on a level at h = 1/64
    coarse = meshes[0]          # n = 8, cell size 1/4

    result = two_grid_solve(coarse, fine, problem)
    err_direct = error_norms(problem.diffusion, solutions[4],
                             reference).err_energy
    err_two = error_norms(problem.diffusion, result.fine_solution,
                          reference).err_energy
    err_base = error_norms(problem.diffusion,
                           prolongate(result.coarse_solution, fine),
                           reference).err_energy
    assert err_two <= err_base  # the fine Newton update never hurts
    ratio = err_two / err_direct
    report(4, ratio <= 1.5,
           f"|||u - u^h||| / |||u - u_h||| = {ratio:.4f}, want <= 1.5")


@pytest.mark.parametrize("c", [0.0, 1.0, 10.0])
def test_criterion_5_affine_exactness(c):
    problem = builtin_problem("linear_reaction", c=c, f=1.0)
    worst = 0.0
    for n0, levels in ((4, 1), (4, 2), (8, 1)):
        meshes = hierarchy(n0, levels, problem)
        result = two_grid_solve(meshes[0], meshes[-1], problem)
        direct, _ = newton_solve(
            meshes[-1], problem, None,
            NewtonOptions(abs_tol=1e-12, rel_tol=1e-13, max_iters=40))
        worst = max(worst, float(np.abs(
            result.fine_solution.values - direct.values).max()))
    report(5, worst <= 1e-8,
           f"c={c}: max sup-diff(two-grid, direct) = {worst:.3e}, want <= 1e-8")


def test_criterion_6_discrete_linf_bounds():
    problem = cube_problem()
    barriers = compute_barriers(problem)
    assert barriers == pytest.approx((0.0, 2.0), abs=1e-9)
    meshes = hierarchy(8, 3, problem)
    results = [linf_check(u, barriers, tol=1e-9)
               for u, _ in newton_levels(meshes, problem, TIGHT)]
    passed = all(r.passes for r in results)
    spans = ", ".join(f"[{r.min_value:.3f},{r.max_value:.3f}]"
                      for r in results)
    report(6, passed, f"nodal ranges {spans} inside [0,2]+-1e-9 on 4 levels")


def test_criterion_7_ladyzhenskaya_margins():
    mesh = generate_interface_mesh(8)
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(3):
        for _ in range(100):
            values = rng.standard_normal(mesh.n_vertices)
            values[mesh.boundary_vertices] = 0.0
            margin = ladyzhenskaya_margin(FemFunction(mesh, values))
            worst = min(worst, margin)
        mesh = refine_uniform(mesh)
    report(7, worst >= -1e-12,
           f"min margin over 300 random H^1_0 functions = {worst:.3e}")


def test_criterion_8_lemma_ratio_stability(power11_study):
    problem = power11_study["problem"]
    ratios = []
    for n_coarse, n_fine in ((4, 16), (8, 32), (8, 128)):
        levels = int(np.log2(n_fine // n_coarse))
        meshes = hierarchy(n_coarse, levels, problem)
        u_h, _ = nested_newton_solve(meshes, problem, TIGHT)
        result = two_grid_solve(meshes[0], meshes[-1], problem)
        base = prolongate(result.coarse_solution, meshes[-1])
        ratios.append(twogrid_bound_ratio(
            u_h, base, result.fine_solution, problem.diffusion))
    spread = max(ratios) / min(ratios)
    report(8, spread < 5.0,
           f"ratios {[f'{r:.2f}' for r in ratios]}, spread {spread:.2f} < 5")


def test_criterion_9_solver_properties():
    # (a) PCG against a dense direct oracle on a small constrained system
    mesh = generate_interface_mesh(8)
    assert mesh.n_vertices <= 200
    a = assemble_stiffness(mesh, {1: 1000.0, 2: 1.0})
    rhs = np.sin(np.arange(mesh.n_vertices, dtype=float))
    ac, rc = apply_dirichlet(a, rhs, mesh.boundary_vertices)
    x, _ = pcg_solve(ac, rc, tol=1e-12)
    gap_pcg = float(np.abs(x - np.linalg.solve(ac.toarray(), rc)).max())

    # (b) Newton is exact for affine residuals: one iteration suffices
    # (the forcing tolerance ties the linear residual to the nonlinear one)
    iters = []
    for c in (0.0, 1.0, 10.0):
        problem = builtin_problem("linear_reaction", c=c, f=1.0)
        _, rep = newton_solve(
            mesh, problem, None,
            NewtonOptions(abs_tol=1e-12, rel_tol=1e-2, max_iters=10))
        iters.append(rep.iterations)

    # (c) quadratic convergence on sinh_pbe: e_{k+1}/e_k^2 bounded
    problem = builtin_problem("sinh_pbe", g_flux=100.0)
    m16 = generate_interface_mesh(16)
    opts = NewtonOptions(abs_tol=1e-13, rel_tol=1e-14, max_iters=60)
    star, rep = newton_solve(m16, problem, None, opts)
    errors = []
    for k in range(1, rep.iterations):
        try:
            uk, _ = newton_solve(m16, problem, None, NewtonOptions(
                abs_tol=1e-13, rel_tol=1e-14, max_iters=k))
        except NoConvergence as exc:
            uk = exc.best
        errors.append(float(np.linalg.norm(uk.values - star.values)))
    ratios = [e2 / e1 ** 2 for e1, e2 in zip(errors, errors[1:])]

    passed = (gap_pcg <= 1e-8 and all(k == 1 for k in iters)
              and len(ratios) >= 2 and all(r <= 1.0 for r in ratios))
    report(9, passed,
           f"pcg-vs-dense {gap_pcg:.2e} <= 1e-8; affine iters {iters} == 1; "
           f"quadratic ratios {[f'{r:.3f}' for r in ratios]} bounded")


def test_criterion_10_stiffness_oracle_equivalence():
    mesh = generate_interface_mesh(2, (-1, 1, -1, 1), (-1, 0, -1, 1))
    assert mesh.n_vertices == 9  # 3x3 vertices
    assembled = assemble_stiffness(mesh, {1: 1000.0, 2: 1.0}).toarray()
    oracle = dense_stiffness_oracle(mesh, {1: 1000.0, 2: 1.0})
    gap = float(np.abs(assembled - oracle).max())
    scale = float(np.abs(oracle).max())
    report(10, gap <= 1e-13 * scale,
           f"max entry gap {gap:.3e} <= 1e-13 * {scale:.0f}")
