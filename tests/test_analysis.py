import math

import numpy as np
import pytest

from twogridfem import (
    BoundaryNotZero,
    DegenerateDenominator,
    ErrorRecord,
    FemFunction,
    ZeroError,
    builtin_problem,
    convergence_report,
    energy_norm,
    error_norms,
    estimate_eoc,
    generate_interface_mesh,
    grad_l2_norm,
    ladyzhenskaya_margin,
    ladyzhenskaya_margin_formula,
    linf_check,
    lp_norm,
    manufactured_interface_problem,
    newton_levels,
    newton_solve,
    prolongate,
    refine_uniform,
    triangle_rule,
    twogrid_bound_ratio,
)

from conftest import grad_l2_squared_oracle

D_UNIT = {1: 1.0, 2: 1.0}
D_JUMP = {1: 1000.0, 2: 1.0}


def test_energy_norm_constant_is_zero():
    mesh = generate_interface_mesh(4)
    v = FemFunction(mesh, np.full(mesh.n_vertices, 2.5))
    assert energy_norm(mesh, D_JUMP, v) <= 1e-6  # roundoff on ~1e3 entries


def test_energy_norm_scales_with_sqrt_of_diffusion():
    mesh = generate_interface_mesh(4)
    rng = np.random.default_rng(0)
    v = FemFunction(mesh, rng.standard_normal(mesh.n_vertices))
    base = energy_norm(mesh, {1: 1.0, 2: 2.0}, v)
    scaled = energy_norm(mesh, {1: 4.0, 2: 8.0}, v)
    assert scaled == pytest.approx(2.0 * base, rel=1e-14)


def test_energy_norm_hat_function_hand_value(unit_square_pair):
    # hat at vertex 0 over two unit right triangles: sum area*|grad|^2 = 1
    v = FemFunction(unit_square_pair, np.array([1.0, 0.0, 0.0, 0.0]))
    assert energy_norm(unit_square_pair, D_UNIT, v) == pytest.approx(
        1.0, rel=1e-14)


def test_energy_norm_matches_gradient_oracle():
    mesh = generate_interface_mesh(8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.standard_normal(mesh.n_vertices)
        v = FemFunction(mesh, vals)
        oracle = math.sqrt(grad_l2_squared_oracle(mesh, vals))
        assert grad_l2_norm(mesh, v) == pytest.approx(oracle, rel=1e-11)


def test_energy_sandwich_random_functions():
    mesh = generate_interface_mesh(8)
    rng = np.random.default_rng(13)
    for _ in range(100):
        vals = rng.standard_normal(mesh.n_vertices)
        v = FemFunction(mesh, vals)
        nrm = energy_norm(mesh, D_JUMP, v)
        grad = math.sqrt(grad_l2_squared_oracle(mesh, vals))
        assert math.sqrt(1.0) * grad * (1 - 1e-10) <= nrm
        assert nrm <= math.sqrt(1000.0) * grad * (1 + 1e-10)


def test_lp_norm_constants():
    mesh = generate_interface_mesh(4, (-1, 1, -1, 1))
    one = FemFunction(mesh, np.ones(mesh.n_vertices))
    assert lp_norm(mesh, one, 2) == pytest.approx(2.0, abs=1e-13)
    assert lp_norm(mesh, one, 4) == pytest.approx(math.sqrt(2.0), abs=1e-13)
    zero = FemFunction.zeros(mesh)
    assert lp_norm(mesh, zero, 2) == 0.0


def test_lp_norm_linear_function_analytic():
    mesh = generate_interface_mesh(8, (-1, 1, -1, 1))
    # ||x||_L2 over (-1,1)^2: sqrt(int x^2 dx dy) = sqrt(4/3)
    exact = math.sqrt(4.0 / 3.0)
    assert lp_norm(mesh, lambda p: p[..., 0], 2) == pytest.approx(
        exact, abs=1e-13)
    interp = FemFunction(mesh, mesh.vertices[:, 0])
    assert lp_norm(mesh, interp, 2) == pytest.approx(exact, abs=1e-13)


def test_lp_norm_rejects_other_exponents():
    mesh = generate_interface_mesh(4)
    with pytest.raises(ValueError):
        lp_norm(mesh, FemFunction.zeros(mesh), 3)


def test_error_norms_self_reference_is_zero():
    mesh = generate_interface_mesh(4)
    rng = np.random.default_rng(1)
    u = FemFunction(mesh, rng.standard_normal(mesh.n_vertices))
    rec = error_norms(mesh, D_UNIT, u, u)
    assert rec.err_energy == 0.0
    assert rec.err_l2 == 0.0
    assert rec.err_l4 == 0.0
    assert rec.err_linf_nodal == 0.0


def test_error_norms_interpolant_positive_and_halving():
    problem, exact = manufactured_interface_problem(10.0, 1.0)
    mesh = generate_interface_mesh(8, problem.domain, problem.interface_box)
    u = FemFunction(mesh, exact.exact(mesh.vertices))
    rec1 = error_norms(mesh, problem.diffusion, u, exact)
    assert rec1.err_energy > 0 and rec1.err_l2 > 0
    assert rec1.err_linf_nodal == 0.0  # nodal interpolant
    fine = refine_uniform(mesh)
    rec2 = error_norms(fine, problem.diffusion,
                       FemFunction(fine, exact.exact(fine.vertices)), exact)
    assert rec2.err_energy == pytest.approx(rec1.err_energy / 2.0, rel=0.2)


def test_error_norms_against_reference_solution():
    problem = builtin_problem("sinh_pbe")
    coarse = generate_interface_mesh(4)
    fine = refine_uniform(refine_uniform(coarse))
    u_c, _ = newton_solve(coarse, problem)
    u_f, _ = newton_solve(fine, problem)
    rec = error_norms(coarse, problem.diffusion, u_c, u_f)
    assert rec.err_energy > 0
    assert rec.h == coarse.h
    # self-consistency: the difference measured directly on the fine mesh
    diff = prolongate(u_c, fine) - u_f
    assert rec.err_l2 == pytest.approx(lp_norm(fine, diff, 2), rel=1e-12)


def test_estimate_eoc_hand_values():
    assert estimate_eoc([1 / 8, 1 / 16], [0.1, 0.025]) == [
        pytest.approx(2.0)]
    assert estimate_eoc([1 / 8, 1 / 16], [0.1, 0.05]) == [pytest.approx(1.0)]
    assert estimate_eoc([1 / 8, 1 / 16], [0.1, 0.1]) == [pytest.approx(0.0)]


def test_estimate_eoc_errors():
    with pytest.raises(ZeroError):
        estimate_eoc([0.5, 0.25], [0.1, 0.0])
    with pytest.raises(ValueError):
        estimate_eoc([0.5], [0.1])
    with pytest.raises(ValueError):
        estimate_eoc([0.25, 0.5], [0.1, 0.2])


def test_convergence_report_single_record_empty_eoc():
    rec = ErrorRecord(h=0.5, n_dof=9, err_energy=1.0, err_l2=0.1,
                      err_l4=0.1, err_linf_nodal=0.05)
    report = convergence_report([rec])
    assert report.eoc_energy == []
    assert report.eoc_l2 == []


def test_linf_check_pass_and_fail():
    mesh = generate_interface_mesh(4)
    zero = FemFunction.zeros(mesh)
    assert linf_check(zero, (0.0, 0.0)).passes
    values = np.zeros(mesh.n_vertices)
    values[7] = 3.0  # upper barrier 2 exceeded
    bad = linf_check(FemFunction(mesh, values), (0.0, 2.0))
    assert not bad.passes
    assert bad.violations == [7]
    assert bad.max_value == 3.0


def test_ladyzhenskaya_zero_function():
    mesh = generate_interface_mesh(4)
    assert ladyzhenskaya_margin(mesh, FemFunction.zeros(mesh)) == 0.0


def test_ladyzhenskaya_hat_function():
    mesh = generate_interface_mesh(8)
    center = int(np.nonzero(np.all(mesh.vertices == [0.0, 0.0], axis=1))[0][0])
    values = np.zeros(mesh.n_vertices)
    values[center] = 1.0
    assert ladyzhenskaya_margin(mesh, FemFunction(mesh, values)) >= 0.0


def test_ladyzhenskaya_random_h10_functions():
    mesh = generate_interface_mesh(8)
    rng = np.random.default_rng(21)
    for _ in range(100):
        values = rng.standard_normal(mesh.n_vertices)
        values[mesh.boundary_vertices] = 0.0
        margin = ladyzhenskaya_margin(mesh, FemFunction(mesh, values))
        assert margin >= -1e-12


def test_ladyzhenskaya_requires_zero_boundary():
    mesh = generate_interface_mesh(4)
    values = np.ones(mesh.n_vertices)
    with pytest.raises(BoundaryNotZero):
        ladyzhenskaya_margin(mesh, FemFunction(mesh, values))


def test_ladyzhenskaya_rejects_3d_mesh_execution():
    mesh = generate_interface_mesh(4)
    with pytest.raises(ValueError):
        ladyzhenskaya_margin(mesh, FemFunction.zeros(mesh), d=3)


def test_ladyzhenskaya_formula_constants():
    # 2D: 2^(1/4) * l2^(1/2) * grad^(1/2) - l4
    assert ladyzhenskaya_margin_formula(4.0, 9.0, 1.0, d=2) == pytest.approx(
        2.0 ** 0.25 * 2.0 * 3.0 - 1.0)
    # 3D lemma constant sqrt(2), exponents (1/4, 3/4)
    assert ladyzhenskaya_margin_formula(16.0, 16.0, 1.0, d=3) == \
        pytest.approx(math.sqrt(2.0) * 2.0 * 8.0 - 1.0)
    # 3D appendix constant (4/3)^(3/8)
    assert ladyzhenskaya_margin_formula(1.0, 1.0, 0.0, d=3,
                                        constant="appendix") == \
        pytest.approx((4.0 / 3.0) ** 0.375)
    with pytest.raises(ValueError):
        ladyzhenskaya_margin_formula(1, 1, 1, d=2, constant="appendix")
    with pytest.raises(ValueError):
        ladyzhenskaya_margin_formula(1, 1, 1, d=3, constant="sharp")
    with pytest.raises(ValueError):
        ladyzhenskaya_margin_formula(1, 1, 1, d=1)


def test_twogrid_bound_ratio_zero_numerator():
    mesh = generate_interface_mesh(4)
    rng = np.random.default_rng(2)
    u_h = FemFunction(mesh, rng.standard_normal(mesh.n_vertices))
    u_coarse = FemFunction(mesh, u_h.values + 0.1)
    assert twogrid_bound_ratio(u_h, u_coarse, u_h, mesh, D_UNIT) == 0.0


def test_twogrid_bound_ratio_degenerate_denominator():
    mesh = generate_interface_mesh(4)
    u = FemFunction(mesh, np.random.default_rng(3).standard_normal(
        mesh.n_vertices))
    with pytest.raises(DegenerateDenominator):
        twogrid_bound_ratio(u, u, FemFunction.zeros(mesh), mesh, D_UNIT)


def test_l2_lifting_gap_on_manufactured_problem():
    problem, exact = manufactured_interface_problem(1000.0, 1.0)
    meshes = [generate_interface_mesh(8, problem.domain,
                                      problem.interface_box)]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    records = [error_norms(mesh, problem.diffusion, u, exact)
               for mesh, (u, _) in zip(meshes, newton_levels(meshes, problem))]
    report = convergence_report(records)
    # duality lifting: eoc_l2 - eoc_energy ~ t = 1 (with 20% slack)
    assert report.eoc_l2[-1] - report.eoc_energy[-1] >= 0.8
