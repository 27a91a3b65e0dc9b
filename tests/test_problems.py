"""Manufactured problem and error-report tests."""

import numpy as np
import pytest

from dpglab.dpg import REACTION_DIFFUSION, TrialSpace, assemble_solve
from dpglab.mesh import refine_uniform, unit_square_mesh
from dpglab.postprocess import PostprocessedField
from dpglab.problems import (error_report, lshape_singular, square_smooth)
from dpglab.spaces import project_l2


def fd_pde_residual(problem, x, y, h=1e-4):
    u = problem.exact
    lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h)
           - 4.0 * u(x, y)) / h ** 2
    resid = -lap - problem.source(x, y)
    if problem.kind == REACTION_DIFFUSION:
        resid += u(x, y)
    return resid


def test_square_smooth_values():
    p = square_smooth()
    assert p.exact(0.5, 0.5) == pytest.approx(1 / 16)
    # vanishes on all four boundary edges
    s = np.linspace(0, 1, 13)
    zero = np.zeros_like(s)
    for xs, ys in [(s, zero), (s, zero + 1), (zero, s), (zero + 1, s)]:
        assert np.abs(p.exact(xs, ys)).max() == 0.0
    assert fd_pde_residual(p, 0.3, 0.7) == pytest.approx(0.0, abs=1e-8)


def test_square_smooth_source_formula():
    p = square_smooth()
    x, y = 0.23, 0.61
    expected = 2 * x * (1 - x) + 2 * y * (1 - y) + x * (1 - x) * y * (1 - y)
    assert p.source(x, y) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("problem_factory", [square_smooth, lshape_singular])
def test_pde_residual_at_random_points(problem_factory):
    problem = problem_factory()
    rng = np.random.default_rng(12)
    count = 0
    while count < 100:
        x, y = rng.uniform(-1, 1, 2)
        if problem.domain == "square":
            x, y = (x + 1) / 2, (y + 1) / 2
            if min(x, y, 1 - x, 1 - y) < 1e-3:
                continue
        else:
            if (x >= -0.02 and y <= 0.02) or np.hypot(x, y) < 0.2 or \
                    max(abs(x), abs(y)) > 0.98:
                continue
        assert abs(fd_pde_residual(problem, x, y)) < 1e-6
        count += 1


def test_lshape_solution_values():
    p = lshape_singular()
    # vanishes on both slit edges
    s = np.linspace(0.05, 1, 9)
    assert np.abs(p.exact(s, np.zeros_like(s))).max() < 1e-14
    assert np.abs(p.exact(np.zeros_like(s), -s)).max() < 1e-14
    # r = 1 on the corner bisector: the angular factor is 1 there
    b = np.sqrt(0.5)
    assert p.exact(-b, b) == pytest.approx(1.0, rel=1e-14)
    # harmonic away from the corner
    lap = (p.exact(0.5 + 1e-4, 0.5) + p.exact(0.5 - 1e-4, 0.5)
           + p.exact(0.5, 0.5 + 1e-4) + p.exact(0.5, 0.5 - 1e-4)
           - 4 * p.exact(0.5, 0.5)) / 1e-8
    assert abs(lap) < 1e-6


def test_lshape_gradient_closed_form():
    p = lshape_singular()
    rng = np.random.default_rng(5)
    h = 1e-6
    count = 0
    while count < 60:
        x, y = rng.uniform(-1, 1, 2)
        if (x >= -0.02 and y <= 0.02) or np.hypot(x, y) < 0.2:
            continue
        gx, gy = p.exact_grad(x, y)
        fx = (p.exact(x + h, y) - p.exact(x - h, y)) / (2 * h)
        fy = (p.exact(x, y + h) - p.exact(x, y - h)) / (2 * h)
        assert abs(gx - fx) < 1e-6 and abs(gy - fy) < 1e-6
        count += 1


def test_lshape_origin_is_flagged_singular():
    p = lshape_singular()
    assert p.exact(0.0, 0.0) == 0.0
    gx, gy = p.exact_grad(0.0, 0.0)
    assert not np.isfinite(gx) or not np.isfinite(gy)


def test_error_report_zero_solution_norm():
    # with the zero discrete solution the reported error is ||u|| = 1/30
    problem = square_smooth()
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(0), problem.kind, None)
    rep = error_report(sol, None, problem)
    assert rep.err_u == pytest.approx(1 / 30, rel=1e-12)
    assert rep.err_u_post is None
    assert rep.eta == 0.0


def test_error_report_exact_postprocessed_field():
    # a postprocessed field equal to the exact solution reports zero error
    # up to quadrature accuracy
    from dpglab.dpg import POISSON
    from dpglab.problems import ManufacturedProblem

    def exact(x, y):
        return x * x + y

    problem = ManufacturedProblem(
        name="quadratic", domain="square", kind=POISSON, exact=exact,
        exact_grad=lambda x, y: (2.0 * x, np.ones_like(y)),
        source=lambda x, y: -2.0 * np.ones_like(x), dirichlet=exact,
        regularity="smooth")
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(1), problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    coeffs = project_l2(2, exact, mesh, exactness=12)
    post = PostprocessedField(degree=2, coeffs=coeffs)
    rep = error_report(sol, post, problem)
    assert rep.err_u_post < 1e-12


@pytest.mark.parametrize("broken", ["exact", "exact_grad"])
def test_error_report_rejects_non_finite_exact_solution(broken):
    # a NaN at the error-quadrature points must not turn into err_u = nan
    import dataclasses

    problem = square_smooth()
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(1), problem.kind, problem.source)

    def nan_exact(x, y):
        return np.where(x > 0.5, np.nan, problem.exact(x, y))

    def nan_grad(x, y):
        gx, gy = problem.exact_grad(x, y)
        return gx, np.where(y < 0.25, np.inf, gy)

    bad = dataclasses.replace(problem, **{
        broken: nan_exact if broken == "exact" else nan_grad})
    with pytest.raises(ValueError, match="non-finite at an error-quadrature"):
        error_report(sol, None, bad)


@pytest.mark.parametrize("broken", ["exact", "exact_grad"])
def test_error_report_rejects_exact_solution_of_wrong_shape(broken):
    # one row of values, shape (npts,), would broadcast over every
    # element and give a wrong err_u with no error
    import dataclasses

    problem = square_smooth()
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(1), problem.kind, problem.source)

    def one_row_exact(x, y):
        return problem.exact(x, y)[0]

    def one_row_grad(x, y):
        return tuple(g[0] for g in problem.exact_grad(x, y))

    bad = dataclasses.replace(problem, **{
        broken: one_row_exact if broken == "exact" else one_row_grad})
    with pytest.raises(ValueError, match=f"problem.{broken} returned shape"):
        error_report(sol, None, bad)


def test_error_report_broadcasts_a_scalar_exact_solution():
    import dataclasses

    problem = square_smooth()
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(1), problem.kind, problem.source)
    zero = dataclasses.replace(problem, exact=lambda x, y: 0.0,
                               exact_grad=lambda x, y: (0.0, 0.0))
    arrays = dataclasses.replace(
        problem, exact=lambda x, y: np.zeros_like(x),
        exact_grad=lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
    assert error_report(sol, None, zero) == error_report(sol, None, arrays)


def test_error_quadrature_stability():
    # raising the error-quadrature exactness by 4 moves the reported
    # errors by < 0.1% (smooth) and < 1% (singular)
    smooth = square_smooth()
    mesh = refine_uniform(unit_square_mesh(1))
    sol = assemble_solve(mesh, TrialSpace(0), smooth.kind, smooth.source)
    r0 = error_report(sol, None, smooth)
    r4 = error_report(sol, None, smooth, extra_exactness=4)
    assert abs(r4.err_u - r0.err_u) < 1e-3 * r0.err_u
    assert abs(r4.err_sigma - r0.err_sigma) < 1e-3 * r0.err_sigma

    singular = lshape_singular()
    mesh = refine_uniform(singular.initial_mesh())
    sol = assemble_solve(mesh, TrialSpace(0), singular.kind, singular.source,
                         dirichlet=singular.dirichlet)
    r0 = error_report(sol, None, singular)
    r4 = error_report(sol, None, singular, extra_exactness=4)
    assert abs(r4.err_u - r0.err_u) < 1e-2 * r0.err_u
    assert abs(r4.err_sigma - r0.err_sigma) < 1e-2 * r0.err_sigma


def test_initial_mesh_dispatch():
    assert square_smooth().initial_mesh().num_triangles == 2
    assert lshape_singular().initial_mesh().num_triangles == 6
