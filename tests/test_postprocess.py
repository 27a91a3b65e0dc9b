"""Superconvergent postprocessing tests."""

import re

import numpy as np
import pytest

from dpglab.dpg import TrialSpace, assemble_solve
from dpglab.mesh import Mesh, refine_uniform, unit_square_mesh
from dpglab.postprocess import postprocess_all, postprocess_fields
from dpglab.problems import error_report, square_smooth
from dpglab.spaces import ScalarBasis, triangle_quadrature


def reference_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([0]))


def test_hand_solve_on_reference_triangle():
    # sigma = (1, 0), u = 0, p = 0: the local Neumann solve gives x - 1/3
    mesh = reference_mesh()
    sigma = np.array([[1.0 / np.sqrt(2.0)], [0.0]])   # (1, 0) in basis coeffs
    out = postprocess_fields(mesh, np.zeros((1, 1)), sigma[None])[0]
    pts = np.array([[0.0, 0.0], [0.5, 0.2], [0.1, 0.8]])
    vals = out @ ScalarBasis(1).values(pts)
    assert np.abs(vals - (pts[:, 0] - 1 / 3)).max() < 1e-13


def test_constants_are_reproduced():
    mesh = unit_square_mesh(2)
    c = 2.75
    u0 = np.full((mesh.num_triangles, 1), c / np.sqrt(2.0))
    out = postprocess_fields(mesh, u0, np.zeros((mesh.num_triangles, 2, 1)))
    vals = out @ ScalarBasis(1).values(np.array([[0.3, 0.3], [0.1, 0.6]]))
    assert np.abs(vals - c).max() < 1e-13


@pytest.mark.parametrize("p", [0, 1, 2])
def test_gradient_reproduction(p):
    # sigma an exact elementwise gradient of a P^{p+1} polynomial with
    # matching means: postprocessing returns that polynomial exactly
    mesh = refine_uniform(unit_square_mesh(1))
    rng = np.random.default_rng(p + 1)
    basis_hi = ScalarBasis(p + 1)
    basis_lo = ScalarBasis(p)
    rule = triangle_quadrature(2 * (p + 3))
    phi_hi = basis_hi.values(rule.points)
    grad_hi = basis_hi.gradients(rule.points)
    phi_lo = basis_lo.values(rule.points)
    w = rule.weights
    mass_lo = (phi_lo * w) @ phi_lo.T
    targets = rng.standard_normal((mesh.num_triangles, basis_hi.dim))
    sigmas = np.empty((mesh.num_triangles, 2, basis_lo.dim))
    u_los = np.empty((mesh.num_triangles, basis_lo.dim))
    for t, target in enumerate(targets):
        verts = mesh.vertices[mesh.triangles[t]]
        jac = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        inv_t = np.linalg.inv(jac).T
        # physical gradient components of the target, exactly in P^p
        gphys = np.einsum("ca,ika->cik", inv_t, grad_hi)
        gvals = np.einsum("j,cjk->ck", target, gphys)
        sigmas[t] = np.linalg.solve(mass_lo, (phi_lo * w) @ gvals.T).T
        # u with the same mean: project the target onto P^p
        u_los[t] = np.linalg.solve(mass_lo, (phi_lo * w) @ (target @ phi_hi))
    out = postprocess_fields(mesh, u_los, sigmas)
    assert np.abs(out - targets).max() < 1e-12


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_element_and_batched_entry_points_agree(p, augmented, recwarn):
    problem = square_smooth()
    mesh = refine_uniform(unit_square_mesh(1))
    sol = assemble_solve(mesh, TrialSpace(p, augmented=augmented),
                         problem.kind, problem.source)
    batched = postprocess_all(sol)
    scale = np.abs(batched).max()
    for t in range(mesh.num_triangles):
        # element t alone, as a one-element mesh
        element = Mesh(mesh.vertices[mesh.triangles[t]], [[0, 1, 2]],
                       mesh.refinement_edges[[t]])
        single = postprocess_fields(element, sol.u_coeffs[[t]],
                                    sol.sigma_coeffs[[t]])[0]
        assert np.abs(single - batched[t]).max() <= 1e-14 * scale


def test_mean_constraint_on_full_solve(recwarn):
    problem = square_smooth()
    mesh = refine_uniform(refine_uniform(unit_square_mesh(2)))   # 128 elements
    for p in (0, 1, 2):
        for trial in (TrialSpace(p), TrialSpace(p, augmented=True)):
            sol = assemble_solve(mesh, trial, problem.kind, problem.source)
            post = postprocess_all(sol)
            # the constant Dubiner mode carries the whole mean
            assert np.array_equal(post[:, 0], sol.u_coeffs[:, 0])
            rule = triangle_quadrature(2 * (p + 3))
            mean_post = (post @ ScalarBasis(p + 1).values(rule.points)
                         @ rule.weights)
            mean_u = (sol.u_coeffs
                      @ ScalarBasis(trial.u_degree).values(rule.points)
                      @ rule.weights)
            scale = np.abs(mean_u).max()
            assert np.abs(mean_post - mean_u).max() <= 1e-12 * scale


def test_element_rejects_non_polynomial_u_length():
    with pytest.raises(ValueError, match="length 4 is not a triangle"):
        postprocess_fields(unit_square_mesh(2), np.zeros((8, 4)),
                           np.zeros((8, 2, 1)))


@pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 3, 1), (1, 2)],
                         ids=["1-D", "3x3", "3-D", "1x2"])
def test_element_rejects_bad_sigma_shape(shape):
    with pytest.raises(ValueError, match=(
            rf"^sigma_coeffs has shape {re.escape(str((8,) + shape))} and "
            r"dtype float64, expected \(8, 2, \*\); it must hold real "
            r"numbers$")):
        postprocess_fields(unit_square_mesh(2), np.zeros((8, 1)),
                           np.zeros((8,) + shape))


def test_fields_need_one_row_per_element():
    mesh = unit_square_mesh(2)      # 8 elements
    with pytest.raises(ValueError, match=r"^u_coeffs has shape \(7, 1\) and "
                       r"dtype float64, expected \(8, \*\); it must hold "
                       r"real numbers$"):
        postprocess_fields(mesh, np.zeros((7, 1)), np.zeros((8, 2, 1)))
    with pytest.raises(ValueError, match=r"^sigma_coeffs has shape "
                       r"\(7, 2, 1\) and dtype float64, expected "
                       r"\(8, 2, \*\); it must hold real numbers$"):
        postprocess_fields(mesh, np.zeros((8, 1)), np.zeros((7, 2, 1)))
    with pytest.raises(ValueError, match=r"^u_coeffs has shape \(1,\) and "
                       r"dtype float64, expected \(8, \*\); it must hold "
                       r"real numbers$"):
        postprocess_fields(mesh, np.zeros(1), np.zeros((8, 2, 1)))


def test_singular_system_names_the_elements(monkeypatch):
    # a zero stiffness table T1 makes every local block singular
    import dpglab.postprocess as post_mod

    real = post_mod._reference_tables

    def flat(*args):
        tab = dict(real(*args))
        tab["T1"] = np.zeros_like(tab["T1"])
        return tab

    monkeypatch.setattr(post_mod, "_reference_tables", flat)
    sol = assemble_solve(unit_square_mesh(2), TrialSpace(1),
                         "reaction-diffusion", None)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"elements \[0, 1, 2, 3, 4\]"):
        postprocess_all(sol)



@pytest.mark.parametrize("broken", ["u_coeffs", "sigma_coeffs"])
def test_non_finite_coefficients_are_refused(broken):
    # a NaN in u or an inf in sigma would come back as a non-finite row
    mesh = refine_uniform(unit_square_mesh(1))
    u = np.ones((mesh.num_triangles, 3))
    sigma = np.ones((mesh.num_triangles, 2, 3))
    if broken == "u_coeffs":
        u[5, 1] = np.nan
    else:
        sigma[3, 1, 2] = np.inf
        sigma[6, 0, 0] = np.inf
    element = 5 if broken == "u_coeffs" else 3
    with pytest.raises(ValueError,
                       match=f"{broken} is non-finite on element {element}"):
        postprocess_fields(mesh, u, sigma)


def test_locality():
    # perturbing the inputs on one element changes the output only there
    problem = square_smooth()
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(0), problem.kind, problem.source)
    base = postprocess_all(sol)
    sol.u_coeffs[3] += 0.7
    sol.sigma_coeffs[3, 0] -= 0.4
    bumped = postprocess_all(sol)
    diff = np.abs(bumped - base).max(axis=1)
    assert diff[3] > 1e-3
    others = np.delete(np.arange(mesh.num_triangles), 3)
    assert diff[others].max() == 0.0


def test_postprocess_beats_field_error_on_smooth_problem():
    problem = square_smooth()
    mesh = unit_square_mesh(1)
    for _ in range(4):
        mesh = refine_uniform(mesh)
    sol = assemble_solve(mesh, TrialSpace(0), problem.kind, problem.source)
    post = postprocess_all(sol)
    rep = error_report(sol, post, problem)
    assert rep.err_u_post < rep.err_u


def test_augmented_input_warns():
    problem = square_smooth()
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(0, augmented=True), problem.kind,
                         problem.source)
    with pytest.warns(UserWarning, match="augmented"):
        postprocess_all(sol)


def test_zero_solution_gives_zero_field():
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(1), "reaction-diffusion", None)
    post = postprocess_all(sol)
    assert np.abs(post).max() == 0.0
    assert post.shape == (mesh.num_triangles, 6)     # dim P^2
