"""Quadrature, basis, and L2 projection tests."""

import numpy as np
import pytest

from dpglab.mesh import Mesh, refine_marked, refine_uniform
from dpglab.spaces import (EdgeBasis, basis_at_quadrature,
                           edge_bubbles, edge_quadrature, monomial_exponents,
                           monomial_integral, project_l2, scalar_basis,
                           triangle_quadrature)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 12, 20])
def test_triangle_quadrature_exactness(degree):
    rule = triangle_quadrature(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a, b in monomial_exponents(degree):
        approx = np.sum(rule.weights * x ** a * y ** b)
        exact = monomial_integral(a, b)
        assert approx == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_triangle_quadrature_weights_sum_to_area():
    for degree in range(0, 21, 4):
        assert triangle_quadrature(degree).weights.sum() == pytest.approx(0.5)


def test_triangle_quadrature_specific_values():
    r = triangle_quadrature(2)
    assert np.sum(r.weights * r.points[:, 0] ** 2) == pytest.approx(1 / 12)
    r = triangle_quadrature(5)
    val = np.sum(r.weights * r.points[:, 0] ** 2 * r.points[:, 1] ** 3)
    assert val == pytest.approx(1 / 420)   # 2! 3! / 7!


def test_triangle_quadrature_rejects_bad_degree():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        triangle_quadrature(21)


def test_edge_quadrature_exactness():
    for degree in range(0, 12):
        rule = edge_quadrature(degree)
        for k in range(degree + 1):
            assert np.sum(rule.weights * rule.points ** k) == \
                pytest.approx(1 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_scalar_basis_dimension_and_orthonormality(degree):
    basis = scalar_basis(degree)
    assert basis.dim == (degree + 1) * (degree + 2) // 2
    rule = triangle_quadrature(2 * degree)
    phi = basis.values(rule.points)
    gram = (phi * rule.weights) @ phi.T
    assert np.abs(gram - np.eye(basis.dim)).max() < 1e-8


def test_scalar_basis_conditioning():
    # reference mass matrix condition stays far below 1e8 up to degree 6
    for degree in range(7):
        basis = scalar_basis(degree)
        rule = triangle_quadrature(2 * degree + 2)
        phi = basis.values(rule.points)
        gram = (phi * rule.weights) @ phi.T
        assert np.linalg.cond(gram) < 1e8


def test_scalar_basis_degree_zero():
    basis = scalar_basis(0)
    pts = np.array([[0.1, 0.2], [0.3, 0.3], [0.6, 0.2]])
    vals = basis.values(pts)
    assert vals.shape == (1, 3)
    # normalized constant: value^2 * |T_ref| = 1
    assert np.allclose(vals, np.sqrt(2.0))
    assert np.allclose(basis.gradients(pts), 0.0)
    assert scalar_basis(1).dim == 3


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_scalar_basis_gradients_match_finite_differences(degree):
    basis = scalar_basis(degree)
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.05, 0.4, size=(20, 2))
    grad = basis.gradients(pts)
    h = 1e-6
    for d, off in enumerate(np.eye(2)):
        fd = (basis.values(pts + h * off) - basis.values(pts - h * off)) / (2 * h)
        assert np.abs(fd - grad[:, :, d]).max() < 1e-6


@pytest.mark.parametrize("degree", [7, 8, 9, 10])
def test_scalar_basis_high_degree_orthonormal_and_smooth_at_collapsed_vertex(
        degree):
    # exactly orthonormal well past the degrees a study uses
    basis = scalar_basis(degree)
    rule = triangle_quadrature(2 * degree)
    phi = basis.values(rule.points)
    gram = (phi * rule.weights) @ phi.T
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-13
    # the collapsed coordinates are singular at the vertex (0, 1); the
    # gradients there must be finite and match one-sided differences
    # along both edges that meet at it
    vertex = np.array([[0.0, 1.0]])
    grad = basis.gradients(vertex)[:, 0, :]
    assert np.isfinite(grad).all()
    h = 1e-5
    for direction in (np.array([0.0, -1.0]), np.array([1.0, -1.0])):
        f0, f1, f2 = (basis.values(vertex + k * h * direction)[:, 0]
                      for k in range(3))
        fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        assert np.abs(fd - grad @ direction).max() <= 1e-6 * np.abs(grad).max()


def test_basis_at_quadrature_is_cached_read_only_and_exact():
    values, gradients = basis_at_quadrature(3, 10)
    pts = triangle_quadrature(10).points
    # the same arithmetic as evaluating the basis, bit for bit
    assert np.array_equal(values, scalar_basis(3).values(pts))
    assert np.array_equal(gradients, scalar_basis(3).gradients(pts))
    assert basis_at_quadrature(3, 10)[0] is values
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    with pytest.raises(ValueError):
        gradients[0, 0, 0] = 1.0


def reference_mesh():
    return Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], [0])


def to_reference(mesh, pts):
    """Reference coordinates of physical points pts (nt, npts, 2), row e
    pulled back through the map of element e."""
    origin = mesh.vertices[mesh.triangles[:, 0]]
    return (pts - origin[:, None, :]) @ mesh.inv.transpose(0, 2, 1)


def basis_function(mesh, basis, coeffs):
    """f(x, y) for project_l2: element e's polynomial coeffs[e] in the
    reference basis, at physical points of shape (nt, npts)."""
    def f(x, y):
        ref = to_reference(mesh, np.stack([x, y], axis=-1))
        phi = basis.values(ref.reshape(-1, 2)).reshape(basis.dim, *x.shape)
        return np.einsum("ej,jek->ek", coeffs, phi)
    return f


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_projection_reproduces_polynomials(degree):
    # a different random polynomial on every element of an NVB-refined
    # mesh, all projected in one call
    mesh = Mesh([[0.2, -0.1], [1.1, 0.3], [0.4, 0.9]], [[0, 1, 2]], [0])
    mesh = refine_marked(refine_uniform(mesh), [0, 2])
    basis = scalar_basis(degree)
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal((mesh.num_triangles, basis.dim))
    out = project_l2(degree, basis_function(mesh, basis, coeffs), mesh)
    assert out.shape == coeffs.shape
    assert np.abs(out - coeffs).max() < 1e-12


def test_projection_refuses_underintegration():
    # below exactness 2*degree the basis is not orthonormal under the rule
    mesh = reference_mesh()
    with pytest.raises(ValueError, match="below 2\\*degree"):
        project_l2(2, lambda x, y: x, mesh, exactness=3)
    project_l2(2, lambda x, y: x, mesh, exactness=4)


def test_projection_mean_of_x():
    c = project_l2(0, lambda x, y: x, reference_mesh())[0]
    val = c @ scalar_basis(0).values([[0.25, 0.25]])
    assert val[0] == pytest.approx(1 / 3, rel=1e-13)   # (1/6) / (1/2)


def test_projection_orthogonality_and_idempotence():
    mesh = reference_mesh()
    c = project_l2(1, lambda x, y: x ** 2, mesh, exactness=8)
    rule = triangle_quadrature(8)
    x, y = rule.points[:, 0], rule.points[:, 1]
    proj = c[0] @ scalar_basis(1).values(rule.points)
    resid = x ** 2 - proj
    for ell in (np.ones_like(x), x, y):
        assert abs(np.sum(rule.weights * resid * ell)) < 1e-12

    twice = project_l2(1, basis_function(mesh, scalar_basis(1), c), mesh,
                       exactness=8)
    assert np.abs(twice - c).max() < 1e-12


def test_projection_broadcasts_a_scalar_bitwise():
    mesh = refine_marked(refine_uniform(reference_mesh()), [1])
    for degree in (0, 2, 4):
        scalar = project_l2(degree, lambda x, y: 1.0, mesh)
        array = project_l2(degree, lambda x, y: np.ones_like(x), mesh)
        assert np.array_equal(scalar, array)


def x_over_zero(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / 0.0      # inf, and nan at x = 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f,match", [
    (lambda x, y: np.where(x > 0.3, np.nan, x), "non-finite"),
    (x_over_zero, "non-finite"),
    (lambda x, y: np.inf, "non-finite"),
    (lambda x, y: x[0], r"expected \(4, "),
    (lambda x, y: x.ravel(), r"expected \(4, "),
    (lambda x, y: np.stack([x, y]), r"expected \(4, "),
    (lambda x, y: [1.0, 2.0], r"expected \(4, "),
], ids=["nan", "x/0", "scalar-inf", "one-row", "flat", "stacked", "list"])
def test_projection_refuses_bad_values(f, match):
    # refused before the contraction, so no RuntimeWarning on the way
    with pytest.raises(ValueError, match=match):
        project_l2(1, f, refine_uniform(reference_mesh()))


def test_edge_basis_orthonormal_first_constant():
    basis = EdgeBasis(4)
    rule = edge_quadrature(10)
    vals = basis.values(rule.points)
    assert np.allclose(vals[0], 1.0)
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(5)).max() < 1e-13


def test_edge_bubbles_vanish_at_endpoints():
    t = np.array([0.0, 0.3, 1.0])
    bub = edge_bubbles(3, t)
    assert bub.shape == (3, 3)
    assert np.allclose(bub[:, 0], 0.0)
    assert np.allclose(bub[:, -1], 0.0)
    assert np.all(np.abs(bub[:, 1]) > 0)
