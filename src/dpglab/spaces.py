"""
Reference-element machinery: quadrature rules on the reference triangle and
edge, orthonormal polynomial bases, affine element maps, and local L2
projection.

The reference triangle is T = {(x, y) : x >= 0, y >= 0, x + y <= 1} with
vertices (0,0), (1,0), (0,1).  Monomial integrals over T have the closed
form

    int_T x^a y^b = a! b! / (a + b + 2)!

which serves as the exactness oracle for all quadrature rules built here.
"""

from functools import lru_cache
from math import factorial

import numpy as np

MAX_QUADRATURE_DEGREE = 20

REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def monomial_exponents(degree):
    """Exponent pairs (a, b) of all monomials x^a y^b with a + b <= degree,
    ordered by total degree, then descending power of x."""
    return [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


class QuadratureRule:
    """Positive quadrature rule with a certified polynomial exactness degree.

    Attributes
    ----------
    points : (n, d) array
        Quadrature points (d = 2 for triangle rules, d = 1 for edge rules,
        stored as a flat (n,) array in the edge case).
    weights : (n,) array
        Quadrature weights.
    degree : int
        All polynomials of total degree <= degree are integrated exactly.
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _gauss_legendre_01(n):
    # Gauss-Legendre nodes/weights transplanted from [-1, 1] to [0, 1].
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def triangle_quadrature(degree):
    """Quadrature on the reference triangle, exact to the given total degree.

    Uses the Duffy (collapsed square) transform of a tensor Gauss-Legendre
    rule: (u, v) in [0,1]^2 maps to (u, v(1-u)) with Jacobian (1-u).  The
    extra Jacobian factor raises the u-degree by one, which the node count
    accounts for.

    Parameters
    ----------
    degree : int
        Required exactness degree, 0 <= degree <= 20.

    Returns
    -------
    QuadratureRule
    """
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(f"quadrature degree {degree} outside supported "
                         f"range [0, {MAX_QUADRATURE_DEGREE}]")
    n = (degree + 3) // 2
    u, wu = _gauss_legendre_01(n)
    v, wv = _gauss_legendre_01(n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu * (1.0 - u), wv)).ravel()
    return QuadratureRule(np.column_stack([x, y]), w, degree)


@lru_cache(maxsize=None)
def edge_quadrature(degree):
    """Gauss-Legendre rule on [0, 1], exact to the given degree."""
    if not 0 <= degree <= 2 * MAX_QUADRATURE_DEGREE:
        raise ValueError(f"edge quadrature degree {degree} out of range")
    t, w = _gauss_legendre_01(degree // 2 + 1)
    return QuadratureRule(t, w, degree)


def _monomial_values(exponents, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    return np.array([x ** a * y ** b for a, b in exponents])


def _monomial_gradients(exponents, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    grads = np.zeros((len(exponents), pts.shape[0], 2))
    for i, (a, b) in enumerate(exponents):
        if a > 0:
            grads[i, :, 0] = a * x ** (a - 1) * y ** b
        if b > 0:
            grads[i, :, 1] = b * x ** a * y ** (b - 1)
    return grads


class ScalarBasis:
    """L2-orthonormal polynomial basis of total degree <= degree on the
    reference triangle.

    Realized as monomials orthonormalized against the exact reference mass
    matrix (Cholesky factorization).  Row i of the coefficient matrix gives
    basis function i in the monomial representation.
    """

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("polynomial degree must be nonnegative")
        self.degree = int(degree)
        self.exponents = monomial_exponents(degree)
        n = len(self.exponents)
        gram = np.empty((n, n))
        for i, (a, b) in enumerate(self.exponents):
            for j, (c, d) in enumerate(self.exponents):
                gram[i, j] = monomial_integral(a + c, b + d)
        # basis = L^{-1} @ monomials makes the reference mass matrix identity
        lower = np.linalg.cholesky(gram)
        self.coeffs = np.linalg.inv(lower)

    @property
    def dim(self):
        return len(self.exponents)

    def values(self, pts):
        """Basis values at reference points; shape (dim, npts)."""
        return self.coeffs @ _monomial_values(self.exponents, pts)

    def gradients(self, pts):
        """Reference gradients at reference points; shape (dim, npts, 2)."""
        mono = _monomial_gradients(self.exponents, pts)
        return np.einsum("ij,jkd->ikd", self.coeffs, mono)


@lru_cache(maxsize=None)
def scalar_basis(degree):
    """Cached ScalarBasis instance for the given degree."""
    return ScalarBasis(degree)


class EdgeBasis:
    """Orthonormal shifted Legendre basis on the reference edge [0, 1].

    dim = degree + 1; the first function is the constant 1.
    """

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("polynomial degree must be nonnegative")
        self.degree = int(degree)

    @property
    def dim(self):
        return self.degree + 1

    def values(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        vals = np.empty((self.degree + 1, t.shape[0]))
        s = 2.0 * t - 1.0
        vals[0] = 1.0
        if self.degree >= 1:
            vals[1] = s
        for k in range(1, self.degree):
            vals[k + 1] = ((2 * k + 1) * s * vals[k] - k * vals[k - 1]) / (k + 1)
        scale = np.sqrt(2.0 * np.arange(self.degree + 1) + 1.0)
        return scale[:, None] * vals


@lru_cache(maxsize=None)
def edge_basis(degree):
    return EdgeBasis(degree)


def edge_bubbles(count, t):
    """Edge-interior shape functions t(1-t)P_j(2t-1), j = 0..count-1.

    They vanish at both endpoints and, together with the endpoint hats,
    span all polynomials of degree <= count + 1 on [0, 1].  Shape
    (count, len(t)).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if count == 0:
        return np.zeros((0, t.shape[0]))
    leg = edge_basis(count - 1).values(t)
    return (t * (1.0 - t)) * leg


class ElementMap:
    """Affine map from the reference triangle onto a physical triangle.

    x = v0 + J xhat, where the columns of J are the edge vectors v1 - v0
    and v2 - v0.  Physical gradients are obtained through J^{-T}.
    """

    def __init__(self, v0, v1, v2):
        self.origin = np.asarray(v0, dtype=float)
        self.jacobian = np.column_stack([
            np.asarray(v1, dtype=float) - self.origin,
            np.asarray(v2, dtype=float) - self.origin,
        ])
        self.det = float(np.linalg.det(self.jacobian))
        if self.det <= 0.0:
            raise ValueError("element map has nonpositive Jacobian "
                             "determinant (degenerate or misoriented triangle)")
        self.inverse_jacobian = np.linalg.inv(self.jacobian)
        self.inverse_transpose = self.inverse_jacobian.T

    @property
    def area(self):
        return 0.5 * self.det

    def to_physical(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.origin + pts @ self.jacobian.T

    def to_reference(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - self.origin) @ self.inverse_jacobian.T


def affine_maps(verts):
    """Batched affine maps of triangles with vertices verts (ne, 3, 2):
    Jacobians J (ne, 2, 2) as in ElementMap, det J (ne,) and J^{-1}."""
    jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                   axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return jac, det, inv


def project_l2(degree, f, emap, exactness=None):
    """L2-orthogonal projection of f onto P^degree on one element.

    Parameters
    ----------
    degree : int
        Target polynomial degree.
    f : callable
        f(x, y) accepting arrays of physical coordinates.
    emap : ElementMap
    exactness : int, optional
        Quadrature exactness; defaults to 2*degree + 4.  Must be at least
        2*degree plus the polynomial degree of f for an exact projection.

    Returns
    -------
    (dim,) array
        Coefficients in the orthonormal reference basis of the element.
    """
    if exactness is None:
        exactness = 2 * degree + 4
    rule = triangle_quadrature(exactness)
    basis = scalar_basis(degree)
    phi = basis.values(rule.points)
    w = rule.weights * emap.det
    xy = emap.to_physical(rule.points)
    fvals = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
    mass = (phi * w) @ phi.T
    rhs = (phi * w) @ fvals
    try:
        return np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular local mass matrix for degree {degree} "
            f"(broken basis)") from exc
