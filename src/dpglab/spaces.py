"""
Reference-element machinery: quadrature rules on the reference triangle and
edge, orthonormal polynomial bases, the batched affine maps from which a
Mesh takes its element geometry, and elementwise L2 projection.

The reference triangle is T = {(x, y) : x >= 0, y >= 0, x + y <= 1} with
vertices (0,0), (1,0), (0,1).  Monomial integrals over T have the closed
form

    int_T x^a y^b = a! b! / (a + b + 2)!

which serves as the exactness oracle for all quadrature rules built here.

The scalar basis on T is the Dubiner basis: products of Legendre and
Jacobi polynomials in the collapsed coordinates (2x - 1 + y)/(1 - y) and
2y - 1, scaled by c_ij = sqrt(2 (2i + 1)(i + j + 1)).  It is exactly
L2-orthonormal at every degree, with no Gram matrix to factorize, and
nested: ordered by total degree, the basis of degree d is the leading
block of that of degree d + 1.

Element-level functions take a whole Mesh and return one row per element;
a single triangle is the one-element mesh Mesh(verts, [[0, 1, 2]], [0]).
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


def _jet_product(f, g):
    """Product rule on jets: stacks (value, d/dx, d/dy) of shape (3, npts)."""
    return np.stack([f[0] * g[0], f[0] * g[1] + f[1] * g[0],
                     f[0] * g[2] + f[2] * g[0]])


class ScalarBasis:
    """L2-orthonormal Dubiner basis of total degree <= degree on the
    reference triangle.

    Function (i, j) is c_ij q_i(x, y) P_j^(2i+1,0)(2y - 1) with

        q_i = (1 - y)^i P_i((2x - 1 + y) / (1 - y)),
        c_ij = sqrt(2 (2i + 1)(i + j + 1)),

    a Legendre polynomial in the collapsed coordinate times a Jacobi
    polynomial in y (Dubiner 1991; Sherwin & Karniadakis).  q_i comes from
    the Legendre three-term recurrence multiplied through by (1 - y)^(i+1),
    the Jacobi factor from its own recurrence, and gradients from
    differentiating both, so nothing divides by 1 - y and gradients are
    finite at the collapsed vertex (0, 1).  Functions are ordered by total
    degree i + j, then descending i, as listed in ``indices``: the first is
    the constant sqrt(2), and the basis of degree d is the leading block of
    the basis of degree d + 1.
    """

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("polynomial degree must be nonnegative")
        self.degree = int(degree)
        self.indices = monomial_exponents(degree)

    @property
    def dim(self):
        return len(self.indices)

    def _jets(self, pts):
        # (3, dim, npts): values, d/dx and d/dy of every basis function
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        one, zero = np.ones_like(x), np.zeros_like(x)
        const = np.stack([one, zero, zero])
        a = np.stack([2.0 * x - 1.0 + y, 2.0 * one, one])
        s2 = np.stack([(1.0 - y) ** 2, zero, 2.0 * y - 2.0])
        b = np.stack([2.0 * y - 1.0, zero, 2.0 * one])
        q = [const, a]
        for k in range(1, self.degree):
            q.append(((2 * k + 1) * _jet_product(a, q[k])
                      - k * _jet_product(s2, q[k - 1])) / (k + 1))
        funcs = {}
        for i in range(self.degree + 1):
            al = 2 * i + 1
            r = [const, 0.5 * ((al + 2) * b + al * const)]
            for n in range(2, self.degree - i + 1):
                lin = ((2 * n + al - 1) * ((2 * n + al) * (2 * n + al - 2) * b
                                           + al ** 2 * const))
                r.append((_jet_product(lin, r[n - 1])
                          - 2 * (n + al - 1) * (n - 1) * (2 * n + al) * r[n - 2])
                         / (2 * n * (n + al) * (2 * n + al - 2)))
            for j in range(self.degree - i + 1):
                funcs[i, j] = (np.sqrt(2.0 * (2 * i + 1) * (i + j + 1))
                               * _jet_product(q[i], r[j]))
        return np.stack([funcs[ij] for ij in self.indices], axis=1)

    def values(self, pts):
        """Basis values at reference points; shape (dim, npts)."""
        return self._jets(pts)[0]

    def gradients(self, pts):
        """Reference gradients at reference points; shape (dim, npts, 2)."""
        return np.moveaxis(self._jets(pts)[1:], 0, 2)


@lru_cache(maxsize=None)
def scalar_basis(degree):
    """Cached ScalarBasis instance for the given degree."""
    return ScalarBasis(degree)


@lru_cache(maxsize=None)
def basis_at_quadrature(degree, exactness):
    """Cached, read-only values (dim, npts) and reference gradients
    (dim, npts, 2) of scalar_basis(degree) at the points of
    triangle_quadrature(exactness)."""
    basis = scalar_basis(degree)
    pts = triangle_quadrature(exactness).points
    values, gradients = basis.values(pts), basis.gradients(pts)
    values.flags.writeable = False
    gradients.flags.writeable = False
    return values, gradients


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


def affine_maps(verts):
    """Batched affine maps of triangles with vertices verts (ne, 3, 2):
    Jacobians J (ne, 2, 2) with columns v1 - v0 and v2 - v0, det J (ne,)
    and J^{-1}.  Raises ValueError on a zero det J (a degenerate, collinear
    triangle) before forming J^{-1}."""
    jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                   axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if np.any(det == 0.0):
        raise ValueError("degenerate (collinear) triangle: zero Jacobian "
                         "determinant")
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return jac, det, inv


def point_values(values, shape, name):
    """values, what the callable name returned at points of the given
    shape, as a float array of that shape: a scalar is broadcast to every
    point, and any other shape raises ValueError."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        return np.broadcast_to(values, shape)
    if values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape}, expected "
                         f"{shape} (one value per point) or a scalar")
    return values


def project_l2(degree, f, mesh, exactness=None):
    """L2-orthogonal projection of f onto P^degree on every element of
    mesh: the element mass matrix is det J times the identity, so the
    coefficients are the moments of f against the orthonormal reference
    basis.

    Parameters
    ----------
    degree : int
        Target polynomial degree.
    f : callable
        f(x, y) accepting arrays of physical coordinates of shape
        (nt, npts), row e on element e, and returning values of that
        shape or a scalar (a constant, broadcast to every point).
    mesh : Mesh
    exactness : int, optional
        Quadrature exactness; defaults to 2*degree + 4.  Must be at least
        2*degree (ValueError otherwise), and 2*degree plus the polynomial
        degree of f for an exact projection.

    Returns
    -------
    (nt, dim) array
        Coefficients in the orthonormal reference basis, one row per
        element; times det J, the moments (f, v_i)_T.

    Raises ValueError on values of another shape or non-finite values,
    before they enter the contraction.
    """
    if exactness is None:
        exactness = 2 * degree + 4
    if exactness < 2 * degree:
        raise ValueError(f"quadrature exactness {exactness} is below "
                         f"2*degree = {2 * degree}")
    rule = triangle_quadrature(exactness)
    phi = basis_at_quadrature(degree, exactness)[0]
    xy = mesh.to_physical(rule.points)
    x, y = xy[..., 0], xy[..., 1]
    fvals = point_values(f(x, y), x.shape, "f")
    if not np.isfinite(fvals).all():
        raise ValueError("f has non-finite values at quadrature points")
    return (rule.weights * fvals) @ phi.T
