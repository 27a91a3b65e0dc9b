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

import numbers
from functools import lru_cache
from math import factorial

# numpy's core alone: the Gauss rules are leggauss's own algorithm
# (_leggauss), and no call reaches np.unique's np.ma.is_masked (numpy 2.4),
# so no process loads numpy.polynomial or numpy.ma
# (test_studies_import_nothing_after_the_package)
import numpy as np

MAX_QUADRATURE_DEGREE = 20

REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# the argument rules of every module: each gate raises one ValueError that
# names the argument, its bound and the value (for an array, the expected
# shape and the actual one)
def _check_integer(value, name, low, high=None):
    """Raise ValueError unless value is an integer in [low, high], or
    >= low when high is None: numpy integers are, bools are not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, not {value!r}")


def _check_unit_interval(value, name):
    """Raise ValueError unless value is a real number, not a bool, in the
    open interval (0, 1); NaN is refused too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), not {value!r}")


def _check_flag(value, name):
    """Raise ValueError unless value is a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, not {value!r}")


def _check_array(value, name, shape, integer=False):
    """Return value as a new float64 array, or int64 when integer, and
    raise ValueError unless its shape matches shape, a tuple in which None
    stands for any length, and a non-empty array holds integers, or real
    numbers (an integer or a floating dtype) when not integer: bools,
    strings, objects and complex numbers are refused."""
    arr = np.asarray(value)
    if (arr.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, arr.shape))
            or arr.size and arr.dtype.kind not in ("iu" if integer
                                                   else "iuf")):
        raise ValueError(
            f"{name} has shape {arr.shape} and dtype {arr.dtype}, expected "
            f"{str(shape).replace('None', '*')}; it must hold "
            + ("integers" if integer else "real numbers"))
    return np.array(arr, dtype=np.int64 if integer else float)


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


def _legval(x, c):
    """Legendre series with coefficients c at the points x by Clenshaw's
    recurrence, numpy.polynomial.legendre.legval's operations in its
    order."""
    if len(c) == 1:
        c0, c1 = c[0], 0
    else:
        nd = len(c)
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            tmp = c0
            nd = nd - 1
            c0 = c[-i] - c1 * ((nd - 1) / nd)
            c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(n):
    """Gauss-Legendre points and weights of [-1, 1], n >= 1 of them:
    numpy.polynomial.legendre.leggauss step for step.  The eigenvalues of
    the symmetric scaled companion matrix of P_n (Golub and Welsch 1969),
    one Newton step, then weights from P_{n-1} and P_n', symmetrized and
    scaled to sum to 2.  The rules are leggauss's bit for bit on a numpy
    whose legval rounds as _legval does (numpy 2.4's); where legval
    rounds its Clenshaw steps as (c1*(nd - 1))/nd instead (numpy 1.x),
    leggauss's rules differ from these in their last bits."""
    c = np.zeros(n + 1)
    c[-1] = 1.0
    # legcompanion(c): P_n's coefficients are those of e_n, so the
    # correction it subtracts from the last column is zero and only the
    # two off-diagonals remain
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    dy = _legval(x, c)
    # legder(c) exactly: P_n' = sum of (2k + 1) P_k over k = n-1, n-3, ...
    der = np.zeros(n)
    der[n - 1::-2] = 2 * np.arange(n - 1, -1, -2) + 1
    df = _legval(x, der)
    x -= dy / df
    # the factors are scaled to avoid overflow
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _gauss_legendre_01(n):
    # Gauss-Legendre nodes/weights transplanted from [-1, 1] to [0, 1].
    x, w = _leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# only the quadrature rules and basis_at_quadrature are cached: a basis
# object holds its degree alone and is built where it is used.  The
# caches are typed: 4.0 or True must not find the rule or table of 4 or 1
# and skip the integer check
@lru_cache(maxsize=None, typed=True)
def triangle_quadrature(degree):
    """Quadrature on the reference triangle, exact to the given total degree.

    Uses the Duffy (collapsed square) transform of the tensor product of
    one Gauss-Legendre rule with itself: (u, v) in [0,1]^2 maps to (u,
    v(1-u)) with Jacobian (1-u).  The extra Jacobian factor raises the
    u-degree by one, which the node count accounts for.

    Parameters
    ----------
    degree : int
        Required exactness degree, an integer (not a bool) in 0..20;
        anything else raises ValueError.

    Returns
    -------
    QuadratureRule
    """
    _check_integer(degree, "quadrature degree", 0, MAX_QUADRATURE_DEGREE)
    n = (degree + 3) // 2
    u, wu = _gauss_legendre_01(n)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu * (1.0 - u), wu)).ravel()
    return QuadratureRule(np.column_stack([x, y]), w, degree)


@lru_cache(maxsize=None, typed=True)
def edge_quadrature(degree):
    """Gauss-Legendre rule on [0, 1], exact to the given degree, an
    integer (not a bool) in 0..40; anything else raises ValueError."""
    _check_integer(degree, "edge quadrature degree", 0,
                   2 * MAX_QUADRATURE_DEGREE)
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
    the basis of degree d + 1.  degree is an integer >= 0, not a bool;
    anything else raises ValueError.
    """

    def __init__(self, degree):
        _check_integer(degree, "ScalarBasis degree", 0)
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
                          - 2 * (n + al - 1) * (n - 1) * (2 * n + al)
                          * r[n - 2])
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


@lru_cache(maxsize=None, typed=True)
def basis_at_quadrature(degree, exactness):
    """Cached, read-only values (dim, npts) and reference gradients
    (dim, npts, 2) of ScalarBasis(degree) at the points of
    triangle_quadrature(exactness), both from one run of the recurrence;
    both arguments are checked as there, since the cache is typed."""
    jets = ScalarBasis(degree)._jets(triangle_quadrature(exactness).points)
    values, gradients = jets[0], np.moveaxis(jets[1:], 0, 2)
    values.flags.writeable = False
    gradients.flags.writeable = False
    return values, gradients


class EdgeBasis:
    """Orthonormal shifted Legendre basis on the reference edge [0, 1].

    degree + 1 functions; the first is the constant 1.  degree is an
    integer >= 0, not a bool; anything else raises ValueError.
    """

    def __init__(self, degree):
        _check_integer(degree, "EdgeBasis degree", 0)
        self.degree = int(degree)

    def values(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        vals = np.empty((self.degree + 1, t.shape[0]))
        s = 2.0 * t - 1.0
        vals[0] = 1.0
        if self.degree >= 1:
            vals[1] = s
        for k in range(1, self.degree):
            vals[k + 1] = ((2 * k + 1) * s * vals[k]
                           - k * vals[k - 1]) / (k + 1)
        scale = np.sqrt(2.0 * np.arange(self.degree + 1) + 1.0)
        return scale[:, None] * vals


def edge_bubbles(count, t):
    """Edge-interior shape functions t(1-t)P_j(2t-1), j = 0..count-1.

    They vanish at both endpoints and, together with the endpoint hats,
    span all polynomials of degree <= count + 1 on [0, 1].  Shape
    (count, len(t)).  count is an integer >= 0, not a bool; anything else
    raises ValueError.
    """
    _check_integer(count, "bubble count", 0)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if count == 0:
        return np.zeros((0, t.shape[0]))
    leg = EdgeBasis(count - 1).values(t)
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
    point.  Another shape or a non-finite value raises ValueError."""
    values = np.asarray(values, dtype=float)
    if values.ndim and values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape}, expected "
                         f"{shape} (one value per point) or a scalar")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has non-finite values")
    return np.broadcast_to(values, shape)


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

    Raises ValueError on values of another shape or non-finite values
    (point_values), before they enter the contraction.
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
    return (rule.weights * fvals) @ phi.T
