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

# numpy's core alone: the Gauss rules are a table of leggauss's
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


# the Gauss-Legendre rules n = 1..21 on [-1, 1], numpy 2.4's leggauss bit
# for bit: rule n is entries n * n // 4 onward, its (n + 1) // 2 nodes
# x >= 0 in ascending order (+0.0 for odd n) and their weights, each rule
# from a new line.  Literal data, not leggauss's eigenvalue algorithm, so
# that no process calls a LAPACK eigensolver and every numpy and LAPACK
# gets the same rules.  edge_quadrature(2 * MAX_QUADRATURE_DEGREE) needs
# n = MAX_QUADRATURE_DEGREE + 1
_GAUSS_NODES = np.array((
    0.0,
    0.5773502691896257,
    0.0, 0.7745966692414834,
    0.33998104358485626, 0.8611363115940526,
    0.0, 0.5384693101056831, 0.906179845938664,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031519,
    0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267,
    0.9602898564975362,
    0.0, 0.3242534234038089, 0.6133714327005904, 0.8360311073266358,
    0.9681602395076261,
    0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
    0.0, 0.26954315595234496, 0.5190961292068118, 0.7301520055740494,
    0.8870625997680953, 0.978228658146057,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
    0.0, 0.2304583159551348, 0.44849275103644687, 0.6423493394403402,
    0.8015780907333099, 0.9175983992229779, 0.9841830547185881,
    0.10805494870734367, 0.31911236892788974, 0.5152486363581541,
    0.6872929048116855, 0.827201315069765, 0.9284348836635735,
    0.9862838086968124,
    0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
    0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
    0.9879925180204854,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
    0.0, 0.17848418149584785, 0.3512317634538763, 0.5126905370864769,
    0.6576711592166907, 0.7815140038968014, 0.8802391537269859,
    0.9506755217687677, 0.9905754753144174,
    0.08477501304173529, 0.2518862256915055, 0.41175116146284263,
    0.5597708310739475, 0.6916870430603532, 0.8037049589725231,
    0.8926024664975557, 0.9558239495713978, 0.991565168420931,
    0.0, 0.16035864564022537, 0.31656409996362983, 0.46457074137596094,
    0.600545304661681, 0.7209661773352294, 0.8227146565371428,
    0.9031559036148179, 0.96020815213483, 0.9924068438435844,
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
    0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138,
    0.993128599185095,
    0.0, 0.1455618541608951, 0.2880213168024011, 0.4243421202074388,
    0.5516188358872198, 0.6671388041974123, 0.7684399634756779,
    0.8533633645833173, 0.9200993341504008, 0.9672268385663063,
    0.9937521706203895,
))
_GAUSS_WEIGHTS = np.array((
    2.0,
    1.0,
    0.8888888888888888, 0.5555555555555557,
    0.6521451548625464, 0.34785484513745357,
    0.5688888888888887, 0.4786286704993663, 0.23692688505618928,
    0.46791393457269104, 0.3607615730481387, 0.17132449237917027,
    0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
    0.12948496616886973,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
    0.10122853629037706,
    0.33023935500125984, 0.3123470770400029, 0.2606106964029356,
    0.18064816069485737, 0.08127438836157416,
    0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
    0.2729250867779005, 0.26280454451024654, 0.23319376459199057,
    0.1862902109277343, 0.12558036946490433, 0.05566856711617393,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
    0.23255155323087393, 0.22628318026289737, 0.2078160475368885,
    0.17814598076194552, 0.13887351021978733, 0.0921214998377288,
    0.04048400476531557,
    0.21526385346315793, 0.20519846372129572, 0.18553839747793788,
    0.15720316715819363, 0.12151857068790331, 0.08015808715975999,
    0.03511946033175175,
    0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
    0.16626920581699398, 0.13957067792615444, 0.10715922046717141,
    0.0703660474881084, 0.030753241996117203,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176,
    0.17944647035620653, 0.17656270536699253, 0.1680041021564499,
    0.15404576107681026, 0.1351363684685255, 0.11188384719340397,
    0.08503614831717912, 0.05545952937398796, 0.02414830286854758,
    0.1691423829631439, 0.16427648374583304, 0.15468467512626555,
    0.14064291467065093, 0.1225552067114787, 0.10094204410628728,
    0.07642573025488957, 0.049714548894969394, 0.021616013526481497,
    0.16105444984878362, 0.15896884339395434, 0.15276604206585961,
    0.14260670217360646, 0.12875396253933621, 0.111566645547334,
    0.09149002162244999, 0.06904454273764117, 0.04481422676569959,
    0.01946178822972652,
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
    0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
    0.017614007139150893,
    0.1460811336496907, 0.14452440398997027, 0.1398873947910734,
    0.13226893863333763, 0.12183141605372864, 0.1087972991671484,
    0.09344442345603395, 0.07610011362837911, 0.05713442542685717,
    0.03695378977085188, 0.01601722825777436,
))


def _leggauss(n):
    """Gauss-Legendre points and weights of [-1, 1], 1 <= n <= 21 of them,
    equal to numpy.polynomial.legendre.leggauss(n) byte for byte: its rules
    are symmetric to the last bit, x = (x - x[::-1]) / 2 and w averaged
    with w[::-1], so the nodes < 0 are those > 0 negated."""
    start = n * n // 4
    x = _GAUSS_NODES[start:start + (n + 1) // 2]
    w = _GAUSS_WEIGHTS[start:start + (n + 1) // 2]
    return (np.concatenate((-x[::-1][:n // 2], x)),
            np.concatenate((w[::-1][:n // 2], w)))


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
    point, an array of that shape is returned as it is (np.broadcast_to
    would make a view of it in a dozen Python-level calls).  Another shape
    or a non-finite value raises ValueError."""
    values = np.asarray(values, dtype=float)
    if values.ndim and values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape}, expected "
                         f"{shape} (one value per point) or a scalar")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has non-finite values")
    return values if values.ndim else np.broadcast_to(values, shape)


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
