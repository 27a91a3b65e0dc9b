"""Quadrature, basis, and L2 projection tests."""

import re

import numpy as np
import pytest

from dpglab.mesh import Mesh, refine_marked, refine_uniform
from dpglab.spaces import (_GAUSS_NODES, MAX_QUADRATURE_DEGREE, EdgeBasis,
                           ScalarBasis, _check_array, _leggauss,
                           basis_at_quadrature, edge_bubbles,
                           edge_quadrature, monomial_exponents,
                           monomial_integral, project_l2, triangle_quadrature)


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
    # out of range, or not an integer: a float, whole or not, a bool and
    # any other type are refused, also once the rule of the equal integer
    # is cached.  The bases too: 2.5 used to raise TypeError (scalar) or
    # truncate to degree 2 (edge)
    basis_bad = (2.5, 4.0, True, False, "2", None, -1)
    for rule, name, bound, bad in (
            (triangle_quadrature, "quadrature degree", r"in \[0, 20\]",
             (-1, 21, 5.5, 4.0, True)),
            (edge_quadrature, "edge quadrature degree", r"in \[0, 40\]",
             (-1, 41, 3.5, 4.0, True)),
            (ScalarBasis, "ScalarBasis degree", ">= 0", basis_bad),
            (EdgeBasis, "EdgeBasis degree", ">= 0", basis_bad)):
        rule(4)
        rule(1)
        rule(0)
        for degree in bad:
            with pytest.raises(ValueError, match=(
                    rf"^{name} must be an integer {bound}, not "
                    rf"{re.escape(repr(degree))}$")):
                rule(degree)
        # numpy integers pass
        assert rule(np.int64(4)).degree == 4


def _loop(**kwargs):
    # the solve loop's gate runs before the loop makes its first mesh
    import dataclasses

    from dpglab.adapt import adaptive_loop
    from dpglab.dpg import TrialSpace
    from dpglab.problems import square_smooth

    def no_mesh():
        raise AssertionError("the loop started")

    adaptive_loop(dataclasses.replace(square_smooth(), initial_mesh=no_mesh),
                  TrialSpace(1), **kwargs)


def _integer_sites():
    from dpglab.dpg import TrialSpace
    from dpglab.mesh import unit_square_mesh
    from dpglab.problems import error_exactness
    from dpglab.spaces import MAX_QUADRATURE_DEGREE as cap
    from dpglab.study import (MAX_P, ConvergenceRecord, StudyConfig,
                              fit_slope)

    records = [ConvergenceRecord(level=i, dofs=10 ** (i + 1), h_max=1.0,
                                 err_u=10.0 ** -i) for i in range(3)]
    # name: (call, argument name in the message, low, high or None)
    return {
        "triangle_quadrature": (triangle_quadrature, "quadrature degree",
                                0, cap),
        "edge_quadrature": (edge_quadrature, "edge quadrature degree", 0,
                            2 * cap),
        "ScalarBasis": (ScalarBasis, "ScalarBasis degree", 0, None),
        "EdgeBasis": (EdgeBasis, "EdgeBasis degree", 0, None),
        "edge_bubbles": (lambda v: edge_bubbles(v, np.array([0.5])),
                         "bubble count", 0, None),
        "TrialSpace.p": (TrialSpace, "polynomial order p", 0, None),
        "unit_square_mesh": (unit_square_mesh, "subdivision count", 1, None),
        "adaptive_loop.max_dofs": (lambda v: _loop(max_dofs=v), "max_dofs",
                                   1, None),
        "adaptive_loop.max_steps": (lambda v: _loop(max_steps=v),
                                    "max_steps / levels", 1, None),
        # at p = 1 the error quadrature 2(p+3) + 4 = 12 leaves 8 to the cap
        "error_exactness": (lambda v: error_exactness(1, v),
                            "error-quadrature bump at p = 1", 0, cap - 12),
        "fit_slope": (lambda v: fit_slope(records, "err_u", window=v),
                      "slope-fit window", 2, None),
        "StudyConfig.p": (lambda v: StudyConfig(p=v, levels=1).validate(),
                          "polynomial order p", 0, MAX_P),
    }


def _flag_sites():
    from dpglab.dpg import TrialSpace

    return {
        "TrialSpace.augmented": (lambda v: TrialSpace(1, augmented=v),
                                 "augmented"),
        "adaptive_loop.postprocess": (lambda v: _loop(postprocess=v),
                                      "postprocess"),
    }


@pytest.mark.parametrize("site", [*_integer_sites(), *_flag_sites()])
def test_argument_rules_are_the_gates_of_spaces(site):
    # every integer and flag argument of the library is checked by one of
    # the gates of spaces, with one message form naming the argument, its
    # bound and the value; StudyConfig's ConfigError is a ValueError
    if site in _flag_sites():
        call, name = _flag_sites()[site]
        bad, bound = (1, 0, 1.0, "yes", None, np.int64(1)), "a bool"
    else:
        call, name, low, high = _integer_sites()[site]
        # a bool, a non-integer float and the first integers out of range
        bad = (True, low + 0.5, low - 1) + (() if high is None else
                                            (high + 1,))
        bound = (f"an integer >= {low}" if high is None else
                 f"an integer in [{low}, {high}]")
    for value in bad:
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(name)} must be {re.escape(bound)}, not "
                rf"{re.escape(repr(value))}$")):
            call(value)


def _array_sites():
    from dpglab.adapt import mark
    from dpglab.dpg import TrialSpace, assemble_solve
    from dpglab.mesh import lshape_mesh, unit_square_mesh
    from dpglab.postprocess import postprocess_fields
    from dpglab.problems import error_report, square_smooth

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tris, ref = np.array([[0, 1, 2], [1, 3, 2]]), np.array([0, 0])
    mesh = unit_square_mesh(2)      # 8 elements
    u, sigma = np.zeros((8, 1)), np.zeros((8, 2, 1))

    def report(post):
        problem = square_smooth()
        error_report(assemble_solve(mesh, TrialSpace(1), problem.kind,
                                    problem.source), post, problem)

    # name: (call, argument name in the message, an accepted value, the
    # expected shape, integer)
    return {
        "Mesh.vertices": (lambda v: Mesh(v, tris, ref), "vertices", verts,
                          (None, 2), False),
        "Mesh.triangles": (lambda v: Mesh(verts, v, ref), "triangles", tris,
                           (None, 3), True),
        "Mesh.refinement_edges": (lambda v: Mesh(verts, tris, v),
                                  "refinement_edges", ref, (2,), True),
        "refine_marked": (lambda v: refine_marked(lshape_mesh(), v),
                          "marked", np.array([1, 4]), (None,), True),
        "mark": (lambda v: mark(v, 0.5), "eta_local", np.ones(4), (None,),
                 False),
        "postprocess_fields.u_coeffs": (
            lambda v: postprocess_fields(mesh, v, sigma), "u_coeffs", u,
            (8, None), False),
        "postprocess_fields.sigma_coeffs": (
            lambda v: postprocess_fields(mesh, u, v), "sigma_coeffs", sigma,
            (8, 2, None), False),
        "error_report": (report, "postprocessed", np.zeros((8, 6)), (8, 6),
                         False),
    }


@pytest.mark.parametrize("site", _array_sites())
def test_array_rules_are_the_gate_of_spaces(site):
    # every array argument of the library is checked by _check_array, with
    # one message form naming the argument, the expected shape and the
    # actual one
    call, name, good, shape, integer = _array_sites()[site]
    call(good)
    # one axis too many, one too few, and a wrong length on each fixed axis
    bad = [good[..., None], good[0, ...]] + [
        np.concatenate([good, np.take(good, [0], axis=i)], axis=i)
        for i, n in enumerate(shape) if n is not None]
    if integer:
        # a float array and a boolean mask of the right shape
        bad += [good.astype(float), good != 0]
    else:
        # integers are real numbers (Mesh takes integer vertex lists), but
        # booleans, strings and objects of the right shape are not
        call(good.astype(int))
        bad += [good != 0, good.astype(str), good.astype(object)]
    if name == "marked":
        # a scalar index, which is not iterable, is one axis too few
        bad += [1, np.int64(1)]
    want = str(shape).replace("None", "*")
    rule = "; it must hold " + ("integers" if integer else "real numbers")
    for value in bad:
        got = np.asarray(value)
        with pytest.raises(ValueError, match=(
                rf"^{name} has shape {re.escape(str(got.shape))} and dtype "
                rf"{got.dtype}, expected {re.escape(want + rule)}$")):
            call(value)


def test_check_array_returns_a_new_array_of_the_asked_dtype():
    # Mesh flips its triangles in place and freezes its arrays, so the
    # gate never hands back its argument, even of the right dtype
    for value, integer, dtype in ((np.arange(3.0), False, np.float64),
                                  (np.arange(3), True, np.int64),
                                  ([1, 2, 3], False, np.float64),
                                  (np.arange(3, dtype=np.uint8), True,
                                   np.int64)):
        got = _check_array(value, "x", (None,), integer=integer)
        assert got is not value and got.dtype == dtype
        assert np.array_equal(got, value)
        assert not np.shares_memory(got, np.asarray(value))
    frozen = np.arange(3)
    frozen.setflags(write=False)
    assert _check_array(frozen, "x", (3,), integer=True).flags.writeable
    # an empty index array has no dtype to refuse
    assert _check_array([], "x", (None,), integer=True).dtype == np.int64


# n = 1..21 are all the Gauss-Legendre rules that triangle_quadrature
# (degree <= MAX_QUADRATURE_DEGREE) and edge_quadrature (degree <= twice
# that) build
GAUSS_POINT_COUNTS = range(1, MAX_QUADRATURE_DEGREE + 2)


def _legval_numpy24(x, c):
    """numpy 2.4's legval: Clenshaw's recurrence, its steps rounded as
    c1 * ((nd - 1) / nd), where numpy 1.x rounds (c1 * (nd - 1)) / nd."""
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


@pytest.mark.parametrize("n", GAUSS_POINT_COUNTS)
def test_leggauss_is_numpys_bit_for_bit(n, monkeypatch):
    # spaces keeps numpy 2.4's leggauss rules as a table.  A numpy whose
    # legval rounds its Clenshaw steps otherwise runs leggauss on numpy
    # 2.4's legval here, so that every other step of it is still compared
    # byte for byte, signed zeros included
    from numpy.polynomial import legendre
    c = np.zeros(n + 1)
    c[-1] = 1.0
    probe = np.linspace(-1.0, 1.0, 101)
    if (legendre.legval(probe, c).tobytes()
            != _legval_numpy24(probe, c).tobytes()):
        monkeypatch.setattr(legendre, "legval", _legval_numpy24)
    x, w = _leggauss(n)
    want_x, want_w = legendre.leggauss(n)
    assert x.tobytes() == want_x.tobytes()
    assert w.tobytes() == want_w.tobytes()


def test_leggauss_against_mpmath():
    # an oracle that shares no code with the table or numpy: the roots of
    # P_n by Newton's method at 30 digits from Tricomi's estimates, and
    # w = 2 / ((1 - x^2) P_n'(x)^2).  Measured: nodes within 0.40 eps
    # absolute (n = 6), weights within 378 eps relative (n = 18)
    import mpmath
    eps = np.finfo(float).eps
    worst_x = worst_w = 0.0
    with mpmath.workdps(30):
        for n in GAUSS_POINT_COUNTS:
            def p_n(t):
                return mpmath.legendre(n, t)

            def dp_n(t):
                return n * (t * p_n(t) - mpmath.legendre(n - 1, t)) \
                    / (t * t - 1)

            x, w = _leggauss(n)
            assert x.shape == w.shape == (n,)
            for i in range(n):
                guess = -mpmath.cos(mpmath.pi * (i + 0.75) / (n + 0.5))
                root = mpmath.findroot(p_n, guess, solver="newton",
                                       df=dp_n)
                weight = 2 / ((1 - root * root) * dp_n(root) ** 2)
                worst_x = max(worst_x, float(abs(float(x[i]) - root)) / eps)
                worst_w = max(worst_w,
                              float(abs(float(w[i]) - weight) / weight) / eps)
    assert worst_x < 0.5 and worst_w < 400


def test_gauss_table_holds_the_largest_rule():
    # edge_quadrature(2 * MAX_QUADRATURE_DEGREE) takes the largest rule,
    # n = MAX_QUADRATURE_DEGREE + 1, and the table ends with it: rule n
    # holds the entries n * n // 4 onward, (n + 1) // 2 of them
    n = MAX_QUADRATURE_DEGREE + 1
    assert edge_quadrature(2 * MAX_QUADRATURE_DEGREE).points.size == n
    assert _GAUSS_NODES.size == n * n // 4 + (n + 1) // 2


def test_edge_quadrature_exactness():
    for degree in range(0, 12):
        rule = edge_quadrature(degree)
        for k in range(degree + 1):
            assert np.sum(rule.weights * rule.points ** k) == \
                pytest.approx(1 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_scalar_basis_dimension_and_orthonormality(degree):
    basis = ScalarBasis(degree)
    assert basis.dim == (degree + 1) * (degree + 2) // 2
    rule = triangle_quadrature(2 * degree)
    phi = basis.values(rule.points)
    gram = (phi * rule.weights) @ phi.T
    assert np.abs(gram - np.eye(basis.dim)).max() < 1e-8


def test_scalar_basis_conditioning():
    # reference mass matrix condition stays far below 1e8 up to degree 6
    for degree in range(7):
        basis = ScalarBasis(degree)
        rule = triangle_quadrature(2 * degree + 2)
        phi = basis.values(rule.points)
        gram = (phi * rule.weights) @ phi.T
        assert np.linalg.cond(gram) < 1e8


def test_scalar_basis_degree_zero():
    basis = ScalarBasis(0)
    pts = np.array([[0.1, 0.2], [0.3, 0.3], [0.6, 0.2]])
    vals = basis.values(pts)
    assert vals.shape == (1, 3)
    # normalized constant: value^2 * |T_ref| = 1
    assert np.allclose(vals, np.sqrt(2.0))
    assert np.allclose(basis.gradients(pts), 0.0)
    assert ScalarBasis(1).dim == 3


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_scalar_basis_gradients_match_finite_differences(degree):
    basis = ScalarBasis(degree)
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
    basis = ScalarBasis(degree)
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
    assert np.array_equal(values, ScalarBasis(3).values(pts))
    assert np.array_equal(gradients, ScalarBasis(3).gradients(pts))
    assert basis_at_quadrature(3, 10)[0] is values
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    with pytest.raises(ValueError):
        gradients[0, 0, 0] = 1.0


@pytest.mark.parametrize("exactness", range(8, 21))
def test_basis_at_quadrature_is_nested_bitwise(exactness):
    # the element tables read the trial and postprocessing bases as the
    # leading rows of the test basis, and error_report reads u and sigma
    # as the leading rows of the postprocessing basis at every error
    # exactness 2(p+3)+4+bump, 10 to 20
    for degree in range(7):
        values, gradients = basis_at_quadrature(degree, exactness)
        up_values, up_gradients = basis_at_quadrature(degree + 1, exactness)
        assert np.array_equal(values, up_values[:values.shape[0]])
        assert np.array_equal(gradients, up_gradients[:values.shape[0]])


@pytest.mark.parametrize("p", range(4))
def test_test_basis_mass_against_trial_bases_is_an_identity_slice(p):
    # the element mass blocks are det J times these slices, built without
    # quadrature
    exactness = 2 * (p + 3)
    w = triangle_quadrature(exactness).weights
    test = basis_at_quadrature(p + 2, exactness)[0]
    for degree in (p, p + 1):
        trial = basis_at_quadrature(degree, exactness)[0]
        mass = np.einsum("ik,jk,k->ij", test, trial, w)
        assert np.abs(mass - np.eye(*mass.shape)).max() <= 1e-13


def reference_mesh():
    return Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], [0])


def to_reference(mesh, pts):
    """Reference coordinates of physical points pts (nt, npts, 2), row e
    pulled back through the map of element e."""
    origin = mesh.vertices[mesh.triangles[:, 0]]
    return (pts - origin[:, None, :]) @ mesh.geometry()[2].transpose(0, 2, 1)


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
    basis = ScalarBasis(degree)
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
    val = c @ ScalarBasis(0).values([[0.25, 0.25]])
    assert val[0] == pytest.approx(1 / 3, rel=1e-13)   # (1/6) / (1/2)


def test_projection_orthogonality_and_idempotence():
    mesh = reference_mesh()
    c = project_l2(1, lambda x, y: x ** 2, mesh, exactness=8)
    rule = triangle_quadrature(8)
    x, y = rule.points[:, 0], rule.points[:, 1]
    proj = c[0] @ ScalarBasis(1).values(rule.points)
    resid = x ** 2 - proj
    for ell in (np.ones_like(x), x, y):
        assert abs(np.sum(rule.weights * resid * ell)) < 1e-12

    twice = project_l2(1, basis_function(mesh, ScalarBasis(1), c), mesh,
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


def test_basis_at_quadrature_refuses_a_float_exactness_after_the_int():
    # the cache is typed: the tables of exactness 10 must not answer 10.0,
    # which triangle_quadrature refuses, nor those of degree 1 answer True
    basis_at_quadrature(3, 10)
    basis_at_quadrature(1, 10)
    with pytest.raises(ValueError, match="10.0"):
        basis_at_quadrature(3, 10.0)
    with pytest.raises(ValueError, match="True"):
        basis_at_quadrature(True, 10)
    assert basis_at_quadrature(np.int64(3), np.int64(10))[0].shape == (10, 36)


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


@pytest.mark.parametrize("count", [True, 0.0, 2.0, -1])
def test_edge_bubbles_refuse_a_count_that_is_not_an_integer_from_0(count):
    # unchecked, True would give one bubble and 0.0 none, and 2.0 and -1
    # would fail in EdgeBasis with a message about its degree
    with pytest.raises(ValueError, match=(
            rf"^bubble count must be an integer >= 0, not "
            rf"{re.escape(repr(count))}$")):
        edge_bubbles(count, np.array([0.0, 0.5, 1.0]))
