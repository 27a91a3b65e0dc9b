"""
Manufactured model problems and error-quantity evaluation.

Two benchmark problems are provided: a smooth reaction-diffusion problem on
the unit square and a corner-singular Poisson problem on the L-shaped
domain.  Both carry the exact solution, its gradient, the source term
(None on the L-shape, where f = 0), and Dirichlet boundary data, the trace
of the exact solution, so that discretization errors can be measured in
L2 by elementwise quadrature.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dpg import (POISSON, REACTION_DIFFUSION, _chunks, _dim,
                  default_exactness)
from .mesh import lshape_mesh, unit_square_mesh
from .spaces import (MAX_QUADRATURE_DEGREE, _check_array, _check_integer,
                     basis_at_quadrature, point_values, triangle_quadrature)


@dataclass(frozen=True)
class ManufacturedProblem:
    """A PDE problem with known exact solution and its initial mesh.

    exact and source map coordinate arrays (x, y) to value arrays, and
    source is None for f = 0; exact_grad returns a pair of arrays
    (du/dx, du/dy).  The Dirichlet data is the trace of the exact
    solution, so dirichlet is a read-only property that returns exact
    itself: no field can disagree with it.
    """
    kind: str                        # REACTION_DIFFUSION | POISSON
    exact: Callable
    exact_grad: Callable
    source: Optional[Callable]      # None for f = 0
    initial_mesh: Callable           # () -> Mesh of the problem's domain

    @property
    def dirichlet(self):
        return self.exact


def square_smooth():
    """Reaction-diffusion problem -Lap(u) + u = f on (0,1)^2.

    Exact solution u = x(1-x)y(1-y), vanishing on the boundary, with
    f = 2x(1-x) + 2y(1-y) + x(1-x)y(1-y).  exact is the Dirichlet data:
    the boundary edges are axis-aligned, so every boundary point keeps an
    exact 0 or 1 coordinate and exact returns exactly 0.0 there.
    """

    def exact(x, y):
        return x * (1.0 - x) * y * (1.0 - y)

    def exact_grad(x, y):
        return ((1.0 - 2.0 * x) * y * (1.0 - y),
                x * (1.0 - x) * (1.0 - 2.0 * y))

    def source(x, y):
        return 2.0 * x * (1.0 - x) + 2.0 * y * (1.0 - y) + exact(x, y)

    return ManufacturedProblem(
        kind=REACTION_DIFFUSION, exact=exact, exact_grad=exact_grad,
        source=source, initial_mesh=lambda: unit_square_mesh(1))


def _lshape_polar(x, y):
    # angle measured counterclockwise from the positive x axis, mapped to
    # [0, 3pi/2]; the branch cut lies along the slit edge phi = 0, which
    # the domain never straddles
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    return np.hypot(x, y), phi


def lshape_singular():
    """Poisson problem -Lap(u) = 0 on the L-shaped domain.

    Exact solution u = r^(2/3) cos(2 phi_b / 3), where phi_b is the angle
    measured from the bisector of the reentrant corner; with the angle phi
    in [0, 3pi/2] counted from the slit edge on the positive x axis this is
    the classic corner singularity r^(2/3) sin(2 phi / 3), vanishing on
    both slit edges.  u lies in H^(1+2/3-eps) only, so uniform refinement
    converges at the reduced corner rate.  Dirichlet data is the trace of
    the exact solution (inhomogeneous on the outer boundary).  f = 0, so
    the problem has no source (source is None).

    At the corner itself u = 0 and the gradient components are infinite
    (the evaluation never places a quadrature point there).
    """

    def exact(x, y):
        r, phi = _lshape_polar(x, y)
        return r ** (2.0 / 3.0) * np.sin(2.0 * phi / 3.0)

    def exact_grad(x, y):
        # du/dr = (2/3) r^(-1/3) cos(2 phi_b/3) and
        # (1/r) du/dphi_b = -(2/3) r^(-1/3) sin(2 phi_b/3) about the
        # bisector angle; rotated to Cartesian components they combine to
        # (-sin(phi/3), cos(phi/3)) in the slit-edge angle phi
        r, phi = _lshape_polar(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (2.0 / 3.0) * r ** (-1.0 / 3.0)
            return -c * np.sin(phi / 3.0), c * np.cos(phi / 3.0)

    return ManufacturedProblem(
        kind=POISSON, exact=exact, exact_grad=exact_grad, source=None,
        initial_mesh=lshape_mesh)


@dataclass
class ErrorReport:
    """L2 error quantities of one solve (None where not available)."""
    err_u: float
    err_sigma: float
    err_u_post: Optional[float]
    eta: float


def error_exactness(p, extra_exactness=0):
    """Exactness of the error quadrature at trial order p, four above the
    assembly's (dpg.default_exactness(p) + 4 = 2(p+3) + 4), raised by
    extra_exactness.  The bump's rules live here alone.  A p at which
    2(p+3) + 4 alone passes MAX_QUADRATURE_DEGREE (p >= 6) raises
    ValueError naming p; then a bump that is a bool or not an integer, a
    negative one, or one that takes the exactness beyond the cap raises
    ValueError naming the bump and its bound at this p."""
    exactness = default_exactness(p) + 4
    if exactness > MAX_QUADRATURE_DEGREE:
        raise ValueError(f"trial order p = {p}: error-quadrature exactness "
                         f"{exactness} exceeds {MAX_QUADRATURE_DEGREE}")
    _check_integer(extra_exactness, f"error-quadrature bump at p = {p}", 0,
                   MAX_QUADRATURE_DEGREE - exactness)
    return exactness + extra_exactness


def error_report(solution, postprocessed, problem, extra_exactness=0):
    """Measure L2 errors of a solution against the exact manufactured one.

    Parameters
    ----------
    solution : dpg.Solution
    postprocessed : ndarray (nt, dim P^{p+1}) or None
        Coefficients of the postprocessed field (postprocess_all), read
        at degree p + 1; any other shape raises ValueError before any
        evaluation (spaces._check_array).
    problem : ManufacturedProblem
    extra_exactness : int
        Bump, an integer >= 0, added to the default error-quadrature
        exactness 2(p+3) + 4.  No Gauss rule resolves the singular
        problem's |grad u - sigma_h|^2 ~ r^(-2/3) on the elements at the
        reentrant corner, and a bump does not cure it: raising it by 4
        moves the final err_sigma of the uniform L-shape studies by 1.4%
        (p = 1, 6 levels) and 3.0% (p = 3, 5 levels).  Against a
        collapsed-coordinate oracle the reported err_sigma there reads
        2.9% (p = 1) and 7.3% (p = 3) low from level 1 on, and 6.8% and
        16% low at level 0; err_u is off by at most 2.8e-3.

    Returns
    -------
    ErrorReport

    The discrete fields come from whole-mesh products, one (nt, npts)
    array each.  The points are mapped, problem.exact and
    problem.exact_grad called and the weighted squared errors formed over
    chunks of elements (dpg._chunks), written in place into those arrays;
    each error is the square root of one np.sum of its array, so no result
    depends on the chunks.  The report holds those arrays and one chunk's
    points, not a dozen whole-mesh point arrays: at 6,144 p=1 elements
    its traced peak went from 25.5 to 10.2 MiB with a postprocessed field
    and from 25.3 to 7.7 MiB without.

    Raises ValueError on an extra_exactness error_exactness refuses or a
    postprocessed of another shape, and when problem.exact or
    problem.exact_grad is non-finite at an error-quadrature point or
    returns neither one value per point nor a scalar
    (spaces.point_values).
    """
    mesh = solution.mesh
    p = solution.trial.p
    exactness = error_exactness(p, extra_exactness)
    # the basis is nested: u (degree p or p+1) and sigma (degree p) are
    # the leading rows of the degree-(p+1) table
    V = basis_at_quadrature(p + 1, exactness)[0]
    nt = mesh.num_triangles
    if postprocessed is not None:
        postprocessed = _check_array(postprocessed, "postprocessed",
                                     (nt, V.shape[0]))
    rule = triangle_quadrature(exactness)
    pts, w = rule.points, rule.weights
    V_u, V_s = V[:_dim(solution.trial.u_degree)], V[:_dim(p)]

    # the discrete fields at every point, each from one product over the
    # whole mesh: a product over a chunk of one element would take BLAS's
    # matrix-vector routine, whose bits differ.  The chunk loop turns the
    # arrays of u_h, sigma_h,x and the postprocessed field into their
    # weighted squared errors in place
    sq_u = solution.u_coeffs @ V_u
    sq_sigma = solution.sigma_coeffs[:, 0, :] @ V_s
    sy_vals = solution.sigma_coeffs[:, 1, :] @ V_s
    sq_post = None if postprocessed is None else postprocessed @ V
    # a chunk holds about a dozen float arrays of its points, about 96
    # bytes a point, counted at 128: under the 1 MiB budget a chunk holds
    # as many elements as under 4 MiB at 512 bytes a point.  Chunks a
    # quarter of that size gave the same peak RSS and made error_report
    # about 20% slower in the p1 adaptive study: each chunk evaluates the
    # exact solution in a few dozen numpy calls
    for c in _chunks(nt, 128 * len(w)):
        xy = mesh.to_physical(pts, c)
        x, y = xy[..., 0], xy[..., 1]
        wq = mesh.det[c, None] * w[None, :]

        u_exact = point_values(problem.exact(x, y), x.shape, "problem.exact")
        gx_exact, gy_exact = (point_values(g, x.shape, "problem.exact_grad")
                              for g in problem.exact_grad(x, y))

        sq_u[c] = wq * (u_exact - sq_u[c]) ** 2
        sq_sigma[c] = wq * ((gx_exact - sq_sigma[c]) ** 2 +
                            (gy_exact - sy_vals[c]) ** 2)
        if sq_post is not None:
            sq_post[c] = wq * (u_exact - sq_post[c]) ** 2

    err_post = None
    if sq_post is not None:
        err_post = float(np.sqrt(np.sum(sq_post)))
    return ErrorReport(err_u=float(np.sqrt(np.sum(sq_u))),
                       err_sigma=float(np.sqrt(np.sum(sq_sigma))),
                       err_u_post=err_post, eta=float(solution.eta))
