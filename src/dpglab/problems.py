"""
Manufactured model problems and error-quantity evaluation.

Two benchmark problems are provided: a smooth reaction-diffusion problem on
the unit square and a corner-singular Poisson problem on the L-shaped
domain.  Both carry the exact solution, its gradient, the source term, and
Dirichlet boundary data, so that discretization errors can be measured in
L2 by elementwise quadrature.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dpg import POISSON, REACTION_DIFFUSION
from .mesh import lshape_mesh, unit_square_mesh
from .spaces import basis_at_quadrature, point_values, triangle_quadrature


@dataclass(frozen=True)
class ManufacturedProblem:
    """A PDE problem with known exact solution.

    exact, source, dirichlet map coordinate arrays (x, y) to value arrays;
    exact_grad returns a pair of arrays (du/dx, du/dy).
    """
    name: str
    domain: str                      # "square" | "lshape"
    kind: str                        # REACTION_DIFFUSION | POISSON
    exact: Callable
    exact_grad: Callable
    source: Callable
    dirichlet: Callable
    regularity: str                  # "smooth" | "corner-singular"

    def initial_mesh(self):
        if self.domain == "square":
            return unit_square_mesh(1)
        if self.domain == "lshape":
            return lshape_mesh()
        raise ValueError(f"unknown domain tag {self.domain!r}")


def square_smooth():
    """Reaction-diffusion problem -Lap(u) + u = f on (0,1)^2.

    Exact solution u = x(1-x)y(1-y), vanishing on the boundary, with
    f = 2x(1-x) + 2y(1-y) + x(1-x)y(1-y).
    """

    def exact(x, y):
        return x * (1.0 - x) * y * (1.0 - y)

    def exact_grad(x, y):
        return ((1.0 - 2.0 * x) * y * (1.0 - y),
                x * (1.0 - x) * (1.0 - 2.0 * y))

    def source(x, y):
        return 2.0 * x * (1.0 - x) + 2.0 * y * (1.0 - y) + exact(x, y)

    def dirichlet(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ManufacturedProblem(
        name="square-smooth", domain="square", kind=REACTION_DIFFUSION,
        exact=exact, exact_grad=exact_grad, source=source,
        dirichlet=dirichlet, regularity="smooth")


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
    the exact solution (inhomogeneous on the outer boundary).

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

    def source(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    def dirichlet(x, y):
        return exact(x, y)

    return ManufacturedProblem(
        name="lshape-singular", domain="lshape", kind=POISSON,
        exact=exact, exact_grad=exact_grad, source=source,
        dirichlet=dirichlet, regularity="corner-singular")


@dataclass
class ErrorReport:
    """L2 error quantities of one solve (None where not available)."""
    err_u: float
    err_sigma: float
    err_u_post: Optional[float]
    eta: float


def error_exactness(p, extra_exactness=0):
    """Exactness of the error quadrature at trial order p."""
    return 2 * (p + 3) + 4 + extra_exactness


def error_report(solution, postprocessed, problem, extra_exactness=0):
    """Measure L2 errors of a solution against the exact manufactured one.

    Parameters
    ----------
    solution : dpg.Solution
    postprocessed : postprocess.PostprocessedField or None
    problem : ManufacturedProblem
    extra_exactness : int
        Bump added to the default error-quadrature exactness
        2(p+3) + 4.  Raising it by 4 should not change reported errors
        appreciably; corner elements of the singular problem carry the
        dominant quadrature error.

    Returns
    -------
    ErrorReport

    Raises ValueError when problem.exact or problem.exact_grad is
    non-finite at an error-quadrature point, or returns neither one value
    per point nor a scalar.
    """
    mesh = solution.mesh
    p = solution.trial.p
    exactness = error_exactness(p, extra_exactness)
    rule = triangle_quadrature(exactness)
    pts, w = rule.points, rule.weights

    xy = mesh.to_physical(pts)
    wq = mesh.det[:, None] * w[None, :]
    x, y = xy[..., 0], xy[..., 1]

    u_exact = point_values(problem.exact(x, y), x.shape, "problem.exact")
    gx_exact, gy_exact = (point_values(g, x.shape, "problem.exact_grad")
                          for g in problem.exact_grad(x, y))
    if not all(np.isfinite(v).all() for v in (u_exact, gx_exact, gy_exact)):
        raise ValueError("problem.exact or problem.exact_grad is non-finite "
                         "at an error-quadrature point")

    u_vals = solution.u_coeffs @ basis_at_quadrature(solution.trial.u_degree,
                                                     exactness)[0]
    sig_basis = basis_at_quadrature(p, exactness)[0]
    sx_vals = solution.sigma_coeffs[:, 0, :] @ sig_basis
    sy_vals = solution.sigma_coeffs[:, 1, :] @ sig_basis

    err_u = np.sqrt(np.sum(wq * (u_exact - u_vals) ** 2))
    err_sigma = np.sqrt(np.sum(wq * ((gx_exact - sx_vals) ** 2 +
                                     (gy_exact - sy_vals) ** 2)))

    err_post = None
    if postprocessed is not None:
        post_vals = postprocessed.coeffs @ basis_at_quadrature(
            postprocessed.degree, exactness)[0]
        err_post = float(np.sqrt(np.sum(wq * (u_exact - post_vals) ** 2)))

    return ErrorReport(err_u=float(err_u), err_sigma=float(err_sigma),
                       err_u_post=err_post, eta=float(solution.eta))
