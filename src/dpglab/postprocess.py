"""
Elementwise superconvergent postprocessing.

From the field pair (u_h, sigma_h) of a solve, a degree-(p+1) scalar field
is recovered element by element as the solution of a local discrete
Neumann problem:

    (grad w, grad v)_T = (sigma_h, grad v)_T   for all v in P^{p+1}(T),
    (w, 1)_T           = (u_h, 1)_T.

The mean constraint fixes the constant mode that the Neumann problem
leaves free; it is enforced through a Lagrange multiplier row, which keeps
the local system square and unconditionally nonsingular.  On smooth
problems the postprocessed field converges one order faster in L2 than
u_h itself.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .spaces import affine_maps, basis_at_quadrature, triangle_quadrature


@dataclass
class PostprocessedField:
    """Per-element coefficients of the recovered degree-(p+1) field."""
    degree: int
    coeffs: np.ndarray      # (nt, dim P^{degree})


def _dim_to_degree(n):
    d = int(round((np.sqrt(8 * n + 1) - 3) / 2))
    if (d + 1) * (d + 2) != 2 * n:
        raise ValueError(f"coefficient length {n} is not a triangle "
                         "polynomial dimension")
    return d


def _neumann_solve(mesh, p, u_coeffs, sigma_coeffs, elements):
    """Solve the stacked Lagrange-augmented local systems of the given
    elements; coefficient rows correspond to the elements argument.

    Returns the (ne, dim P^{p+1}) field coefficients.  Raises LinAlgError
    naming the elements whose system is singular.
    """
    u_deg = _dim_to_degree(u_coeffs.shape[1])
    exactness = 2 * (p + 3)
    w = triangle_quadrature(exactness).weights

    phi, grad = basis_at_quadrature(p + 1, exactness)
    uphi, _ = basis_at_quadrature(u_deg, exactness)
    sphi, _ = basis_at_quadrature(p, exactness)
    n = phi.shape[0]

    _, det, inv = affine_maps(mesh.vertices[mesh.triangles[elements]])
    inv_t = inv.transpose(0, 2, 1)

    metric = np.einsum("eca,ecb->eab", inv_t, inv_t)
    t1 = np.einsum("ika,jkb,k->abij", grad, grad, w)
    stiff = np.einsum("e,eab,abij->eij", det, metric, t1)

    # (sigma_h, grad v)_T with the physical gradient of every test mode
    svals = np.einsum("ecj,jk->eck", sigma_coeffs, sphi)
    gphys = np.einsum("eca,ika->eick", inv_t, grad)
    rhs_grad = np.einsum("e,eck,eick,k->ei", det, svals, gphys, w)

    mean_row = det[:, None] * np.einsum("ik,k->i", phi, w)[None, :]
    mean_target = det * np.einsum("ej,jk,k->e", u_coeffs, uphi, w)

    ne = len(elements)
    system = np.zeros((ne, n + 1, n + 1))
    system[:, :n, :n] = stiff
    system[:, :n, n] = mean_row
    system[:, n, :n] = mean_row
    rhs = np.zeros((ne, n + 1))
    rhs[:, :n] = rhs_grad
    rhs[:, n] = mean_target
    try:
        out = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        bad = elements[np.abs(np.linalg.det(system)) < 1e-300]
        raise np.linalg.LinAlgError(
            f"singular postprocessing system on elements {bad[:5].tolist()} "
            "(basis bug)") from exc
    return out[:, :-1]


def postprocess_element(mesh, tri, u_coeffs, sigma_coeffs):
    """Postprocess a single element.

    Parameters
    ----------
    mesh : Mesh
    tri : int
        Element index.
    u_coeffs : (dim,) array
        Scalar-field coefficients on the element (degree p or p+1).
    sigma_coeffs : (2, dim P^p) array
        Flux-field coefficients on the element.

    Returns
    -------
    (dim P^{p+1},) array of coefficients in the orthonormal reference basis.
    """
    sigma_coeffs = np.asarray(sigma_coeffs, dtype=float)
    p = _dim_to_degree(sigma_coeffs.shape[1])
    return _neumann_solve(mesh, p, np.asarray(u_coeffs, dtype=float)[None],
                          sigma_coeffs[None], np.array([tri]))[0]


def postprocess_all(solution):
    """Postprocess every element of a solution independently.

    The superconvergence statement targets the standard trial space; an
    augmented solution is accepted, with a warning, and is postprocessed by
    the same local equations.
    """
    if solution.trial.augmented:
        warnings.warn("postprocessing an augmented-trial solution; the "
                      "superconvergence theory covers the standard space",
                      stacklevel=2)
    mesh = solution.mesh
    p = solution.trial.p
    coeffs = _neumann_solve(mesh, p, solution.u_coeffs,
                            solution.sigma_coeffs,
                            np.arange(mesh.num_triangles))
    return PostprocessedField(degree=p + 1, coeffs=coeffs)
