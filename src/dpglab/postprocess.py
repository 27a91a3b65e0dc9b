"""
Elementwise superconvergent postprocessing.

From the field pair (u_h, sigma_h) of a solve, a degree-(p+1) scalar field
is recovered element by element as the solution of a local discrete
Neumann problem:

    (grad w, grad v)_T = (sigma_h, grad v)_T   for all v in P^{p+1}(T),
    (w, 1)_T           = (u_h, 1)_T.

The orthonormal Dubiner basis is nested and begins with the constant, so
the mean constraint fixes exactly that mode, w_0 = u_0, for the standard
and the augmented trial space alike; the other modes solve an SPD system.
On smooth problems the postprocessed field converges one order faster in
L2 than u_h itself.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .spaces import basis_at_quadrature, triangle_quadrature


@dataclass
class PostprocessedField:
    """Per-element coefficients of the recovered degree-(p+1) field."""
    degree: int
    coeffs: np.ndarray      # (nt, dim P^{degree})


def _dim_to_degree(n):
    d = int(np.sqrt(2 * n)) - 1     # 2 dim P^d = (d+1)(d+2)
    if d < 0 or (d + 1) * (d + 2) != 2 * n:
        raise ValueError(f"coefficient length {n} is not a triangle "
                         "polynomial dimension")
    return d


def _neumann_solve(mesh, p, u_coeffs, sigma_coeffs, elements):
    """Stacked local Neumann solves; result rows follow `elements`.

    Mode 0 is the constant sqrt(2), L2-orthogonal to the others and with an
    exactly zero gradient: the mean constraint reads w_0 = u_0, and modes
    1.. solve the stiffness block without row and column 0, SPD because
    only constants have a zero gradient.  Raises LinAlgError naming the
    elements whose block is singular.
    """
    exactness = 2 * (p + 3)
    w = triangle_quadrature(exactness).weights

    _, grad = basis_at_quadrature(p + 1, exactness)
    sphi, _ = basis_at_quadrature(p, exactness)

    det = mesh.det[elements]
    inv_t = mesh.inv[elements].transpose(0, 2, 1)

    metric = np.einsum("eca,ecb->eab", inv_t, inv_t)
    t1 = np.einsum("ika,jkb,k->abij", grad, grad, w)
    stiff = np.einsum("e,eab,abij->eij", det, metric, t1)

    # (sigma_h, grad v)_T with the physical gradient of every test mode
    svals = np.einsum("ecj,jk->eck", sigma_coeffs, sphi)
    gphys = np.einsum("eca,ika->eick", inv_t, grad)
    rhs_grad = np.einsum("e,eck,eick,k->ei", det, svals, gphys, w)

    block = stiff[:, 1:, 1:]
    try:
        rest = np.linalg.solve(block, rhs_grad[:, 1:, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        bad = elements[np.abs(np.linalg.det(block)) < 1e-300]
        raise np.linalg.LinAlgError(
            f"singular postprocessing system on elements {bad[:5].tolist()} "
            "(basis bug)") from exc
    return np.column_stack([u_coeffs[:, 0], rest])


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
        Flux-field coefficients on the element (any other shape: ValueError).

    Returns
    -------
    (dim P^{p+1},) array of coefficients in the orthonormal reference basis.
    """
    _dim_to_degree(len(u_coeffs))       # checked only: w_0 = u_0 at any degree
    sigma_coeffs = np.asarray(sigma_coeffs, dtype=float)
    if sigma_coeffs.ndim != 2 or sigma_coeffs.shape[0] != 2:
        raise ValueError(f"sigma_coeffs has shape {sigma_coeffs.shape}, "
                         "expected (2, dim P^p)")
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
    p = solution.trial.p
    coeffs = _neumann_solve(solution.mesh, p, solution.u_coeffs,
                            solution.sigma_coeffs,
                            np.arange(solution.mesh.num_triangles))
    return PostprocessedField(degree=p + 1, coeffs=coeffs)
