"""
Elementwise superconvergent postprocessing.

From the field pair (u_h, sigma_h) of a solve, a degree-(p+1) scalar field
is recovered on every element as the solution of a local discrete Neumann
problem:

    (grad w, grad v)_T = (sigma_h, grad v)_T   for all v in P^{p+1}(T),
    (w, 1)_T           = (u_h, 1)_T.

The orthonormal Dubiner basis is nested and begins with the constant, so
the mean constraint fixes exactly that mode, w_0 = u_0, for the standard
and the augmented trial space alike; the other modes solve an SPD system.
On smooth problems the postprocessed field converges one order faster in
L2 than u_h itself.

postprocess_fields solves all elements of a mesh in one batch, one row of
coefficients per element; postprocess_all applies it to a Solution and
returns the same (nt, dim P^{p+1}) array.
"""

import warnings

import numpy as np

from .dpg import _dim, _reference_tables, _stiffness
from .spaces import _check_array


def _dim_to_degree(n):
    d = int(np.sqrt(2 * n)) - 1     # 2 dim P^d = (d+1)(d+2)
    if d < 0 or (d + 1) * (d + 2) != 2 * n:
        raise ValueError(f"coefficient length {n} is not a triangle "
                         "polynomial dimension")
    return d


def postprocess_fields(mesh, u_coeffs, sigma_coeffs):
    """Postprocessed coefficients (nt, dim P^{p+1}) on every element of
    mesh from the stacked fields u_coeffs (nt, dim P^p or P^{p+1}) and
    sigma_coeffs (nt, 2, dim P^p); any other shape (spaces._check_array,
    naming the argument, the expected shape and the actual one), a length
    that is no polynomial dimension, or a non-finite coefficient (naming
    the first such element) raises ValueError.

    Mode 0 is the constant sqrt(2), L2-orthogonal to the others and with an
    exactly zero gradient: the mean constraint reads w_0 = u_0, and modes
    1.. solve the stiffness block without row and column 0, SPD because
    only constants have a zero gradient.  Raises LinAlgError naming the
    elements whose block is singular.
    """
    nt = mesh.num_triangles
    u_coeffs = _check_array(u_coeffs, "u_coeffs", (nt, None))
    _dim_to_degree(u_coeffs.shape[1])   # checked only: w_0 = u_0 at any degree
    sigma_coeffs = _check_array(sigma_coeffs, "sigma_coeffs", (nt, 2, None))
    p = _dim_to_degree(sigma_coeffs.shape[2])
    for name, c in (("u_coeffs", u_coeffs), ("sigma_coeffs", sigma_coeffs)):
        bad = np.flatnonzero(~np.isfinite(c.reshape(nt, -1)).all(axis=1))
        if bad.size:
            raise ValueError(f"{name} is non-finite on element {bad[0]}")

    # the assembly's reference table of trial order p, read in its first
    # n = dim P^{p+1} test modes v_i: T1 holds (grad v_i, grad v_j), GV
    # (grad v_i, phi_j) against the degree-p modes phi_j of sigma_h
    tab = _reference_tables(p)
    n, n_s = _dim(p + 1), sigma_coeffs.shape[2]
    _, det, inv = mesh.geometry()
    inv_t = inv.transpose(0, 2, 1)          # J^{-T}, maps gradients

    stiff = _stiffness(det, inv_t, tab["T1"][:, :, :n, :n])
    # (sigma_h, grad v_i)_T
    rhs_grad = np.einsum("e,eca,aij,ecj->ei", det, inv_t,
                         tab["GV"][:, :n, :n_s], sigma_coeffs)

    block = stiff[:, 1:, 1:]
    try:
        rest = np.linalg.solve(block, rhs_grad[:, 1:, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        bad = np.flatnonzero(np.abs(np.linalg.det(block)) < 1e-300)
        raise np.linalg.LinAlgError(
            f"singular postprocessing system on elements {bad[:5].tolist()} "
            "(basis bug)") from exc
    return np.column_stack([u_coeffs[:, 0], rest])


def postprocess_all(solution):
    """Postprocess every element of a solution independently: the
    coefficients (nt, dim P^{p+1}) of postprocess_fields.

    The superconvergence statement targets the standard trial space; an
    augmented solution is accepted, with a warning, and is postprocessed by
    the same local equations.
    """
    if solution.trial.augmented:
        warnings.warn("postprocessing an augmented-trial solution; the "
                      "superconvergence theory covers the standard space",
                      stacklevel=2)
    return postprocess_fields(solution.mesh, solution.u_coeffs,
                              solution.sigma_coeffs)
