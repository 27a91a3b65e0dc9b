"""The elementwise postprocessing, taken apart on a one-element mesh.

Given the field pair (u_h, sigma_h), each element solves the discrete
Neumann problem

    (grad w, grad v)_T = (sigma_h, grad v)_T   for all v in P^{p+1}(T),
    (w, 1)_T           = (u_h, 1)_T,

which recovers a degree-(p+1) scalar from the flux and pins the constant
mode with the mean of u_h.
"""

import numpy as np

from dpglab.dpg import TrialSpace, assemble_solve
from dpglab.mesh import Mesh, refine_uniform, unit_square_mesh
from dpglab.postprocess import postprocess_all, postprocess_fields
from dpglab.problems import error_report, square_smooth
from dpglab.spaces import ScalarBasis

print("=== one-element mesh: sigma = (1, 0), u_h = 0, p = 0 ===")
ref = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
           np.array([[0, 1, 2]]), np.array([0]))
sigma = np.array([[1.0 / np.sqrt(2.0)], [0.0]])   # the constant field (1, 0)
# postprocess_fields takes one row of coefficients per element of the mesh
coeffs = postprocess_fields(ref, np.zeros((1, 1)), sigma[None])[0]
pts = np.array([[0.0, 0.0], [1.0, 0.0], [1 / 3, 1 / 3]])
vals = coeffs @ ScalarBasis(1).values(pts)
print("recovered field at (0,0), (1,0), centroid:", np.round(vals, 12))
print("expected x - 1/3 (gradient (1,0), zero mean):",
      np.round(pts[:, 0] - 1 / 3, 12))

print()
print("=== full solve on the smooth problem, p = 0 ===")
problem = square_smooth()
mesh = unit_square_mesh(1)
for _ in range(4):
    mesh = refine_uniform(mesh)
solution = assemble_solve(mesh, TrialSpace(0), problem.kind, problem.source)
post = postprocess_all(solution)
report = error_report(solution, post, problem)
print(f"{mesh.num_triangles} elements, {solution.num_dofs} dofs")
print(f"err(u_h)       = {report.err_u:.4e}   (first-order field)")
print(f"err(postproc)  = {report.err_u_post:.4e}   (one order better)")
print(f"improvement    = {report.err_u / report.err_u_post:.1f}x")
