"""Reference-element toolbox tour: quadrature rules and local L2 projection.

Every inner product in the solver is evaluated with Duffy-type Gauss rules
on the reference triangle.  This script checks a rule against the exact
monomial integrals a! b! / (a+b+2)! and projects a non-polynomial function
onto a low-order space, verifying the Galerkin orthogonality of the
residual.
"""

import numpy as np

from dpglab.mesh import Mesh
from dpglab.spaces import (ScalarBasis, monomial_exponents, monomial_integral,
                           project_l2, triangle_quadrature)

print("=== quadrature exactness on the reference triangle ===")
degree = 6
rule = triangle_quadrature(degree)
print(f"degree {degree}: {len(rule.weights)} points, "
      f"weight sum = {rule.weights.sum():.15f} (area 1/2)")
worst = 0.0
for a, b in monomial_exponents(degree):
    got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    worst = max(worst, abs(got - monomial_integral(a, b)))
print(f"worst monomial integral error up to total degree {degree}: {worst:.2e}")

print()
print("=== L2 projection of exp(x) sin(y) onto P^2 of one element ===")
# project_l2 works on every element of a mesh at once; one triangle is a
# one-element mesh, and row 0 of the result holds its coefficients
element = Mesh([[0.0, 0.0], [0.9, 0.1], [0.2, 0.8]], [[0, 1, 2]], [0])
f = lambda x, y: np.exp(x) * np.sin(y)
coeffs = project_l2(2, f, element, exactness=12)[0]
rule = triangle_quadrature(12)
jac, det, _ = element.geometry()
xy = element.to_physical(rule.points, jac=jac)[0]
w = rule.weights * det[0]
vals = coeffs @ ScalarBasis(2).values(rule.points)
resid = f(xy[:, 0], xy[:, 1]) - vals
print(f"projection coefficients: {np.array2string(coeffs, precision=4)}")
print(f"L2 norm of residual: {np.sqrt(np.sum(w * resid**2)):.3e}")
for name, test in [("1", np.ones(len(w))), ("x", xy[:, 0]), ("y", xy[:, 1])]:
    print(f"residual against {name}: {np.sum(w * resid * test):+.2e} "
          "(orthogonality)")
