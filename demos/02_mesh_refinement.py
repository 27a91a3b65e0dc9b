"""Newest-vertex bisection in action: uniform sweeps, and marked
refinement with conforming closure and shape regularity.
"""

import numpy as np

from dpglab.mesh import (lshape_mesh, refine_marked, refine_uniform,
                         unit_square_mesh)

print("=== uniform refinement of the unit square ===")
mesh = unit_square_mesh(1)
for level in range(4):
    print(f"level {level}: {mesh.num_triangles:4d} triangles, "
          f"{mesh.num_vertices:4d} vertices, h_max = {mesh.h_max:.4f}, "
          f"area = {0.5 * mesh.geometry()[1].sum():.12f}")
    mesh = refine_uniform(mesh)

print()
print("=== marked refinement with closure on the L-shape ===")
mesh = lshape_mesh()
print(f"initial: {mesh}")
rng = np.random.default_rng(0)
for step in range(5):
    # mark a few elements near the reentrant corner plus one random one
    near = [t for t, tri in enumerate(mesh.triangles)
            if np.any(np.all(mesh.vertices[tri] == 0.0, axis=1))]
    marked = set(near[:2]) | {int(rng.integers(mesh.num_triangles))}
    mesh = refine_marked(mesh, marked)
    print(f"step {step}: marked {len(marked)} -> {mesh.num_triangles:3d} "
          f"triangles (closure keeps the mesh conforming), "
          f"min angle = {np.degrees(mesh.min_angle()):.1f} deg")
print(f"area preserved: {0.5 * mesh.geometry()[1].sum():.12f} (exact 3)")
