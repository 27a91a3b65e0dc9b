"""Property tests on random inputs (hypothesis)."""

import numpy as np
import pytest

from dpglab.dpg import (POISSON, REACTION_DIFFUSION, TrialSpace,
                        _element_classes, _local_systems)
from dpglab.mesh import lshape_mesh, refine_marked, refine_uniform
from dpglab.spaces import affine_maps

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data(), p=st.integers(0, 2),
                  kind=st.sampled_from([POISSON, REACTION_DIFFUSION]))
def test_element_class_members_share_local_systems_bitwise(data, p, kind):
    # the class operators of assemble_solve (condensation and
    # hybridization) stand for every member, so members of one class must
    # get bitwise equal G and B on any NVB mesh of the L-shape
    mesh = refine_uniform(lshape_mesh())
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        nt = mesh.num_triangles
        marked = data.draw(st.sets(st.integers(0, nt - 1), min_size=1,
                                   max_size=nt), label="marked")
        mesh = refine_marked(mesh, sorted(marked))
    jac = affine_maps(mesh.vertices[mesh.triangles])[0]
    rep, cls = _element_classes(mesh, jac)
    G, B, _ = _local_systems(mesh, TrialSpace(p), kind, None, None)
    owner = rep[cls]
    assert np.array_equal(G, G[owner])
    assert np.array_equal(B, B[owner])
