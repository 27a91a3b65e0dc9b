"""Property tests on random inputs (hypothesis)."""

import os
import tempfile

import numpy as np
import pytest

from dpglab.adapt import mark
from dpglab.dpg import (POISSON, REACTION_DIFFUSION, ClassStore, DofMap,
                        TrialSpace, _element_classes, _local_systems,
                        assemble_solve)
from dpglab.mesh import (Mesh, load_mesh, lshape_mesh, refine_marked,
                         refine_uniform, save_mesh)

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
    _, rep, cls = _element_classes(mesh)
    G, B = _local_systems(mesh, TrialSpace(p), kind, None)
    owner = rep[cls]
    assert np.array_equal(G, G[owner])
    assert np.array_equal(B, B[owner])


def draw_marks(data, mesh):
    """A few element indices of mesh, repeats allowed."""
    return data.draw(st.lists(st.integers(0, mesh.num_triangles - 1),
                              min_size=1, max_size=10), label="marked")


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data())
def test_nvb_mark_sequences_keep_the_mesh_conforming_and_shape_regular(data):
    # on the L-shape (area 3, perimeter 8, right isosceles triangles) NVB
    # keeps the mesh conforming, refines every marked element, preserves
    # the area and produces no angle below pi/4
    mesh = lshape_mesh()
    for _ in range(data.draw(st.integers(1, 6), label="rounds")):
        marked = draw_marks(data, mesh)
        refined = refine_marked(mesh, marked)
        # a hanging vertex leaves interior edges with one owner, which
        # adds to the length of the single-owner edges
        owners = np.bincount(refined.tri_edges.ravel(),
                             minlength=refined.num_edges)
        assert owners.max() <= 2
        assert refined.edge_lengths[owners == 1].sum() == pytest.approx(
            8.0, rel=1e-12)
        assert refined.total_area() == pytest.approx(3.0, rel=1e-12)
        assert abs(refined.min_angle() - np.pi / 4) <= 1e-12
        # old vertices keep their numbers, and no marked triangle survives
        assert np.array_equal(refined.vertices[:mesh.num_vertices],
                              mesh.vertices)
        survivors = {tuple(sorted(t)) for t in refined.triangles}
        assert not survivors & {tuple(sorted(t))
                                for t in mesh.triangles[marked]}
        mesh = refined


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data(), p=st.integers(0, 3),
                  augmented=st.booleans())
def test_dofmap_counts_and_mesh_round_trip(data, p, augmented):
    # on a random NVB mesh of the L-shape: the free dofs are the element
    # fields, uhat at interior vertices and on interior edges and the flux
    # on every edge; each dof sits in the local columns of every element
    # that touches its vertex or edge, once; save_mesh/load_mesh gives the
    # mesh back bit for bit
    mesh = lshape_mesh()
    for _ in range(data.draw(st.integers(1, 6), label="rounds")):
        mesh = refine_marked(mesh, draw_marks(data, mesh))
    dofmap = DofMap(mesh, TrialSpace(p, augmented=augmented))
    nt, ne = mesh.num_triangles, mesh.num_edges
    interior_vertices = int((~mesh.boundary_vertex).sum())
    interior_edges = int((~mesh.boundary_edge).sum())
    assert dofmap.num_free == (nt * dofmap.k_int + interior_vertices
                               + p * interior_edges + (p + 1) * ne)

    cols = dofmap.local_cols
    assert (np.diff(np.sort(cols, axis=1), axis=1) > 0).all()
    elements_at_vertex = np.bincount(mesh.triangles.ravel(),
                                     minlength=mesh.num_vertices)
    elements_at_edge = np.bincount(mesh.tri_edges.ravel(), minlength=ne)
    expected = np.concatenate([np.ones(dofmap.interior_count, dtype=np.int64),
                               elements_at_vertex,
                               np.repeat(elements_at_edge, p),
                               np.repeat(elements_at_edge, p + 1)])
    assert np.array_equal(np.bincount(cols.ravel(), minlength=dofmap.n_total),
                          expected)

    # NVB of the L-shape gives short dyadic coordinates; scaling by pi
    # gives full-length ones, which a lossy format would not round-trip
    mesh = Mesh(np.pi * mesh.vertices + [0.1, -0.3], mesh.triangles,
                mesh.refinement_edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        save_mesh(mesh, path)
        loaded = load_mesh(path)
    for name in ("vertices", "triangles", "refinement_edges"):
        want, got = getattr(mesh, name), getattr(loaded, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    eta=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60),
    theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_mark_is_a_minimal_doerfler_set(eta, theta):
    # the marked set carries theta * eta^2 and no smaller set does: the
    # best set of each size is the largest contributions, summed here in
    # the order mark() sums them
    eta = np.array(eta)
    marked = mark(eta, theta)
    eta_sq = eta ** 2
    largest = np.sort(eta_sq)[::-1]
    running = np.cumsum(largest)
    if running[-1] == 0.0:
        assert marked.size == 0
        return
    k = marked.size
    assert np.array_equal(marked, np.unique(marked))
    assert np.array_equal(np.sort(eta_sq[marked])[::-1], largest[:k])
    assert running[k - 1] >= theta * running[-1]
    if k > 1:
        assert running[k - 2] < theta * running[-1]


SPACES = [(TrialSpace(1), POISSON), (TrialSpace(1, augmented=True), POISSON),
          (TrialSpace(0), POISSON), (TrialSpace(0), REACTION_DIFFUSION)]


@hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data())
def test_store_backed_solves_equal_fresh_solves_bitwise(data):
    # along a random NVB sequence, with the trial space or problem kind
    # switching now and then, solves through one ClassStore match solves
    # that condense every class, bit for bit
    def source(x, y):
        return 1.0 + x * y - np.sin(3.0 * x)

    def dirichlet(x, y):
        return np.cos(x + 2.0 * y)

    mesh = refine_uniform(lshape_mesh())
    store = ClassStore()
    for _ in range(data.draw(st.integers(2, 5), label="solves")):
        trial, kind = data.draw(st.sampled_from(SPACES), label="space")
        kept = assemble_solve(mesh, trial, kind, source, dirichlet,
                              store=store)
        fresh = assemble_solve(mesh, trial, kind, source, dirichlet)
        for name in ("coeffs", "eta_local"):
            assert np.array_equal(getattr(kept, name), getattr(fresh, name))
        diag = dict(kept.diagnostics)
        assert diag.pop("classes_condensed") <= diag["element_classes"]
        assert fresh.diagnostics.pop("classes_condensed") == \
            diag["element_classes"]
        assert diag == fresh.diagnostics
        assert len(store) == diag["element_classes"]
        mesh = refine_marked(mesh, draw_marks(data, mesh))
