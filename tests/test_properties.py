"""Property tests on random inputs (hypothesis)."""

import numpy as np
import pytest

from dpglab.adapt import mark
from dpglab.dpg import (POISSON, REACTION_DIFFUSION, ClassStore, DofMap,
                        TrialSpace, _element_classes, _local_systems,
                        assemble_solve)
from dpglab.mesh import (lshape_mesh, refine_marked, refine_uniform,
                         unit_square_mesh)

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
    G, B = _local_systems(DofMap(mesh, TrialSpace(p)), kind,
                          np.arange(mesh.num_triangles))
    owner = rep[cls]
    assert np.array_equal(G, G[owner])
    assert np.array_equal(B, B[owner])


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data())
def test_integer_key_groupings_match_row_wise_unique(data):
    # Mesh's edges and _element_classes group by one-dimensional integer
    # sorts; on random NVB meshes they must give what a row-wise
    # np.unique of the same rows gives, bit for bit
    mesh = lshape_mesh()
    for _ in range(data.draw(st.integers(1, 5), label="rounds")):
        nt = mesh.num_triangles
        marked = data.draw(st.sets(st.integers(0, nt - 1), min_size=1,
                                   max_size=nt), label="marked")
        mesh = refine_marked(mesh, sorted(marked))
        t, nt = mesh.triangles, mesh.num_triangles
        raw = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]],
                                      t[:, [0, 1]]]), axis=1)
        edges, inverse = np.unique(raw, axis=0, return_inverse=True)
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.tri_edges, inverse.reshape(3, nt).T)
        jac = mesh.geometry()[0]
        key = np.column_stack([jac.reshape(nt, 4).view(np.int64),
                               mesh.edge_flips])
        keys, rep, cls = np.unique(key, axis=0, return_index=True,
                                   return_inverse=True)
        for got, want in zip(_element_classes(mesh), (keys, rep, cls.ravel())):
            assert np.array_equal(got, want)


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
        ends = refined.vertices[refined.edges[owners == 1]]
        assert np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).sum() == \
            pytest.approx(8.0, rel=1e-12)
        area = 0.5 * refined.geometry()[1].sum()
        assert area == pytest.approx(3.0, rel=1e-12)
        assert abs(refined.min_angle() - np.pi / 4) <= 1e-12
        # old vertices keep their numbers, and no marked triangle survives
        assert np.array_equal(refined.vertices[:mesh.num_vertices],
                              mesh.vertices)
        survivors = {tuple(sorted(t)) for t in refined.triangles}
        assert not survivors & {tuple(sorted(t))
                                for t in mesh.triangles[marked]}
        mesh = refined


def nvb_oracle(mesh, marked):
    """Newest-vertex bisection of mesh's marked triangles in plain Python,
    one triangle at a time: (vertices, triangles, refinement_edges)."""
    tris = [tuple(int(v) for v in t) for t in mesh.triangles]
    refs = [int(r) for r in mesh.refinement_edges]

    def edge(t, k):     # local edge k, opposite vertex k, as a sorted pair
        return tuple(sorted((t[(k + 1) % 3], t[(k + 2) % 3])))

    split = {edge(tris[i], refs[i]) for i in marked}
    # closure: sweep until no triangle has a marked edge but an unmarked
    # refinement edge
    changed = True
    while changed:
        changed = False
        for t, r in zip(tris, refs):
            if edge(t, r) not in split and any(edge(t, k) in split
                                               for k in range(3)):
                split.add(edge(t, r))
                changed = True
    nv = mesh.num_vertices
    mid = {e: nv + n for n, e in enumerate(sorted(split))}
    vertices = [tuple(float(x) for x in v) for v in mesh.vertices]
    vertices += [tuple(0.5 * (vertices[lo][d] + vertices[hi][d])
                       for d in range(2)) for lo, hi in sorted(split)]

    def bisect(t, r):
        # frame (a, b, c): refinement edge (a, b), peak c; the children
        # refine through their edge 2, (c, a) and (b, c)
        if edge(t, r) not in split:
            return [(t, r)]
        a, b, c = t[(r + 1) % 3], t[(r + 2) % 3], t[r]
        m = mid[edge(t, r)]
        return bisect((c, a, m), 2) + bisect((b, c, m), 2)

    children = [kid for t, r in zip(tris, refs) for kid in bisect(t, r)]
    return (np.array(vertices), np.array([t for t, _ in children]),
            np.array([r for _, r in children]))


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data(),
                  start=st.sampled_from(["lshape", "square1", "square3"]))
def test_refine_marked_matches_a_recursive_bisection_oracle(data, start):
    # refine_marked's four-slot table against per-triangle recursive
    # bisection that shares no code with dpglab.mesh: the same vertices,
    # triangles and refinement edges, bit for bit
    mesh = {"lshape": lshape_mesh, "square1": lambda: unit_square_mesh(1),
            "square3": lambda: unit_square_mesh(3)}[start]()
    for _ in range(data.draw(st.integers(1, 6), label="rounds")):
        marked = draw_marks(data, mesh)
        want = nvb_oracle(mesh, marked)
        mesh = refine_marked(mesh, marked)
        got = (mesh.vertices, mesh.triangles, mesh.refinement_edges)
        for g, w, dtype in zip(got, want, (np.float64, np.int32, np.int8)):
            assert g.dtype == dtype and g.shape == w.shape
            assert np.array_equal(g, w)
            assert g.tobytes() == w.astype(dtype).tobytes()


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(data=st.data(), p=st.integers(0, 3),
                  augmented=st.booleans())
def test_dofmap_counts(data, p, augmented):
    # on a random NVB mesh of the L-shape: the free dofs are the element
    # fields, uhat at interior vertices and on interior edges and the flux
    # on every edge; the skeleton is numbered uhat at the vertices, then p
    # bubbles and then p+1 fluxes per edge, and each skeleton dof sits in
    # the skeleton columns of every element that touches its vertex or
    # edge, once
    mesh = lshape_mesh()
    for _ in range(data.draw(st.integers(1, 6), label="rounds")):
        mesh = refine_marked(mesh, draw_marks(data, mesh))
    dofmap = DofMap(mesh, TrialSpace(p, augmented=augmented))
    nt, nv, ne = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    interior_vertices = int((~mesh.boundary_vertex).sum())
    interior_edges = int((~mesh.boundary_edge).sum())
    free_skeleton = interior_vertices + p * interior_edges + (p + 1) * ne
    assert dofmap.free.sum() == dofmap.num_free_skeleton == free_skeleton
    assert dofmap.num_free == nt * dofmap.k_int + free_skeleton
    # free_cols numbers the free skeleton dofs from 0 in skeleton order,
    # the numbering of the solve, and marks the prescribed ones -1
    solve_index = np.full(dofmap.n_skeleton, -1)
    solve_index[dofmap.free] = np.arange(free_skeleton)
    assert dofmap.free_cols.dtype == np.int32
    assert np.array_equal(dofmap.free_cols,
                          solve_index[dofmap.skeleton_cols])

    cols = dofmap.skeleton_cols
    assert cols.shape == (nt, dofmap.n_local - dofmap.k_int)
    assert (np.diff(np.sort(cols, axis=1), axis=1) > 0).all()
    elements_at_vertex = np.bincount(mesh.triangles.ravel(), minlength=nv)
    elements_at_edge = np.bincount(mesh.tri_edges.ravel(), minlength=ne)
    expected = np.concatenate([elements_at_vertex,
                               np.repeat(elements_at_edge, p),
                               np.repeat(elements_at_edge, p + 1)])
    assert np.array_equal(
        np.bincount(cols.ravel(), minlength=dofmap.n_skeleton), expected)
    # each element's skeleton columns [uhat vertices | bubbles | fluxes]
    # hold the dofs of its own vertices and edges
    edge_of = np.concatenate([np.repeat(np.arange(ne), p),
                              np.repeat(np.arange(ne), p + 1)])
    assert np.array_equal(cols[:, :3], mesh.triangles)
    assert np.array_equal(edge_of[cols[:, 3:] - nv], np.concatenate(
        [np.repeat(mesh.tri_edges, p, axis=1),
         np.repeat(mesh.tri_edges, p + 1, axis=1)], axis=1))



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


def mark_oracle(eta, theta):
    """mark() in plain Python: the elements ordered by (-eta_i^2, i), the
    squares summed one by one in that order, and the shortest prefix whose
    running sum reaches theta times the last, sorted; nothing when that
    total is zero."""
    sq = [e * e for e in eta]
    order = sorted(range(len(eta)), key=lambda i: (-sq[i], i))
    running, total = [], 0.0
    for i in order:
        total += sq[i]
        running.append(total)
    if total == 0.0:
        return []
    k = next(j for j, s in enumerate(running) if s >= theta * total)
    return sorted(order[:k + 1])


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    eta=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1,
                 max_size=40),
    theta=st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_mark_matches_a_pure_python_oracle(eta, theta):
    # exact ties and zeros are common among these values, and the squares
    # and their sums are exact, so a cut can fall inside a run of equal
    # contributions or on the threshold itself: equal contributions are
    # taken in ascending element order
    assert mark(np.array(eta), theta).tolist() == mark_oracle(eta, theta)


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
        for name in ("skeleton_coeffs", "u_coeffs", "sigma_coeffs",
                     "eta_local"):
            assert np.array_equal(getattr(kept, name), getattr(fresh, name))
        diag = dict(kept.diagnostics)
        assert diag.pop("classes_condensed") <= diag["element_classes"]
        assert fresh.diagnostics.pop("classes_condensed") == \
            diag["element_classes"]
        assert diag == fresh.diagnostics
        assert len(store) == diag["element_classes"]
        mesh = refine_marked(mesh, draw_marks(data, mesh))
