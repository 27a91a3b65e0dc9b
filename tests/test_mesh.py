"""Mesh construction and newest-vertex bisection tests."""

import re

import numpy as np
import pytest

from dpglab.mesh import (Mesh, lshape_mesh, refine_marked, refine_uniform,
                         unit_square_mesh)


def assert_conforming(mesh):
    # every edge belongs to one or two triangles and carries no hanging
    # midpoint vertex (NVB only ever creates hanging nodes at midpoints)
    counts = np.zeros(mesh.num_edges, dtype=int)
    for e in mesh.tri_edges.ravel():
        counts[e] += 1
    assert set(np.unique(counts)) <= {1, 2}
    coords = {(round(x, 12), round(y, 12)) for x, y in mesh.vertices}
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] +
                  mesh.vertices[mesh.edges[:, 1]])
    for mx, my in mids:
        assert (round(mx, 12), round(my, 12)) not in coords


def test_unit_square_minimal():
    m = unit_square_mesh(1)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (4, 2, 5)
    # refinement edge of both triangles is the hypotenuse
    for t in range(2):
        a, b = m.vertices[m.edges[m.tri_edges[t, m.refinement_edges[t]]]]
        assert np.linalg.norm(b - a) == pytest.approx(np.sqrt(2.0))
    assert m.h_max == pytest.approx(np.sqrt(2.0))


def test_unit_square_two_by_two():
    m = unit_square_mesh(2)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (9, 8, 16)
    assert 0.5 * m.geometry()[1].sum() == pytest.approx(1.0, rel=1e-14)
    assert_conforming(m)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unit_square_numbering_matches_a_cell_loop(n):
    # cells row by row, each split into (ll, lr, ur) and (ll, ur, ul)
    tris = []
    for j in range(n):
        for i in range(n):
            ll, ul = j * (n + 1) + i, (j + 1) * (n + 1) + i
            tris += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
    m = unit_square_mesh(n)
    assert m.triangles.tobytes() == np.array(tris, dtype=np.int32).tobytes()
    assert m.vertices[tris[0][2]].tolist() == [1.0 / n, 1.0 / n]


def test_unit_square_rejects_zero():
    # and a count that is not an integer: a float, whole or not, a bool
    # or a string
    for n in (0, -1, 2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="subdivision count must be an "
                                             "integer >= 1"):
            unit_square_mesh(n)
    assert unit_square_mesh(np.int64(2)).num_triangles == 8


def test_lshape_initial_mesh():
    m = lshape_mesh()
    assert m.num_triangles == 6
    assert int(m.boundary_vertex.sum()) == 8
    assert 0.5 * m.geometry()[1].sum() == pytest.approx(3.0, rel=1e-14)
    # every triangle touches the reentrant corner at the origin
    for tri in m.triangles:
        assert np.any(np.all(m.vertices[tri] == 0.0, axis=1))
    assert_conforming(m)


def test_refine_marked_both_triangles():
    m = refine_marked(unit_square_mesh(1), [0, 1])
    assert (m.num_triangles, m.num_vertices) == (4, 5)
    # the new vertex is the diagonal midpoint
    assert any(np.allclose(v, [0.5, 0.5]) for v in m.vertices)
    assert_conforming(m)


def test_refine_marked_closure():
    # marking one triangle also bisects the neighbour across the shared
    # refinement edge
    m = refine_marked(unit_square_mesh(1), [0])
    assert m.num_triangles == 4
    assert_conforming(m)


def test_refine_marked_empty_returns_input():
    # a Mesh is immutable, so nothing marked hands the input back
    m0 = unit_square_mesh(2)
    assert refine_marked(m0, []) is m0


@pytest.mark.parametrize("marked", [[-1], [5], [0, 5], [-1, 3]],
                         ids=["negative", "past-the-end",
                              "valid-and-past-the-end",
                              "negative-and-past-the-end"])
def test_refine_marked_rejects_bad_index(marked):
    # a negative index would wrap through fancy indexing and refine a
    # triangle from the end; the mesh has two
    with pytest.raises(ValueError,
                       match="marked triangle index out of range"):
        refine_marked(unit_square_mesh(1), marked)


def test_refine_marked_rejects_boolean_mask():
    # a mask is no index list: np.asarray(mask) read as indices would
    # refine elements 0 and 1 here instead of element 5
    mask = np.zeros(lshape_mesh().num_triangles, dtype=bool)
    mask[5] = True
    for marked, shape in ((mask, r"\(6,\)"), ([False, True], r"\(2,\)")):
        with pytest.raises(ValueError, match=(
                rf"^marked has shape {shape} and dtype bool, expected "
                r"\(\*,\); it must hold integers$")):
            refine_marked(lshape_mesh(), marked)


@pytest.mark.parametrize("marked", [[0.7], np.array([1.0, 2.0]), ["1"]],
                         ids=["fraction", "float-array", "string"])
def test_refine_marked_rejects_non_integer_index(marked):
    got = np.asarray(marked)
    with pytest.raises(ValueError, match=(
            rf"^marked has shape {re.escape(str(got.shape))} and dtype "
            rf"{re.escape(str(got.dtype))}, expected \(\*,\); it must hold "
            r"integers$")):
        refine_marked(lshape_mesh(), marked)


def test_refine_marked_integer_forms_agree():
    # lists, sets, repeats and numpy integer arrays of any width all name
    # the same triangles
    want = refine_marked(lshape_mesh(), [1, 4])
    for marked in ({4, 1}, [4, 1, 4], np.array([4, 1], dtype=np.int32),
                   np.array([1, 4, 1], dtype=np.uint8), range(1, 5, 3)):
        got = refine_marked(lshape_mesh(), marked)
        assert np.array_equal(got.triangles, want.triangles)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.refinement_edges, want.refinement_edges)


def test_refine_uniform_counts_and_h():
    m0 = unit_square_mesh(1)
    m1 = refine_uniform(m0)
    assert m1.num_triangles == 8
    assert m1.h_max <= m0.h_max / 2 + 1e-12
    m2 = refine_uniform(m1)
    assert m2.num_triangles == 32
    assert 0.5 * m2.geometry()[1].sum() == pytest.approx(1.0, rel=1e-12)
    assert_conforming(m2)


def test_nvb_invariants_over_eight_rounds():
    rng = np.random.default_rng(7)
    m = lshape_mesh()
    area0 = 0.5 * m.geometry()[1].sum()
    min_angle0 = m.min_angle()
    for _ in range(8):
        k = max(1, m.num_triangles // 5)
        marked = rng.choice(m.num_triangles, size=k, replace=False)
        m = refine_marked(m, marked)
        assert_conforming(m)
        assert 0.5 * m.geometry()[1].sum() == pytest.approx(area0, rel=1e-12)
    assert m.min_angle() >= min_angle0 / 2 - 1e-12


def test_children_diameters_never_exceed_parent():
    m = unit_square_mesh(2)
    h0 = m.diameters().max()
    m1 = refine_marked(m, np.arange(m.num_triangles))
    assert m1.diameters().max() <= h0 + 1e-14


def test_refinement_determinism():
    a = refine_marked(lshape_mesh(), [0, 3, 5])
    b = refine_marked(lshape_mesh(), [0, 3, 5])
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.refinement_edges, b.refinement_edges)


def test_orientation_normalization():
    # a clockwise triangle is flipped and its refinement edge remapped
    verts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    m = Mesh(verts, np.array([[0, 1, 2]]), np.array([1]))
    assert m.geometry()[1][0] > 0
    ge = m.tri_edges[0, m.refinement_edges[0]]
    # edge 1 of the original ordering was (v2, v0) = {(1,0), (0,0)}
    assert set(m.edges[ge]) == {0, 2}


def test_element_geometry_matches_independent_formulas():
    # geometry() maps the triangles after orientation, and edge_flips is
    # computed once; inputs with every second triangle clockwise
    base = refine_marked(refine_uniform(lshape_mesh()), [0, 5, 9])
    tris = base.triangles.copy()
    tris[1::2] = tris[1::2][:, [0, 2, 1]]
    mesh = Mesh(base.vertices, tris, base.refinement_edges)
    v = mesh.vertices[mesh.triangles]
    jac, det, inv = mesh.geometry()
    assert np.array_equal(jac, np.stack([v[:, 1] - v[:, 0],
                                         v[:, 2] - v[:, 0]], axis=2))
    assert (det > 0).all()
    assert np.allclose(det, np.linalg.det(jac), rtol=1e-13, atol=0)
    assert np.allclose(inv, np.linalg.inv(jac), rtol=1e-13, atol=1e-13)
    # det J bit for bit the cross product of the input triangles
    w = mesh.vertices[tris]
    d1, d2 = w[:, 1] - w[:, 0], w[:, 2] - w[:, 0]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert np.array_equal(det, np.abs(cross))
    # local edge k runs from local vertex k+1 to k+2
    start = mesh.triangles[:, [1, 2, 0]]
    assert np.array_equal(mesh.edge_flips,
                          start != mesh.edges[mesh.tri_edges, 0])
    assert mesh.edge_flips.any() and not mesh.edge_flips.all()
    # x = v0 + J xhat maps the reference vertices onto the triangles
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(mesh.to_physical(ref), v)
    for arr in (jac, det, inv, mesh.edge_flips):
        assert not arr.flags.writeable


def test_geometry_is_affine_maps_of_the_oriented_triangles():
    # the mesh stores no geometry: geometry(elements) maps the oriented
    # triangles anew, bit for bit spaces.affine_maps, for a slice, an
    # index array and the whole mesh, read-only; inputs with every third
    # triangle clockwise
    from dpglab.spaces import affine_maps

    base = refine_marked(refine_uniform(lshape_mesh()), [0, 5, 9])
    tris = base.triangles.copy()
    tris[::3] = tris[::3][:, [0, 2, 1]]
    mesh = Mesh(base.vertices, tris, base.refinement_edges)
    assert not np.array_equal(mesh.triangles, tris)
    for elements in (slice(3, 17), np.array([20, 2, 2, 7]), slice(None)):
        got = mesh.geometry(elements)
        want = affine_maps(mesh.vertices[mesh.triangles[elements]])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
            assert not g.flags.writeable
        assert (got[1] > 0).all()
    # diameters, h_max and h_min are the lengths of the global edges bit
    # for bit, from the vertices: J_1 - J_0 need not be v2 - v1 in floats
    ends = mesh.vertices[mesh.edges]
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    assert np.array_equal(mesh.diameters(),
                          lengths[mesh.tri_edges].max(axis=1))
    assert mesh.h_max == lengths.max()
    assert mesh.h_min == lengths[mesh.tri_edges].max(axis=1).min()
    # vertices is the only float array the mesh holds; its indices are
    # int32 and its refinement edges int8
    floats = [name for name, value in vars(mesh).items()
              if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
    assert floats == ["vertices"]
    for name in ("triangles", "edges", "tri_edges"):
        assert getattr(mesh, name).dtype == np.int32
    assert mesh.refinement_edges.dtype == np.int8


def row_unique_edges(triangles):
    """The oracle for Mesh's integer edge key: edges and tri_edges by a
    row-wise np.unique of the sorted vertex pairs."""
    raw = np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]],
                          triangles[:, [0, 1]]])
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0,
                               return_inverse=True)
    return edges, inverse.reshape(3, -1).T


def test_edges_match_row_wise_unique():
    # the key lo nv + hi gives the row-wise grouping bit for bit: on a
    # relabelled mesh (other orientations, no order between labels and
    # positions), on an NVB refinement of it, on no triangles at all, and
    # on 47,089 vertices, where the key passes int32's range
    rng = np.random.default_rng(11)
    mesh = refine_uniform(refine_uniform(lshape_mesh()))
    label = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[label] = mesh.vertices
    relabelled = Mesh(vertices, label[mesh.triangles], mesh.refinement_edges)
    refined = refine_marked(relabelled, rng.choice(mesh.num_triangles, 20))
    empty = Mesh(np.zeros((3, 2)), np.zeros((0, 3), dtype=np.int64),
                 np.zeros(0, dtype=np.int64))
    for m in (mesh, relabelled, refined, empty, unit_square_mesh(216)):
        edges, tri_edges = row_unique_edges(m.triangles)
        assert m.edges.dtype == edges.dtype == np.int32
        assert np.array_equal(m.edges, edges)
        assert np.array_equal(m.tri_edges, tri_edges)
    assert empty.edges.shape == (0, 2)
    assert empty.tri_edges.shape == (0, 3)
    assert empty.h_max == empty.h_min == 0.0


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 1, 2]]), np.array([0]))


def test_nonmanifold_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [-1.0, 1.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4]])
    tris = np.vstack([tris, [[0, 1, 2]]])      # edge (0,1) x3 via duplicate
    with pytest.raises(ValueError):
        Mesh(verts, tris, np.zeros(4, dtype=int))


FOLDED = [
    # triangle (0, 1, 3) lies inside (0, 1, 2): both on one side of (0, 1)
    ([[0, 0], [1, 0], [0, 1], [0.2, 0.2]], [[0, 1, 2], [0, 1, 3]], [0, 0]),
    # a triangle listed twice, once with the other orientation
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 2, 1]], [0, 0]),
]


@pytest.mark.parametrize("verts, tris, ref", FOLDED,
                         ids=["folded", "repeated-triangle"])
def test_folded_mesh_rejected(verts, tris, ref):
    # both used to be accepted, and a solve on them returned an estimator
    # with no error
    with pytest.raises(ValueError, match="same direction"):
        Mesh(verts, tris, ref)


@pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "too-large"])
def test_mesh_rejects_out_of_range_vertex_index(bad):
    # -1 would wrap to vertex 3 and give a sixth, doubly counted edge
    with pytest.raises(ValueError, match="vertex indices"):
        Mesh([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, bad], [1, 3, 2]],
             [0, 0])


@pytest.mark.parametrize("tris, ref", [
    ([[0, 1.9, 2], [1, 3, 2]], [0, 0]),
    ([[0, 1, 2], [1, 3, 2]], [0.7, 0]),
    ([[0, 1, 2], [1, 3, 2]], [True, False]),
], ids=["fractional-vertex", "fractional-edge", "boolean-edge"])
def test_mesh_rejects_non_integer_indices(tris, ref):
    # these used to be truncated silently: 1.9 -> 1, 0.7 -> 0, True -> 1
    with pytest.raises(ValueError, match="must hold integers"):
        Mesh([[0, 0], [1, 0], [0, 1], [1, 1]], tris, ref)


@pytest.mark.parametrize("verts, tris, ref, message", [
    ([[0, 0], [1, np.nan], [0, 1]], [[0, 1, 2]], [0],
     "vertex coordinates must be finite"),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]], [0],
     r"triangle vertex indices must lie in \[0, 3\)"),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [3],
     r"refinement edge indices must be in \{0, 1, 2\}"),
], ids=["nan-vertex", "vertex-index", "refinement-edge"])
def test_mesh_refuses_values_out_of_range(verts, tris, ref, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        Mesh(verts, tris, ref)


def test_mesh_arrays_immutable():
    m = unit_square_mesh(1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0
