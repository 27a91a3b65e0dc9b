"""Mesh construction, newest-vertex bisection, and dump format tests."""

import numpy as np
import pytest

from dpglab.mesh import (Mesh, load_mesh, lshape_mesh, refine_marked,
                         refine_uniform, save_mesh, unit_square_mesh)


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
        ge = m.tri_edges[t, m.refinement_edges[t]]
        assert m.edge_lengths[ge] == pytest.approx(np.sqrt(2.0))
    assert m.h_max == pytest.approx(np.sqrt(2.0))


def test_unit_square_two_by_two():
    m = unit_square_mesh(2)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (9, 8, 16)
    assert m.total_area() == pytest.approx(1.0, rel=1e-14)
    assert_conforming(m)


def test_unit_square_rejects_zero():
    with pytest.raises(ValueError):
        unit_square_mesh(0)


def test_lshape_initial_mesh():
    m = lshape_mesh()
    assert m.num_triangles == 6
    assert int(m.boundary_vertex.sum()) == 8
    assert m.total_area() == pytest.approx(3.0, rel=1e-14)
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


def test_refine_marked_empty_returns_copy():
    m0 = unit_square_mesh(2)
    m = refine_marked(m0, [])
    assert m is not m0
    assert np.array_equal(m.triangles, m0.triangles)
    assert np.array_equal(m.vertices, m0.vertices)


def test_refine_marked_rejects_bad_index():
    with pytest.raises(ValueError):
        refine_marked(unit_square_mesh(1), [5])


def test_refine_marked_rejects_boolean_mask():
    # a mask is no index list: np.asarray(mask) read as indices would
    # refine elements 0 and 1 here instead of element 5
    mask = np.zeros(lshape_mesh().num_triangles, dtype=bool)
    mask[5] = True
    with pytest.raises(ValueError, match="boolean mask"):
        refine_marked(lshape_mesh(), mask)
    with pytest.raises(ValueError, match="boolean mask"):
        refine_marked(lshape_mesh(), [False, True])


@pytest.mark.parametrize("marked", [[0.7], np.array([1.0, 2.0]), ["1"]],
                         ids=["fraction", "float-array", "string"])
def test_refine_marked_rejects_non_integer_index(marked):
    with pytest.raises(ValueError, match="integer triangle indices"):
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
    assert m2.total_area() == pytest.approx(1.0, rel=1e-12)
    assert_conforming(m2)


def test_nvb_invariants_over_eight_rounds():
    rng = np.random.default_rng(7)
    m = lshape_mesh()
    area0 = m.total_area()
    min_angle0 = m.min_angle()
    for _ in range(8):
        k = max(1, m.num_triangles // 5)
        marked = rng.choice(m.num_triangles, size=k, replace=False)
        m = refine_marked(m, marked)
        assert_conforming(m)
        assert m.total_area() == pytest.approx(area0, rel=1e-12)
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
    assert m.areas()[0] > 0
    ge = m.tri_edges[0, m.refinement_edges[0]]
    # edge 1 of the original ordering was (v2, v0) = {(1,0), (0,0)}
    assert set(m.edges[ge]) == {0, 2}


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


def test_mesh_dump_roundtrip(tmp_path):
    m = refine_marked(lshape_mesh(), [0, 2])
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.refinement_edges, m.refinement_edges)
    header = path.read_text().splitlines()[0]
    assert header == f"vertices {m.num_vertices} triangles {m.num_triangles}"


@pytest.mark.parametrize("mangle, line, detail", [
    (lambda lines: lines[:-1], 18, ""),
    (lambda lines: lines[:3] + ["v 0.5"] + lines[4:], 4, ""),
    (lambda lines: lines + ["t 0 1 2 0"], 19, ""),
    (lambda lines: ["vertices x triangles 8"] + lines[1:], 1, ""),
    (lambda lines: lines[:3] + ["v 0.5 y"] + lines[4:], 4, ""),
    (lambda lines: lines[:12] + ["t 0 1 2.5 0"] + lines[13:], 13, ""),
    # the triangle records would start at line 1 + nv = 0
    (lambda lines: ["vertices -1 triangles 1", "t 0 1 2 0"], 1,
     " header count -1 is negative"),
], ids=["truncated", "short-vertex-line", "extra-line", "non-numeric-count",
        "non-numeric-vertex", "non-integer-triangle", "negative-count"])
def test_load_mesh_rejects_malformed_file(tmp_path, mangle, line, detail):
    path = tmp_path / "mesh.txt"
    save_mesh(unit_square_mesh(2), path)    # 9 vertices, 8 triangles
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mangle(lines)) + "\n")
    with pytest.raises(ValueError, match=f"mesh.txt, line {line}:{detail}"):
        load_mesh(path)


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


def test_load_mesh_rejects_out_of_range_vertex_index(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("vertices 3 triangles 1\nv 0 0\nv 1 0\nv 0 1\n"
                    "t 0 1 5 0\n")
    with pytest.raises(ValueError, match="vertex indices"):
        load_mesh(path)


def test_mesh_arrays_immutable():
    m = unit_square_mesh(1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0
