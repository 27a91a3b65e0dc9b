"""
Conforming triangular meshes with newest-vertex-bisection (NVB) refinement.

A mesh stores vertices, positively oriented triangles, and per-triangle
refinement edges.  Local edge k of a triangle is the edge opposite local
vertex k:

    edge 0 = (v1, v2),  edge 1 = (v2, v0),  edge 2 = (v0, v1).

The refinement edge index designates the edge bisected first; the vertex
opposite it is the triangle's "newest" vertex.  Bisection inserts the
midpoint m of the refinement edge and hands the parent's two remaining
edges down as the children's refinement edges, which keeps the number of
similarity classes bounded (shape regularity).

Refinement of a marked element set works on a global set of marked edges:
every marked triangle marks its refinement edge, a closure sweep marks
refinement edges of any triangle that has some marked edge, and finally
each triangle is bisected through exactly its marked edges (1, 2, or 3 of
them giving 2, 3, or 4 children).  Because edge marking is a global edge
property, midpoints match across neighbours and the result is conforming.
"""

from collections.abc import Iterable

import numpy as np

from .spaces import _check_array, _check_integer, affine_maps

# child refinement edges under vertex permutations used below
_FLIP_REFEDGE = np.array([0, 2, 1])


class Mesh:
    """Immutable conforming triangle mesh.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices; orientation is normalized to counterclockwise.
    refinement_edges : (nt,) int array
        Index in {0, 1, 2} of each triangle's refinement edge (the edge
        opposite the newest vertex).

    Each array passes spaces._check_array, which copies it: another shape,
    or a boolean or non-integer index array (no truncation), raises
    ValueError, as do a non-finite vertex coordinate and an index out of
    range.  After orientation is normalized, the two triangles of an
    interior edge must run along it in opposite directions, one on each
    side: a folded mesh (two triangles on the same side of an edge), a
    triangle listed twice, or an edge of more than two triangles raises
    ValueError.

    The mesh keeps its index arrays, triangles, edges and tri_edges, as
    int32 and refinement_edges as int8, each narrowed once the checks
    above have bounded its values; int32 holds the indices of any mesh
    below 2**31 vertices (32 GiB of coordinates).

    Derived attributes
    ------------------
    edges : (ne, 2) int32 array, each row sorted low < high, rows in
        lexicographic order: sorted by the key low * nv + high, formed in
        int64, where it is exact for nv < 3e9.
    tri_edges : (nt, 3) int32 array, global edge id of local edge k.
    edge_flips : (nt, 3) bool array, local edge k (from local vertex k+1
        to k+2) runs against its global edge (from low to high vertex).
    boundary_edge : (ne,) bool, boundary_vertex : (nv,) bool.
    h_max, h_min : float, largest and smallest element diameter
        (longest edge); 0.0 without triangles.

    vertices is the only float array the mesh holds.  The element
    geometry, J, det J and J^{-1}, is computed where it is used
    (geometry()), each stage for its own elements, so that each mesh an
    adaptive run keeps holds its topology and vertices alone
    (test_adaptive_loop_keeps_a_light_mesh_per_step bounds them at 56
    bytes per element).
    """

    def __init__(self, vertices, triangles, refinement_edges):
        vertices = _check_array(vertices, "vertices", (None, 2))
        triangles = _check_array(triangles, "triangles", (None, 3),
                                 integer=True)
        refinement_edges = _check_array(refinement_edges, "refinement_edges",
                                        (len(triangles),), integer=True)
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        if not ((triangles >= 0) & (triangles < vertices.shape[0])).all():
            raise ValueError("triangle vertex indices must lie in "
                             f"[0, {vertices.shape[0]})")
        if refinement_edges.size and not (
                (refinement_edges >= 0) & (refinement_edges <= 2)).all():
            raise ValueError("refinement edge indices must be in {0, 1, 2}")

        # normalize orientation: flip clockwise triangles and remap their
        # refinement edge (v1, v2 swapped: edges 1, 2 too); affine_maps
        # refuses a degenerate triangle
        flip = affine_maps(vertices[triangles])[1] < 0.0
        if flip.any():
            triangles[flip] = triangles[flip][:, [0, 2, 1]]
            refinement_edges[flip] = _FLIP_REFEDGE[refinement_edges[flip]]

        # the range checks bound every index by nv and every refinement
        # edge by 2, so neither narrowing can wrap
        self.vertices = vertices
        self.triangles = triangles.astype(np.int32)
        self.refinement_edges = refinement_edges.astype(np.int8)

        self._build_edges()
        h = self.diameters() if len(triangles) else np.zeros(1)
        self.h_max, self.h_min = float(h.max()), float(h.min())

        for arr in (self.vertices, self.triangles, self.refinement_edges,
                    self.edges, self.tri_edges, self.edge_flips,
                    self.boundary_edge, self.boundary_vertex):
            arr.setflags(write=False)

    def _build_edges(self):
        t = self.triangles
        # local edge k is opposite vertex k and runs from vertex k+1 to k+2
        raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        flips = raw[:, 0] > raw[:, 1]
        self.edge_flips = flips.reshape(3, t.shape[0]).T.copy()
        # the key lo nv + hi orders the rows (lo, hi) lexicographically
        # and is exact in int64 for nv < 3e9, so the pairs are widened
        # first: from the int32 columns it would wrap once nv > 46,340.
        # lo and hi come from np.minimum and np.maximum, not np.sort, and
        # return_index makes np.unique argsort stably, as np.lexsort does:
        # numpy's unstable int64 sort pages code of its own into a study
        raw = raw.astype(np.int64)
        lo = np.minimum(raw[:, 0], raw[:, 1])
        hi = np.maximum(raw[:, 0], raw[:, 1])
        nv = self.vertices.shape[0]
        codes, _, inverse = np.unique(lo * nv + hi,
                                      return_index=True, return_inverse=True)
        edges = np.column_stack([codes // nv, codes % nv]).astype(np.int32)
        self.edges = edges
        self.tri_edges = inverse.reshape(3, t.shape[0]).T.astype(np.int32,
                                                                 order="C")

        # counterclockwise neighbours run along their shared edge in
        # opposite directions, so no edge is run along twice in one
        # direction; this also bounds an edge to two triangles
        uses = np.bincount(2 * inverse + flips, minlength=2 * len(codes))
        if uses.size and uses.max() > 1:
            raise ValueError("two triangles run along an edge in the same "
                             "direction (a folded or nonmanifold mesh, or a "
                             "repeated triangle)")
        self.boundary_edge = uses[::2] + uses[1::2] == 1
        self.boundary_vertex = np.zeros(self.vertices.shape[0], dtype=bool)
        self.boundary_vertex[edges[self.boundary_edge].ravel()] = True

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def geometry(self, elements=slice(None)):
        """The affine maps x = v0 + J xhat of elements, an index array or
        a slice (all by default), computed anew by spaces.affine_maps on
        the oriented triangles: J and J^{-1} (ne, 2, 2) and det J > 0
        (ne,), read-only.  A caller maps each element once per stage and
        passes J on (to_physical)."""
        maps = affine_maps(self.vertices[self.triangles[elements]])
        for arr in maps:
            arr.setflags(write=False)
        return maps

    def to_physical(self, pts, elements=slice(None), jac=None):
        """Images v0 + J xhat of reference points pts (npts, 2) under the
        maps of elements, an index array or a slice (all by default);
        shape (number of elements, npts, 2).  jac is their J when the
        caller holds it already (geometry(elements)[0])."""
        if jac is None:
            jac = self.geometry(elements)[0]
        origin = self.vertices[self.triangles[elements, 0]]
        return origin[:, None, :] + pts @ jac.transpose(0, 2, 1)

    def diameters(self):
        """Longest edge length of every triangle; shape (nt,).  The
        lengths are those of the global edges, from their end vertices:
        not from geometry(), whose J_1 - J_0 need not be v2 - v1 bit for
        bit."""
        ends = self.vertices[self.edges]
        lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        return lengths[self.tri_edges].max(axis=1)

    def min_angle(self):
        """Smallest interior angle over all triangles, in radians."""
        p = self.vertices[self.triangles]
        # the edges a, b from each corner have the cross product det J
        a, b = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
        dot = np.einsum("ekd,ekd->ek", a, b)
        return float(np.arctan2(self.geometry()[1][:, None], dot).min())

    def __repr__(self):
        return (f"Mesh({self.num_vertices} vertices, "
                f"{self.num_triangles} triangles, {self.num_edges} edges, "
                f"h_max={self.h_max:.4g})")


def _longest_edge_indices(vertices, triangles):
    p = vertices[triangles]
    # local edge k runs from vertex k+1 to vertex k+2
    edges = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    return np.argmax(np.linalg.norm(edges, axis=2), axis=1)


def unit_square_mesh(n):
    """Structured mesh of the unit square (0,1)^2 with 2 n^2 triangles.

    Each grid cell is split by the diagonal from its lower-left to its
    upper-right corner.  Refinement edges are initialized to the longest
    edge (the diagonal).  n is an integer >= 1, not a bool; anything else
    raises ValueError.
    """
    _check_integer(n, "subdivision count", 1)
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # cell (i, j) has lower-left corner ll = j (n+1) + i and the triangles
    # (ll, lr, ur) and (ll, ur, ul), cells in row-major order
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    corners = np.array([[0, 1, n + 2], [0, n + 2, n + 1]])
    triangles = (ll[:, None, None] + corners).reshape(-1, 3)
    ref = _longest_edge_indices(vertices, triangles)
    return Mesh(vertices, triangles, ref)


def lshape_mesh():
    """Initial mesh of the L-shaped domain (-1,1)^2 minus [0,1] x [-1,0].

    Six congruent right triangles; each of the three unit squares is split
    by its diagonal incident to the reentrant corner at the origin, so
    every triangle has the origin as a vertex.  The interior angle at the
    origin is 3 pi / 2.
    """
    vertices = np.array([
        [0.0, 0.0],    # reentrant corner
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
        [-1.0, 1.0],
        [-1.0, 0.0],
        [-1.0, -1.0],
        [0.0, -1.0],
    ])
    # the fan (0, k, k + 1) around the reentrant corner
    triangles = np.array([[0, k, k + 1] for k in range(1, 7)], dtype=np.int64)
    ref = _longest_edge_indices(vertices, triangles)
    return Mesh(vertices, triangles, ref)


def refine_marked(mesh, marked):
    """Newest-vertex bisection of the marked triangles with conforming closure.

    Every marked triangle is bisected at least once through its refinement
    edge; the recursive closure bisects further triangles as needed so that
    no hanging vertices remain.  Returns a new mesh, or the input mesh
    itself when nothing is marked (a Mesh is immutable, so sharing it is
    safe); the input is never changed.

    marked is an iterable of integer triangle indices, repeats allowed.  A
    boolean mask, any non-integer value, an index out of range, a scalar
    index, and an index array that is not 1-D (0-d or 2-D) raise
    ValueError (spaces._check_array).
    """
    # a set or a generator becomes a list; an array, or a scalar, which
    # the gate refuses, goes to the gate as it is
    if isinstance(marked, Iterable) and not isinstance(marked, np.ndarray):
        marked = list(marked)
    # neither sorted nor deduplicated: marked is read only as an index
    # that sets edge_marked, which repeats and order leave alone
    marked = _check_array(marked, "marked", (None,), integer=True)
    if marked.size == 0:
        return mesh
    nt = mesh.num_triangles
    if marked.min() < 0 or marked.max() >= nt:
        raise ValueError("marked triangle index out of range")

    t2e = mesh.tri_edges
    ref_edge_of = t2e[np.arange(nt), mesh.refinement_edges]
    edge_marked = np.zeros(mesh.num_edges, dtype=bool)
    edge_marked[ref_edge_of[marked]] = True

    # closure: a triangle with any marked edge must have its refinement
    # edge marked as well; iterate until stable
    while True:
        has_marked = edge_marked[t2e].any(axis=1)
        need = has_marked & ~edge_marked[ref_edge_of]
        if not need.any():
            break
        edge_marked[ref_edge_of[need]] = True

    # one new vertex per marked edge, appended in edge order
    n_new = int(edge_marked.sum())
    midpoint_vertex = np.full(mesh.num_edges, -1, dtype=np.int32)
    midpoint_vertex[edge_marked] = mesh.num_vertices + np.arange(n_new)
    mids = 0.5 * (mesh.vertices[mesh.edges[edge_marked, 0]] +
                  mesh.vertices[mesh.edges[edge_marked, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    # four child slots per triangle, kept in row-major order.  A triangle
    # left alone keeps slot 0 and its refinement edge.  A split one, in
    # its frame (a, b, c) with refinement edge (a, b) and peak c, is
    # bisected into (c, a, m_ab) and (b, c, m_ab), and each child once
    # more through its (v0, v1) edge (c, a) or (b, c) when that is marked:
    #   slot 0  (m_ab, c, m_ca) or (c, a, m_ab),  slot 1  (a, m_ab, m_ca),
    #   slot 2  (m_ab, b, m_bc) or (b, c, m_ab),  slot 3  (c, m_ab, m_bc);
    # slot 1 exists when (c, a) is marked, slot 3 when (b, c) is, and
    # every child refines through edge 2, its (v0, v1); in the mesh's
    # own types, int32 and int8
    kids = np.empty((nt, 4, 3), dtype=np.int32)
    kids[:, 0] = mesh.triangles
    ref = np.full((nt, 4), 2, dtype=np.int8)
    ref[:, 0] = mesh.refinement_edges
    keep = np.tile([True, False, False, False], (nt, 1))
    split = np.flatnonzero(edge_marked[ref_edge_of])
    # flat indices of the local vertices and edges r+1, r+2, r of the
    # split triangles: the frame (a, b, c) and the midpoints of (b, c),
    # (c, a), (a, b)
    at = 3 * split + (mesh.refinement_edges[split] + [[1], [2], [0]]) % 3
    a, b, c = mesh.triangles.ravel()[at]
    m_bc, m_ca, m_ab = midpoint_vertex[t2e.ravel()[at]]
    ca, bc = m_ca >= 0, m_bc >= 0
    kids[split] = np.stack([
        np.where(ca[:, None], np.column_stack([m_ab, c, m_ca]),
                 np.column_stack([c, a, m_ab])),
        np.column_stack([a, m_ab, m_ca]),
        np.where(bc[:, None], np.column_stack([m_ab, b, m_bc]),
                 np.column_stack([b, c, m_ab])),
        np.column_stack([c, m_ab, m_bc])], axis=1)
    ref[split, 0] = 2
    keep[split, 1], keep[split, 2], keep[split, 3] = ca, True, bc
    return Mesh(vertices, kids[keep], ref[keep])


def refine_uniform(mesh):
    """One uniform refinement level: two complete NVB sweeps.

    Two sweeps bisect every element's longest edge chain so that all
    element diameters halve, giving the usual dofs ~ h^{-2} scaling per
    level.
    """
    out = refine_marked(mesh, np.arange(mesh.num_triangles))
    return refine_marked(out, np.arange(out.num_triangles))
