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

import numpy as np

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

    A boolean or non-integer index array raises ValueError (no truncation).

    Derived attributes
    ------------------
    edges : (ne, 2) int array, each row sorted low < high, rows in
        lexicographic order.
    tri_edges : (nt, 3) int array, global edge id of local edge k.
    boundary_edge : (ne,) bool, boundary_vertex : (nv,) bool.
    h_max : float, maximum element diameter (longest edge).
    """

    def __init__(self, vertices, triangles, refinement_edges):
        for name, idx in (("triangles", triangles),
                          ("refinement_edges", refinement_edges)):
            idx = np.asarray(idx)
            if idx.size and not np.issubdtype(idx.dtype, np.integer):
                raise ValueError(f"{name} must hold integers, not "
                                 f"{idx.dtype} values")
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        refinement_edges = np.array(refinement_edges, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) array")
        if not ((triangles >= 0) & (triangles < vertices.shape[0])).all():
            raise ValueError("triangle vertex indices must lie in "
                             f"[0, {vertices.shape[0]})")
        if refinement_edges.shape != (triangles.shape[0],):
            raise ValueError("need one refinement edge index per triangle")
        if refinement_edges.size and not (
                (refinement_edges >= 0) & (refinement_edges <= 2)).all():
            raise ValueError("refinement edge indices must be in {0, 1, 2}")

        # normalize orientation: flip negatively oriented triangles and
        # remap their refinement edge (swapping v1, v2 swaps edges 1 and 2)
        p = vertices
        d1 = p[triangles[:, 1]] - p[triangles[:, 0]]
        d2 = p[triangles[:, 2]] - p[triangles[:, 0]]
        area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(area2 == 0.0):
            raise ValueError("mesh contains a degenerate (collinear) triangle")
        flip = area2 < 0.0
        if flip.any():
            triangles[flip] = triangles[flip][:, [0, 2, 1]]
            refinement_edges[flip] = _FLIP_REFEDGE[refinement_edges[flip]]
            area2 = np.abs(area2)

        self.vertices = vertices
        self.triangles = triangles
        self.refinement_edges = refinement_edges
        self._areas = 0.5 * area2

        self._build_edges()

        lengths = np.linalg.norm(
            self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]],
            axis=1)
        self.edge_lengths = lengths
        self.h_max = float(lengths[self.tri_edges].max()) if len(triangles) else 0.0

        for arr in (self.vertices, self.triangles, self.refinement_edges,
                    self.edges, self.tri_edges, self.boundary_edge,
                    self.boundary_vertex, self.edge_lengths, self._areas):
            arr.setflags(write=False)

    def _build_edges(self):
        t = self.triangles
        # local edge k is opposite vertex k
        raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        raw = np.sort(raw, axis=1)
        edges, inverse = np.unique(raw, axis=0, return_inverse=True)
        self.edges = edges
        self.tri_edges = inverse.reshape(3, t.shape[0]).T.copy()

        counts = np.bincount(self.tri_edges.ravel(), minlength=edges.shape[0])
        if counts.size and counts.max() > 2:
            raise ValueError("an edge has more than two adjacent triangles "
                             "(nonmanifold mesh)")
        self.boundary_edge = counts == 1
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

    def areas(self):
        """Triangle areas; shape (nt,)."""
        return self._areas

    def total_area(self):
        return float(self._areas.sum())

    def diameters(self):
        """Longest edge length of every triangle; shape (nt,)."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    def min_angle(self):
        """Smallest interior angle over all triangles, in radians."""
        p = self.vertices[self.triangles]
        angles = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cosang = np.einsum("id,id->i", a, b) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(np.min(angles))

    def copy(self):
        return Mesh(self.vertices.copy(), self.triangles.copy(),
                    self.refinement_edges.copy())

    def __repr__(self):
        return (f"Mesh({self.num_vertices} vertices, "
                f"{self.num_triangles} triangles, {self.num_edges} edges, "
                f"h_max={self.h_max:.4g})")


def _longest_edge_indices(vertices, triangles):
    p = vertices[triangles]
    lengths = np.stack([
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1),  # edge 0
        np.linalg.norm(p[:, 0] - p[:, 2], axis=1),  # edge 1
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),  # edge 2
    ], axis=1)
    return np.argmax(lengths, axis=1)


def unit_square_mesh(n):
    """Structured mesh of the unit square (0,1)^2 with 2 n^2 triangles.

    Each grid cell is split by the diagonal from its lower-left to its
    upper-right corner.  Refinement edges are initialized to the longest
    edge (the diagonal).
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ur, ul = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    triangles = np.array(tris, dtype=np.int64)
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
    triangles = np.array([
        [0, 1, 2],
        [0, 2, 3],
        [0, 3, 4],
        [0, 4, 5],
        [0, 5, 6],
        [0, 6, 7],
    ], dtype=np.int64)
    ref = _longest_edge_indices(vertices, triangles)
    return Mesh(vertices, triangles, ref)


def refine_marked(mesh, marked):
    """Newest-vertex bisection of the marked triangles with conforming closure.

    Every marked triangle is bisected at least once through its refinement
    edge; the recursive closure bisects further triangles as needed so that
    no hanging vertices remain.  Returns a new mesh; the input is unchanged.

    marked is an iterable of integer triangle indices, repeats allowed.  A
    boolean mask or any non-integer value raises ValueError.
    """
    marked = np.asarray(marked if isinstance(marked, np.ndarray)
                        else list(marked))
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise ValueError("marked must hold integer triangle indices, not a "
                         f"boolean mask or {marked.dtype} values")
    marked = np.unique(marked.astype(np.int64))
    if marked.size == 0:
        return mesh.copy()
    nt = mesh.num_triangles
    if marked[0] < 0 or marked[-1] >= nt:
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
    midpoint_vertex = np.full(mesh.num_edges, -1, dtype=np.int64)
    midpoint_vertex[edge_marked] = mesh.num_vertices + np.arange(n_new)
    mids = 0.5 * (mesh.vertices[mesh.edges[edge_marked, 0]] +
                  mesh.vertices[mesh.edges[edge_marked, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    # normalized frame per triangle: (a, b, c) with refinement edge (a, b)
    # and peak c; the other two edges are (b, c) opposite a and (c, a)
    # opposite b
    r = mesh.refinement_edges
    idx = np.arange(nt)
    a = mesh.triangles[idx, (r + 1) % 3]
    b = mesh.triangles[idx, (r + 2) % 3]
    c = mesh.triangles[idx, r]
    m_ab = midpoint_vertex[t2e[idx, r]]
    m_bc = midpoint_vertex[t2e[idx, (r + 1) % 3]]
    m_ca = midpoint_vertex[t2e[idx, (r + 2) % 3]]
    split_ab = m_ab >= 0
    split_bc = m_bc >= 0
    split_ca = m_ca >= 0

    n_children = np.where(split_ab, 2 + split_bc + split_ca, 1)
    offsets = np.concatenate([[0], np.cumsum(n_children)])
    total = int(offsets[-1])
    new_tris = np.empty((total, 3), dtype=np.int64)
    new_ref = np.full(total, 2, dtype=np.int64)

    # untouched triangles keep their frame and refinement edge
    keep = ~split_ab
    pos = offsets[:-1][keep]
    new_tris[pos] = mesh.triangles[keep]
    new_ref[pos] = mesh.refinement_edges[keep]

    # first bisection: (a, b, c) -> (c, a, m_ab) and (b, c, m_ab); the new
    # vertex is newest, so both children refine through their (v0, v1) edge.
    # Each child (x, y, m_ab) is bisected once more through (x, y) when that
    # edge is marked, into (m_ab, x, m_xy) and (y, m_ab, m_xy)
    cursor = offsets[:-1][split_ab]
    for child, split, mid in ((np.column_stack([c, a, m_ab]), split_ca, m_ca),
                              (np.column_stack([b, c, m_ab]), split_bc, m_bc)):
        child, split, mid = child[split_ab], split[split_ab], mid[split_ab]
        new_tris[cursor[~split]] = child[~split]
        new_tris[cursor[split]] = np.column_stack(
            [child[split, 2], child[split, 0], mid[split]])
        new_tris[cursor[split] + 1] = np.column_stack(
            [child[split, 1], child[split, 2], mid[split]])
        cursor = cursor + 1 + split

    return Mesh(vertices, new_tris, new_ref)


def refine_uniform(mesh):
    """One uniform refinement level: two complete NVB sweeps.

    Two sweeps bisect every element's longest edge chain so that all
    element diameters halve, giving the usual dofs ~ h^{-2} scaling per
    level.
    """
    out = refine_marked(mesh, np.arange(mesh.num_triangles))
    return refine_marked(out, np.arange(out.num_triangles))


def save_mesh(mesh, path):
    """Write a mesh as plain text, exactly reloadable by load_mesh.

    Format: one header line ``vertices <nv> triangles <nt>``, then one
    ``v x y`` line per vertex, then one ``t i j k r`` line per triangle
    (r = refinement edge index).
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r}\n")
        for (i, j, k), r in zip(mesh.triangles, mesh.refinement_edges):
            fh.write(f"t {i} {j} {k} {r}\n")


def load_mesh(path):
    """Read a mesh written by save_mesh.

    Raises ValueError naming the file and the line when the header is not
    a mesh header, a header count is negative, a header count or a vertex
    or triangle entry is not a number, a vertex or triangle line is
    missing or has the wrong number of entries, or content follows the
    last declared triangle.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4 or header[0] != "vertices" or header[2] != "triangles":
        raise ValueError(f"not a mesh file: {path}")

    def numbers(n, tokens, kind):
        try:
            return [kind(x) for x in tokens]
        except ValueError:
            raise ValueError(f"{path}, line {n + 1}: expected "
                             f"{kind.__name__} entries, got "
                             f"{' '.join(tokens)!r}") from None

    nv, nt = numbers(0, header[1::2], int)
    if min(nv, nt) < 0:
        raise ValueError(f"{path}, line 1: header count {min(nv, nt)} is "
                         "negative")

    def records(first, count, tag, width, kind):
        rows = []
        for n in range(first, first + count):
            tok = lines[n].split() if n < len(lines) else []
            if len(tok) != width + 1 or tok[0] != tag:
                raise ValueError(f"{path}, line {n + 1}: expected "
                                 f"'{tag}' and {width} numbers")
            rows.append(numbers(n, tok[1:], kind))
        return np.array(rows, dtype=kind).reshape(count, width)

    vertices = records(1, nv, "v", 2, float)
    tris = records(1 + nv, nt, "t", 4, int)
    for n in range(1 + nv + nt, len(lines)):
        if lines[n].strip():
            raise ValueError(f"{path}, line {n + 1}: content after the "
                             f"{nt} declared triangles")
    return Mesh(vertices, tris[:, :3], tris[:, 3])
