"""
Ultra-weak DPG discretization: elementwise assembly, static condensation,
global solve, and the built-in residual error estimator.

The trial space couples elementwise L2 fields with skeleton traces,

    u     elementwise polynomials of degree p (p+1 in the augmented space),
    sigma elementwise polynomial vector fields of degree p,
    uhat  the trace of globally continuous degree-(p+1) polynomials,
    shat  a single-valued normal flux, one degree-p polynomial per edge,

and is tested against the broken space of degree-(p + delta_p) scalar and
vector polynomials per element (delta_p = 2).  The bilinear
form moves all derivatives onto the test pair (v, tau):

    reaction-diffusion:  (u, div tau + v) + (sigma, tau + grad v)
                         - <uhat, tau.n> - <shat, v>
    poisson:             (u, div tau) + (sigma, tau + grad v)
                         - <uhat, tau.n> - <shat, v>

Because the test space has no continuity across elements, the test-space
Gram matrix is block diagonal and the mixed saddle-point system can be
condensed element by element to a symmetric positive definite system in
the trial unknowns:

    S = sum_T  B_T' G_T^{-1} B_T,      rhs = sum_T B_T' G_T^{-1} F_T.

The fields u and sigma of an element (its interior block I) couple only
to themselves and to the element's skeleton dofs S (uhat and shat), so a
second local Schur complement, hybridization, removes them as well.  The
global sparse system holds the free skeleton dofs alone,

    S_hat = sum_T S_SS - S_SI S_II^{-1} S_IS,
    r_hat = sum_T r_S - S_SI S_II^{-1} r_I,

and the fields come back element by element, x_I = S_II^{-1} (r_I -
S_IS x_S).

The element geometry comes from the mesh, which computes it once: J,
det J and J^{-1} (Mesh.jac, det, inv) and the orientation of the local
edges (Mesh.edge_flips).  The scalar test basis is orthonormal on the
reference element, so the load moments (f, v_i)_T are det J times the L2
projection of f (spaces.project_l2).  G_T and B_T depend on T only
through J and the edge flips, and newest-vertex bisection produces few
distinct element shapes, so assemble_solve groups the elements into
classes whose members share both bit for bit and condenses once per
class; a ClassStore keeps the class operators for the next solve, which
condenses only the classes new to its mesh.  condense() factors each
Gram once, G = L L', and whitens [B | E], E the scalar test rows that
carry the load: W = L^{-1} [B | E] gives S = W_B' W_B and R = B' G^{-1} E
= W_B' W_E.  The second condenses S_II the same way against [S_IS | R_I],
which leaves S_hat and the skeleton load operator R_S - S_SI S_II^{-1}
R_I side by side.  Every element then needs only small products with its
class operators: its skeleton load and S_II^{-1} r_I from its load
moments, its fields from its skeleton values, and w_T = W_E load_T - W_B
x_T = L^{-1} (F_T - B_T x_T).  |w_T| is the local estimator eta(T), the
test norm of the residual representer, and W_B' w_T its Galerkin vector.
"""

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .spaces import (REFERENCE_VERTICES, basis_at_quadrature, edge_basis,
                     edge_bubbles, edge_quadrature, point_values, project_l2,
                     scalar_basis, triangle_quadrature)

REACTION_DIFFUSION = "reaction-diffusion"
POISSON = "poisson"

PROBLEM_KINDS = (REACTION_DIFFUSION, POISSON)

# test-space enrichment: test functions have degree p + DELTA_P
DELTA_P = 2


class SolverError(RuntimeError):
    """Linear solver did not reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class TrialSpace:
    """Polynomial order of the trial space, an integer p >= 0, and
    whether it is augmented, a bool.

    The scalar field u is sought at degree p, or p+1 when augmented;
    fluxes and traces stay at order p either way.
    """
    p: int
    augmented: bool = False

    def __post_init__(self):
        p = self.p      # numpy integers pass; bools and fractions do not
        if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 0:
            raise ValueError(f"polynomial order p must be an integer >= 0, "
                             f"not {p!r}")
        if not isinstance(self.augmented, (bool, np.bool_)):
            raise ValueError(f"augmented must be a bool, not "
                             f"{self.augmented!r}")

    @property
    def u_degree(self):
        return self.p + 1 if self.augmented else self.p


def _dim(degree):
    return (degree + 1) * (degree + 2) // 2


class DofMap:
    """Global numbering of trial unknowns on a mesh.

    Layout: element-interior blocks [u | sigma_x | sigma_y] for every
    element first, then one uhat dof per mesh vertex, then p uhat
    edge-interior dofs per edge, then p+1 flux dofs per edge.  Boundary
    vertex and boundary edge-interior uhat dofs are constrained by the
    Dirichlet data (zero in the homogeneous case); everything else is
    free.  num_free is the reported dof count D_h.  free_index numbers
    the free dofs 0..num_free-1 in global order and maps the prescribed
    ones to -1.
    """

    def __init__(self, mesh, trial):
        p = trial.p
        self.mesh = mesh
        self.trial = trial
        self.n_u = _dim(trial.u_degree)
        self.n_s = _dim(p)
        self.k_int = self.n_u + 2 * self.n_s
        nt, nv, ne = mesh.num_triangles, mesh.num_vertices, mesh.num_edges

        self.interior_count = nt * self.k_int
        self.vertex_offset = self.interior_count
        self.bubble_offset = self.vertex_offset + nv
        self.flux_offset = self.bubble_offset + ne * p
        self.n_total = self.flux_offset + ne * (p + 1)

        free = np.ones(self.n_total, dtype=bool)
        free[self.vertex_offset + np.flatnonzero(mesh.boundary_vertex)] = False
        free[self.bubble_dofs(np.flatnonzero(mesh.boundary_edge))] = False
        self.free = free
        self.num_free = int(free.sum())
        self.free_index = np.where(free, np.cumsum(free) - 1, -1)

        # local trial columns per element:
        #   [u | sigma_x | sigma_y | uhat vertices | uhat bubbles | flux]
        self.n_local = self.k_int + 3 + 3 * p + 3 * (p + 1)
        ge = mesh.tri_edges
        flux = self.flux_offset + ge[..., None] * (p + 1) + np.arange(p + 1)
        self.local_cols = np.concatenate([
            np.arange(self.interior_count).reshape(nt, self.k_int),
            self.vertex_offset + mesh.triangles,
            self.bubble_dofs(ge).reshape(nt, 3 * p),
            flux.reshape(nt, 3 * (p + 1))], axis=1)

    def vertex_dof(self, v):
        return self.vertex_offset + v

    def bubble_dofs(self, e):
        """uhat edge-interior dofs of edge(s) e: shape e.shape + (p,)."""
        p = self.trial.p
        return self.bubble_offset + np.asarray(e)[..., None] * p + np.arange(p)


@dataclass
class Solution:
    """Discrete solution with its local error estimator."""
    mesh: object
    trial: TrialSpace
    kind: str
    dofmap: DofMap
    coeffs: np.ndarray              # all trial dofs, prescribed ones included
    u_coeffs: np.ndarray            # (nt, dim u)
    sigma_coeffs: np.ndarray        # (nt, 2, dim sigma)
    eta_local: np.ndarray           # (nt,) local estimator eta(T)
    eta: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def num_dofs(self):
        return self.dofmap.num_free


@lru_cache(maxsize=None)
def _reference_tables(u_degree, p, r, exactness):
    """Reference-element contraction tensors shared by all elements: the
    bases of degree u_degree (U), p (S) and r (V) against each other under
    triangle_quadrature(exactness), and the edge traces of V.  The one
    place where bases meet quadrature weights; postprocessing reads T1
    and GS with (U, S, V) of degrees (p, p, p + 1)."""
    w = triangle_quadrature(exactness).weights
    edge = edge_quadrature(exactness)
    U = basis_at_quadrature(u_degree, exactness)[0]
    S = basis_at_quadrature(p, exactness)[0]
    V, Vg = basis_at_quadrature(r, exactness)

    tab = {
        "n_u": U.shape[0], "n_s": S.shape[0], "n_t": V.shape[0],
        # volume contractions against the quadrature weight
        "M0": np.einsum("ik,jk,k->ij", V, V, w),
        "T1": np.einsum("ika,jkb,k->abij", Vg, Vg, w),
        "MU": np.einsum("ik,jk,k->ij", V, U, w),
        "GU": np.einsum("ika,jk,k->aij", Vg, U, w),
        "MS": np.einsum("ik,jk,k->ij", V, S, w),
        "GS": np.einsum("ika,jk,k->aij", Vg, S, w),
    }

    # trace contractions for the six (local edge, flip) configurations.
    # t runs along each edge from its lower- to its higher-numbered
    # endpoint, i.e. from the local end vertex to the local start vertex
    # when the edge is flipped.  SK[le, flip] pairs the rows [start vertex
    # hat; end vertex hat; uhat bubbles] with the scalar test functions,
    # FX[le, flip] the flux modes
    t, we = edge.points, edge.weights
    hat = np.vstack([1.0 - t, t])
    bub = edge_bubbles(p, t)
    leg = edge_basis(p).values(t)
    tab["SK"] = np.empty((3, 2, 2 + p, V.shape[0]))
    tab["FX"] = np.empty((3, 2, p + 1, V.shape[0]))
    for le in range(3):
        for flip in (0, 1):
            order = slice(None, None, -1 if flip else 1)
            a, b = REFERENCE_VERTICES[[(le + 1) % 3, (le + 2) % 3][order]]
            pts = a + t[:, None] * (b - a)
            EV = scalar_basis(r).values(pts)             # (n_t, nqe)
            trace = np.vstack([hat[order], bub])
            tab["SK"][le, flip] = np.einsum("jk,ik,k->ji", trace, EV, we)
            tab["FX"][le, flip] = np.einsum("jk,ik,k->ji", leg, EV, we)
    return tab


def default_exactness(p):
    """Quadrature exactness used for assembly: products of enriched test
    functions with themselves and one extra order for the load."""
    return 2 * (p + DELTA_P + 1)


def _local_systems(mesh, trial, kind, elements, exactness=None):
    """Gram and coupling matrices for a set of elements (all of them when
    elements is None).

    Returns (G, B) with shapes (ne, m, m) and (ne, m, n_local), where m =
    3 * dim P^{p+DELTA_P} and columns follow DofMap layout.  exactness
    overrides the assembly quadrature, default_exactness(p).
    """
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    p = trial.p
    if exactness is None:
        exactness = default_exactness(p)
    tab = _reference_tables(trial.u_degree, p, p + DELTA_P, exactness)
    n_u, n_s, n_t = tab["n_u"], tab["n_s"], tab["n_t"]
    m = 3 * n_t

    elements = np.arange(mesh.num_triangles) if elements is None \
        else np.asarray(elements, dtype=np.int64)
    ne = elements.shape[0]
    # G and B below depend only on the Jacobian and the edge flips, so
    # elements that share both get bitwise equal matrices
    jac, det = mesh.jac[elements], mesh.det[elements]
    inv_t = mesh.inv[elements].transpose(0, 2, 1)  # J^{-T}, maps gradients

    sv = slice(0, n_t)
    st = (slice(n_t, 2 * n_t), slice(2 * n_t, 3 * n_t))

    # test-space Gram: (v, mu) + (grad v, grad mu) + (tau, lam) + (div tau, div lam)
    G = np.zeros((ne, m, m))
    metric = np.einsum("eca,ecb->eab", inv_t, inv_t)
    stiff = np.einsum("e,eab,abij->eij", det, metric, tab["T1"])
    mass = det[:, None, None] * tab["M0"]
    G[:, sv, sv] = mass + stiff
    for c in range(2):
        for d in range(2):
            block = np.einsum("e,ea,eb,abij->eij", det,
                              inv_t[:, c], inv_t[:, d], tab["T1"])
            if c == d:
                block = block + mass
            G[:, st[c], st[d]] = block

    # trial-to-test coupling
    n_local = n_u + 2 * n_s + 3 + 3 * p + 3 * (p + 1)
    B = np.zeros((ne, m, n_local))
    cu = slice(0, n_u)
    cs = (slice(n_u, n_u + n_s), slice(n_u + n_s, n_u + 2 * n_s))
    vert_col = n_u + 2 * n_s
    bub_col = vert_col + 3
    flux_col = bub_col + 3 * p

    # (u, div tau) and, for reaction-diffusion, (u, v)
    for c in range(2):
        B[:, st[c], cu] = np.einsum("e,ea,aij->eij", det, inv_t[:, c],
                                    tab["GU"])
    if kind == REACTION_DIFFUSION:
        B[:, sv, cu] = det[:, None, None] * tab["MU"]

    # (sigma, tau + grad v)
    for c in range(2):
        B[:, st[c], cs[c]] = det[:, None, None] * tab["MS"]
        B[:, sv, cs[c]] = np.einsum("e,ea,aij->eij", det, inv_t[:, c],
                                    tab["GS"])

    # skeleton terms: -<uhat, tau.n> and -<shat, v> edge by edge; local
    # edge le runs from vertex le+1 to le+2, so its vector end - start is
    # J_1 - J_0, -J_1, J_0 in terms of the Jacobian columns
    flips = mesh.edge_flips[elements].astype(np.intp)
    edge_vectors = (jac[:, :, 1] - jac[:, :, 0], -jac[:, :, 1], jac[:, :, 0])
    for le, d in enumerate(edge_vectors):
        flip = flips[:, le]
        length = np.hypot(d[:, 0], d[:, 1])
        normal = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
        # columns [start vertex | end vertex | uhat bubbles] and the flux
        trace_cols = np.r_[vert_col + (le + 1) % 3, vert_col + (le + 2) % 3,
                           bub_col + le * p:bub_col + (le + 1) * p]
        flux_cols = slice(flux_col + le * (p + 1), flux_col + (le + 1) * (p + 1))
        SK = tab["SK"][le, flip]
        for c in range(2):
            B[:, st[c], trace_cols] -= np.einsum(
                "e,eji->eij", length * normal[:, c], SK)
        B[:, sv, flux_cols] -= np.einsum(
            "e,eji->eij", np.where(flip, -length, length), tab["FX"][le, flip])
    return G, B


def _element_classes(mesh):
    """Group the elements by the bits of their Jacobian mesh.jac and their
    mesh.edge_flips, all that G and B depend on.  Returns the class keys
    (one int64 row per class: the four Jacobian entries' bits and the three
    flips), one representative element per class and the class of every
    element."""
    nt = mesh.num_triangles
    key = np.column_stack([mesh.jac.reshape(nt, 4).view(np.int64),
                           mesh.edge_flips])
    keys, rep, cls = np.unique(key, axis=0, return_index=True,
                               return_inverse=True)
    return keys, rep, cls.ravel()


def _condense_classes(dofmap, kind, rep):
    """Both condensations for the classes with representative elements
    rep of dofmap's mesh: the stacked operators assemble_solve reads, one
    row per class.

    A load is one more coupling column: E = eye(m, n_t) picks the scalar
    test rows, so F_T = E load_T, and condensing [B | E] gives W = [W_B |
    W_E] and puts R = W_B' W_E in the Schur complement's columns past n.
    The interior block [u | sigma] comes first in the local columns, and
    condensing S_II against [S_IS | R_I] leaves, in the skeleton rows,
    S_hat and past it the skeleton load operator R_S - S_SI S_II^{-1} R_I.
    Raises SolverError if a Gram or an S_II is not SPD.
    """
    G, B = _local_systems(dofmap.mesh, dofmap.trial, kind, rep)
    nc, m, n = B.shape
    n_t = m // 3
    try:
        schur, w, _ = condense(G, np.concatenate(
            [B, np.broadcast_to(np.eye(m, n_t), (nc, m, n_t))], axis=2))
    except np.linalg.LinAlgError as exc:
        # cond G grows like h^-2: only its mass terms scale with h^2
        raise SolverError(
            "linear solver failed: the test-space Gram of an element class is "
            "not SPD in floating point; smallest element diameter of the "
            f"classes condensed {dofmap.mesh.diameters()[rep].min():.3e}",
            residual=np.inf) from exc
    k = dofmap.k_int
    try:
        inner_schur, w_i, l_i = condense(schur[:, :k, :k], schur[:, :k, k:])
    except np.linalg.LinAlgError as exc:
        raise SolverError("linear solver failed: the interior block S_II "
                          "(u and sigma) of an element class is not SPD",
                          residual=np.inf) from exc
    inner = solve_triangular(l_i, w_i, lower=True, trans="T")  # L_I^-T W_I
    hybrid = schur[:, k:n, k:] - inner_schur[:, :n - k]
    # [W_E ; skeleton load ; S_II^{-1} R_I] maps load moments to W_E
    # load_T, the skeleton load and the interior load
    return {"w_b": w[:, :, :n],
            "s_hat": hybrid[:, :, :n - k], "inner": inner[:, :, :n - k],
            "load_op": np.concatenate([w[:, :, n:], hybrid[:, :, n - k:],
                                       inner[:, :, n - k:]], axis=1)}


class ClassStore:
    """Condensed element-class operators, kept from one solve to the next.

    A class key (_element_classes) fixes G, B and so W_B and both
    condensations for a given trial space and problem kind; the source and
    the Dirichlet data never enter them.  Refinement leaves most elements
    of an adaptive step alone, and with them their classes, so a solve
    condenses only the classes new to its mesh.  Each update keeps exactly
    the classes of its mesh, one stacked row per class in class order, and
    drops the rest.
    """

    def __init__(self):
        self.space = None       # (trial, kind) of the stored operators
        self.rows = {}          # class-key bytes -> row of the stacks
        self.ops = {}           # operator name -> stack, one row per class

    def __len__(self):
        return len(self.rows)

    def update(self, dofmap, kind, keys, rep):
        """Operator stacks for the classes keys of dofmap's mesh, with
        representative elements rep.  Classes already stored are copied
        over bit for bit, the others condensed in one batch (batched
        LAPACK factors each matrix on its own, so a class's operators do
        not depend on the batch).  Returns (stacks, number of classes
        condensed)."""
        if (dofmap.trial, kind) != self.space:
            self.space, self.rows, self.ops = (dofmap.trial, kind), {}, {}
        names = [key.tobytes() for key in keys]
        old = np.array([self.rows.get(name, -1) for name in names],
                       dtype=np.intp)
        hit, missing = np.flatnonzero(old >= 0), np.flatnonzero(old < 0)
        fresh = (_condense_classes(dofmap, kind, rep[missing])
                 if missing.size else {})
        # one operator at a time, so that at most one old stack is alive
        # next to the new ones
        previous, self.ops = self.ops, {}
        shapes = {name: a.shape[1:] for name, a in (fresh or previous).items()}
        for name, shape in shapes.items():
            stack = np.empty((len(names),) + shape)
            kept = previous.pop(name, None)
            if hit.size:
                stack[hit] = kept[old[hit]]
            if missing.size:
                stack[missing] = fresh.pop(name)
            self.ops[name] = stack
        self.rows = dict(zip(names, range(len(names))))
        return self.ops, int(missing.size)


def condense(gram, coupling):
    """Schur complement of local saddle-point blocks.

    Eliminates the residual representer from the mixed system of one
    element (2-D gram and coupling) or of a stack of elements (one leading
    batch axis on both).  With one Cholesky factorization G = L L' it
    returns (S, W, L) for the coupling C: W = L^{-1} C, which realizes the
    trial-to-test operator G^{-1} C = L^{-T} W locally, and S = W'W = C'
    G^{-1} C.  A load is one more coupling column: for C = [B | F] the
    last column of S holds r = B' G^{-1} F above F' G^{-1} F.  Raises
    LinAlgError if any Gram is not SPD.
    """
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "local test-space Gram is not SPD (quadrature or basis bug)"
        ) from exc
    whitened = solve_triangular(factor, coupling, lower=True)
    return np.swapaxes(whitened, -1, -2) @ whitened, whitened, factor


def _dirichlet_values(mesh, dofmap, data):
    """Prescribed uhat values: vertex interpolation plus edgewise L2
    projection of the remainder onto the edge-interior modes.  data
    returns one value per point or a scalar; any other shape raises
    ValueError."""
    p = dofmap.trial.p
    values = np.zeros(dofmap.n_total)
    bverts = np.flatnonzero(mesh.boundary_vertex)
    xy = mesh.vertices[bverts]
    values[dofmap.vertex_offset + bverts] = point_values(
        data(xy[:, 0], xy[:, 1]), bverts.shape, "Dirichlet data")
    if p > 0:
        rule = edge_quadrature(default_exactness(p) + 4)
        t, w = rule.points, rule.weights
        bub = edge_bubbles(p, t)
        gram = np.einsum("ik,jk,k->ij", bub, bub, w)
        bedges = np.flatnonzero(mesh.boundary_edge)
        a = mesh.vertices[mesh.edges[bedges, 0]]
        b = mesh.vertices[mesh.edges[bedges, 1]]
        pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        gvals = point_values(data(pts[..., 0], pts[..., 1]), pts.shape[:2],
                             "Dirichlet data")
        ga = values[dofmap.vertex_offset + mesh.edges[bedges, 0]]
        gb = values[dofmap.vertex_offset + mesh.edges[bedges, 1]]
        resid = gvals - (np.outer(ga, 1.0 - t) + np.outer(gb, t))
        rhs = np.einsum("ek,jk,k->ej", resid, bub, w)
        values[dofmap.bubble_dofs(bedges)] = np.linalg.solve(gram, rhs.T).T
    return values


def assemble_solve(mesh, trial, kind, source, dirichlet=None, *,
                   solver_tol=1e-10, store=None):
    """Assemble the hybridized DPG system, solve it, and recover the fields
    and the elementwise error estimator.

    The global system is the SPD block of the free skeleton dofs alone
    (uhat and shat): u and sigma are eliminated per element class by a
    second Schur complement, and the system is assembled as one CSC matrix
    and factored directly by _solve_spd.  The fields come back element by
    element, and Solution.coeffs holds every trial dof.

    The class operators come from store, a ClassStore that the solves of
    one study share (None: a new, empty one).  Only the classes it lacks
    are condensed, and afterwards it holds exactly the classes of mesh;
    the result is bitwise the same with or without a store.
    Solution.diagnostics reports element_classes and classes_condensed.

    Parameters
    ----------
    mesh : Mesh
    trial : TrialSpace
    kind : REACTION_DIFFUSION or POISSON
    source : callable f(x, y) or None for f = 0
    dirichlet : callable g(x, y) or None for homogeneous data
    solver_tol : float
        Relative residual target of the direct solve of the skeleton
        system.
    store : ClassStore or None
        Condensed element-class operators of an earlier solve.

    Returns
    -------
    Solution

    Raises ValueError on a mesh without triangles or on source or
    Dirichlet values that are non-finite or of the wrong shape, and
    SolverError when the test-space Gram or the interior block S_II of an
    element class or the skeleton system is not SPD, or the solve misses
    solver_tol.
    """
    if mesh.num_triangles == 0:
        raise ValueError("mesh has no triangles")
    p = trial.p
    dofmap = DofMap(mesh, trial)
    prescribed = (np.zeros(dofmap.n_total) if dirichlet is None else
                  _dirichlet_values(mesh, dofmap, dirichlet))
    if not np.isfinite(prescribed).all():
        raise ValueError("Dirichlet data has non-finite values")
    nt = mesh.num_triangles
    # moments (f, v_i)_T against the scalar test functions
    load = (np.zeros((nt, _dim(p + DELTA_P))) if source is None else
            mesh.det[:, None] * project_l2(p + DELTA_P, source, mesh,
                                           default_exactness(p)))

    # condense only the classes the store lacks (every class without a
    # store); the store then holds exactly the classes of this mesh
    if store is None:
        store = ClassStore()
    keys, rep, cls = _element_classes(mesh)
    ops, condensed = store.update(dofmap, kind, keys, rep)
    m = ops["w_b"].shape[1]
    k = dofmap.k_int
    parts = np.einsum("eij,ej->ei", ops["load_op"][cls], load)
    w_load, r_hat, x_int = parts[:, :m], parts[:, m:-k], parts[:, -k:]

    # free skeleton block only: interior dofs come first in the global
    # order and are all free, so free_index - interior_count numbers the
    # free skeleton dofs (negative when prescribed); the Dirichlet values
    # are lifted element by element
    ic = dofmap.interior_count
    skel = dofmap.local_cols[:, k:]
    s_loc = ops["s_hat"][cls]
    r_hat = r_hat - (s_loc @ prescribed[skel][..., None])[..., 0]
    fcols = dofmap.free_index[skel] - ic
    own = fcols >= 0
    ns = dofmap.num_free - ic
    b = np.bincount(fcols[own], r_hat[own], minlength=ns)
    pair = own[:, :, None] & own[:, None, :]
    A = sp.csc_matrix(
        (s_loc[pair],
         (np.broadcast_to(fcols[:, :, None], pair.shape)[pair],
          np.broadcast_to(fcols[:, None, :], pair.shape)[pair])),
        shape=(ns, ns))
    x_skel, diag = _solve_spd(A, b, solver_tol)
    diag["skeleton_dofs"] = ns

    # fields per element: x_I = S_II^{-1} R_I load_T - S_II^{-1} S_IS x_S
    x = prescribed.copy()
    x[ic:][dofmap.free[ic:]] = x_skel
    x_int -= np.einsum("eij,ej->ei", ops["inner"][cls], x[skel])
    x[:ic] = x_int.ravel()

    # w = W_E load - W_B x = L^{-1} (F - B x); local estimator |w|.  Taken
    # at x = the Dirichlet lift as well, W_B' w gives the condensed load of
    # the free trial dofs, the scale of the Galerkin check below
    cols = dofmap.local_cols
    w_b = ops["w_b"][cls]
    both = w_load[..., None] - w_b @ np.stack([x[cols], prescribed[cols]],
                                              axis=-1)
    eta_sq = np.einsum("em,em->e", both[..., 0], both[..., 0])

    # Galerkin orthogonality of the mixed system: B' G^{-1} (F - B x) =
    # W_B' w vanishes on the free trial dofs up to solver accuracy
    fall = dofmap.free_index[cols]
    fown = fall >= 0
    nf = dofmap.num_free
    bt_both = np.swapaxes(w_b, 1, 2) @ both
    gal = np.bincount(fall[fown], bt_both[..., 0][fown], minlength=nf)
    free_load = np.bincount(fall[fown], bt_both[..., 1][fown], minlength=nf)
    diag["galerkin_residual"] = float(np.abs(gal).max()) if nf else 0.0
    diag["load_scale"] = float(np.abs(free_load).max()) if nf else 0.0
    diag["element_classes"] = len(keys)
    diag["classes_condensed"] = condensed

    u_coeffs = x_int[:, :dofmap.n_u].copy()
    sigma_coeffs = x_int[:, dofmap.n_u:].reshape(nt, 2, dofmap.n_s).copy()

    return Solution(mesh=mesh, trial=trial, kind=kind, dofmap=dofmap,
                    coeffs=x, u_coeffs=u_coeffs, sigma_coeffs=sigma_coeffs,
                    eta_local=np.sqrt(eta_sq),
                    eta=float(np.sqrt(eta_sq.sum())), diagnostics=diag)


# fill-reducing ordering of the symmetric graph, recorded in diagnostics
_ORDERING = "MMD_AT_PLUS_A"


def _solve_spd(A, b, tol):
    """Direct sparse solve with iterative refinement.

    A is symmetric positive definite, so SuperLU runs in symmetric mode:
    a minimum-degree ordering of the graph of A + A' applied to rows and
    columns alike, and diagonal pivots.  Without row pivoting the residual
    check of the refinement loop is what catches a bad factorization.

    Raises SolverError on a non-finite or non-positive diagonal entry, a
    singular factor, or a residual that refinement cannot bring to tol.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:        # zero source and Dirichlet data: x = 0
        return np.zeros(A.shape[0]), {"method": "direct", "iterations": 0,
                                      "rel_residual": 0.0}
    diagonal = A.diagonal()
    if not (np.isfinite(diagonal) & (diagonal > 0.0)).all():
        # an SPD matrix has a finite positive diagonal; refuse before any
        # factorization divides by such an entry
        raise SolverError("linear solver failed: the matrix has a "
                          "non-finite or non-positive diagonal entry, so it "
                          "is not SPD", residual=np.inf)
    try:
        lu = spla.splu(A, permc_spec=_ORDERING, diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"linear solver failed: {exc}",
                          residual=np.inf) from exc
    x = lu.solve(b)
    for it in range(4):
        res = b - A @ x
        rel = float(np.linalg.norm(res)) / bnorm
        if rel <= tol:
            return x, {"method": "direct", "iterations": it,
                       "rel_residual": rel, "ordering": _ORDERING,
                       "nnz_A": int(A.nnz), "nnz_factor": int(lu.nnz)}
        x = x + lu.solve(res)
    raise SolverError(
        f"linear solver failed: residual {rel:.3e} after {it} refinement "
        f"steps (target {tol:.1e})", residual=rel)
