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
projection of f (spaces.project_l2), every mass block of G_T and B_T is
det J times an identity slice, and G_T = det J I + K_T with K_T the
stiffness terms alone.  The basis is nested too, so the bases of u and
sigma are its leading modes, and one reference table of the test basis
per trial order (_reference_tables) holds every other volume term;
postprocessing reads the same table.  G_T and B_T depend on T only
through J and the edge flips, and newest-vertex bisection produces few
distinct element shapes, so assemble_solve groups the elements into
classes whose members share both bit for bit and condenses once per
class; a ClassStore keeps the class operators for the next solve, which
condenses only the classes new to its mesh.  A load is one more coupling
column: E, the scalar test rows, carries it, F_T = E load_T.  condense()
factors each Gram once, G = L L', and whitens [B | E] into w = L^{-1}
[B | E] = [W_B | W_E], whose Gram w' w holds S = W_B' W_B and R = B'
G^{-1} E = W_B' W_E in its first n rows; the second
condensation factors S_II and leaves hybrid = [S_hat | R_S - S_SI
S_II^{-1} R_I] and inner = S_II^{-1} [S_IS | R_I].  These three stacks
are the class operators, kept as the condensations return them.  Every
element has one local vector z_T = [-x_T | load_T], x_T its trial dofs,
and every operator acts on it: hybrid z_T[k:] is its skeleton right-hand
side while x_T holds the Dirichlet lift, inner z_T[k:] its fields x_I
once x_T holds the skeleton solution, and w z_T = L^{-1} (F_T - B_T x_T)
= w_T.  |w_T| is the local estimator eta(T), the test norm of the
residual representer, and W_B' w_T its Galerkin vector.  assemble_solve
runs these products over chunks of elements whose gathered class
operators fill at most _CHUNK_BYTES, and the store condenses the classes
new to a mesh in chunks of the same size, so no operator is copied once
per element of the whole mesh.  No result depends on the chunk size.
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


def _is_integer(value):
    """Whether value is an integer: numpy integers are, bools are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _in_unit_interval(value, name):
    """Raise ValueError unless value is a real number, not a bool, in the
    open interval (0, 1); NaN is refused too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), not {value!r}")


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
        if not (_is_integer(self.p) and self.p >= 0):
            raise ValueError(f"polynomial order p must be an integer >= 0, "
                             f"not {self.p!r}")
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
def _reference_tables(p, exactness):
    """Reference-element contraction tensors of trial order p, shared by
    all elements: the test basis V of degree p + DELTA_P against itself
    under triangle_quadrature(exactness), and its edge traces; the one
    place where bases meet quadrature weights.  V is orthonormal, so mass
    blocks need no table, and nested, so the bases of u, sigma and the
    postprocessed field are its leading modes: T1 holds
    (d_a v_i, d_b v_j), GV (d_a v_i, v_j), and postprocessing reads their
    first dim P^{p+1} rows."""
    w = triangle_quadrature(exactness).weights
    edge = edge_quadrature(exactness)
    V, Vg = basis_at_quadrature(p + DELTA_P, exactness)
    tab = {"T1": np.einsum("ika,jkb,k->abij", Vg, Vg, w),
           "GV": np.einsum("ika,jk,k->aij", Vg, V, w)}

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
            EV = scalar_basis(p + DELTA_P).values(pts)   # (n_t, nqe)
            trace = np.vstack([hat[order], bub])
            tab["SK"][le, flip] = np.einsum("jk,ik,k->ji", trace, EV, we)
            tab["FX"][le, flip] = np.einsum("jk,ik,k->ji", leg, EV, we)
    return tab


def default_exactness(p):
    """Quadrature exactness used for assembly: products of enriched test
    functions with themselves and one extra order for the load."""
    return 2 * (p + DELTA_P + 1)


def _stiffness(det, inv_t, T1):
    """(grad v_i, grad v_j)_T on each element from the reference table T1
    of (d_a v_i, d_b v_j): det J times T1 contracted with the metric
    J^{-1} J^{-T}; inv_t holds J^{-T}, one per element."""
    metric = np.einsum("eca,ecb->eab", inv_t, inv_t)
    return np.einsum("e,eab,abij->eij", det, metric, T1)


def _local_systems(mesh, trial, kind, elements):
    """Gram and coupling matrices for a set of elements (all of them when
    elements is None), under the assembly quadrature default_exactness(p).

    Returns (G, B) with shapes (ne, m, m) and (ne, m, n_local), where m =
    3 * dim P^{p+DELTA_P} and columns follow DofMap layout.
    """
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    p = trial.p
    tab = _reference_tables(p, default_exactness(p))
    n_u, n_s, n_t = _dim(trial.u_degree), _dim(p), _dim(p + DELTA_P)
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

    # test-space Gram G = det J I + K: the mass terms (v, mu) + (tau, lam)
    # are det J times the identity, and K holds the stiffness terms
    # (grad v, grad mu) + (div tau, div lam)
    G = np.zeros((ne, m, m))
    G[:, sv, sv] = _stiffness(det, inv_t, tab["T1"])
    for c in range(2):
        for d in range(2):
            G[:, st[c], st[d]] = np.einsum("e,ea,eb,abij->eij", det,
                                           inv_t[:, c], inv_t[:, d], tab["T1"])
    G += det[:, None, None] * np.eye(m)

    # trial-to-test coupling
    n_local = n_u + 2 * n_s + 3 + 3 * p + 3 * (p + 1)
    B = np.zeros((ne, m, n_local))
    cu = slice(0, n_u)
    cs = (slice(n_u, n_u + n_s), slice(n_u + n_s, n_u + 2 * n_s))
    vert_col = n_u + 2 * n_s
    bub_col = vert_col + 3
    flux_col = bub_col + 3 * p

    # (u, div tau) + (sigma, grad v): grad[:, c] holds (d_c v_i, phi_j)_T
    # for the modes phi_j of u, whose first n_s are those of sigma; the
    # mass terms (sigma, tau) and, for reaction-diffusion, (u, v) are det J
    # times identity slices
    grad = np.einsum("e,eca,aij->ecij", det, inv_t, tab["GV"][:, :, :n_u])
    mass = det[:, None, None] * np.eye(n_t, n_u)
    for c in range(2):
        B[:, st[c], cu] = grad[:, c]
        B[:, sv, cs[c]] = grad[:, c, :, :n_s]
        B[:, st[c], cs[c]] = mass[:, :, :n_s]
    if kind == REACTION_DIFFUSION:
        B[:, sv, cu] = mass

    # skeleton terms: -<uhat, tau.n> and -<shat, v> edge by edge; local
    # edge le runs from vertex le+1 to le+2, so its vector end - start is
    # J_1 - J_0, -J_1, J_0 in terms of the Jacobian columns, and that
    # vector turned clockwise, (d_y, -d_x), is the outward normal times
    # the edge length
    flips = mesh.edge_flips[elements].astype(np.intp)
    edge_vectors = (jac[:, :, 1] - jac[:, :, 0], -jac[:, :, 1], jac[:, :, 0])
    for le, d in enumerate(edge_vectors):
        flip = flips[:, le]
        length = np.hypot(d[:, 0], d[:, 1])
        # columns [start vertex | end vertex | uhat bubbles] and the flux
        trace_cols = np.r_[vert_col + (le + 1) % 3, vert_col + (le + 2) % 3,
                           bub_col + le * p:bub_col + (le + 1) * p]
        flux_cols = slice(flux_col + le * (p + 1), flux_col + (le + 1) * (p + 1))
        SK = tab["SK"][le, flip]
        for c, normal in enumerate((d[:, 1], -d[:, 0])):
            B[:, st[c], trace_cols] -= np.einsum("e,eji->eij", normal, SK)
        B[:, sv, flux_cols] -= np.einsum(
            "e,eji->eij", np.where(flip, -length, length), tab["FX"][le, flip])
    return G, B


# bytes of class operators that one chunk gathers: a solve runs its
# per-element products, and ClassStore.update its condensations, over
# chunks of elements or classes this large, so that no operator is ever
# copied for every element at once.  Results do not depend on it
_CHUNK_BYTES = 4 << 20


def _class_bytes(dofmap):
    """Bytes of one class's stored operators: w (m x (n + n_t)), and
    hybrid and inner (n x (n - k + n_t) together), for m test and n local
    trial functions, k of them interior, and n_t scalar test functions."""
    n_t = _dim(dofmap.trial.p + DELTA_P)
    m, n = 3 * n_t, dofmap.n_local
    return 8 * ((m + n) * (n + n_t) - n * dofmap.k_int)


def _chunks(count, item_bytes):
    """Consecutive slices that cover range(count), each of at most
    _CHUNK_BYTES worth of items of item_bytes, and at least one item."""
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(start, start + step) for start in range(0, count, step)]


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
    rep of dofmap's mesh: the three operators assemble_solve reads, one
    row per class, each as its condensation returns it.

    A load is one more coupling column: E = eye(m, n_t) picks the scalar
    test rows, so F_T = E load_T, and condensing [B | E] gives w = L^{-1}
    [B | E] = [W_B | W_E] and puts R = W_B' W_E in the Schur complement's
    columns past n.  The interior block [u | sigma] comes first in the
    local columns, and condensing S_II against [S_IS | R_I] gives inner =
    S_II^{-1} [S_IS | R_I] and leaves, in the skeleton rows, hybrid =
    [S_hat | R_S - S_SI S_II^{-1} R_I], the Schur complement of S_II.
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
    return {"w": w, "hybrid": schur[:, k:n, k:] - inner_schur[:, :n - k],
            # L_I^-T W_I = S_II^{-1} [S_IS | R_I]
            "inner": solve_triangular(l_i, w_i, lower=True, trans="T")}


class ClassStore:
    """Condensed element-class operators, kept from one solve to the next.

    A class key (_element_classes) fixes G, B and so the three stacks of
    _condense_classes, w, hybrid and inner, for a given trial space and
    problem kind.  They act on an element's local vector [-x | load], so
    the source and the Dirichlet data never enter them.  Refinement
    leaves most elements of an adaptive step alone, and with them their
    classes, so a solve condenses only the classes new to its mesh.  Each
    update keeps exactly the classes of its mesh, one stacked row per
    class in class order, and drops the rest.
    """

    def __init__(self):
        self.space = None       # (trial, kind) of the stored operators
        self.rows = {}          # class-key bytes -> row of the stacks
        self.ops = {}           # operator name -> stack, one row per class

    def __len__(self):
        return len(self.rows)

    def update(self, dofmap, kind, keys, rep):
        """Operator stacks for the classes keys of dofmap's mesh, with
        representative elements rep.  The stored classes are taken by
        their rows, which copies them bit for bit; the classes not stored
        yet are condensed in chunks of _CHUNK_BYTES worth of stored
        operators and written into their rows (batched LAPACK factors each
        matrix on its own, so a class's operators do not depend on the
        chunk).  Returns (stacks, number of classes condensed)."""
        if (dofmap.trial, kind) != self.space:
            self.space, self.rows, self.ops = (dofmap.trial, kind), {}, {}
        names = [key.tobytes() for key in keys]
        missing = np.array([i for i, name in enumerate(names)
                            if name not in self.rows], dtype=np.intp)
        # row 0 holds the place of a missing class until its chunk comes
        row = [self.rows.get(name, 0) for name in names]
        ops = {name: a[row] for name, a in self.ops.items()}
        for chunk in _chunks(len(missing), _class_bytes(dofmap)):
            fresh = _condense_classes(dofmap, kind, rep[missing[chunk]])
            for name, a in fresh.items():
                # each stack keeps the memory layout the condensation
                # gives it: assemble_solve's products sum in the order of it
                if name not in ops:
                    ops[name] = np.empty_like(a, shape=(len(names),)
                                              + a.shape[1:])
                ops[name][missing[chunk]] = a
        self.ops, self.rows = ops, dict(zip(names, range(len(names))))
        return ops, len(missing)


def condense(gram, coupling):
    """Schur complement of local saddle-point blocks.

    Eliminates the residual representer from the mixed system of one
    element (2-D gram and coupling) or of a stack of elements (one leading
    batch axis on both).  With one Cholesky factorization G = L L' it
    returns (S, W, L) for the coupling C: W = L^{-1} C, which realizes the
    trial-to-test operator G^{-1} C = L^{-T} W locally, and S = W'W = C'
    G^{-1} C.  A load is one more coupling column: for C = [B | F] the
    last column of S holds r = B' G^{-1} F above F' G^{-1} F.  numpy's
    LinAlgError passes through for a Gram that is not SPD.
    """
    factor = np.linalg.cholesky(gram)
    whitened = solve_triangular(factor, coupling, lower=True)
    return np.swapaxes(whitened, -1, -2) @ whitened, whitened, factor


def _dirichlet_values(mesh, dofmap, data):
    """Prescribed uhat values: vertex interpolation plus edgewise L2
    projection of the remainder onto the edge-interior modes.  data
    returns one value per point or a scalar; any other shape or a
    non-finite value raises ValueError."""
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
    the result is bitwise the same with or without a store.  The
    per-element products, before the solve and after it, run over
    consecutive chunks of elements whose gathered class operators fill at
    most _CHUNK_BYTES; every element's numbers are bitwise the same for
    any chunk size.  Solution.diagnostics reports element_classes,
    element_chunks and classes_condensed.

    Parameters
    ----------
    mesh : Mesh
    trial : TrialSpace
    kind : REACTION_DIFFUSION or POISSON
    source : callable f(x, y) or None for f = 0
    dirichlet : callable g(x, y) or None for homogeneous data
    solver_tol : real number in (0, 1), not a bool
        Relative residual target of the direct solve of the skeleton
        system; _in_unit_interval holds the rule, for the solve loop too.
    store : ClassStore or None
        Condensed element-class operators of an earlier solve.

    Returns
    -------
    Solution

    Raises ValueError on a mesh without triangles, a solver_tol that is
    not a real number in (0, 1), or source or Dirichlet values that are
    non-finite or of the wrong shape (spaces.point_values), and
    SolverError when the test-space Gram or the interior block S_II of an
    element class or the skeleton system is not SPD, or the solve misses
    solver_tol.
    """
    if mesh.num_triangles == 0:
        raise ValueError("mesh has no triangles")
    _in_unit_interval(solver_tol, "solver_tol")
    p = trial.p
    dofmap = DofMap(mesh, trial)
    prescribed = (np.zeros(dofmap.n_total) if dirichlet is None else
                  _dirichlet_values(mesh, dofmap, dirichlet))
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
    chunks = _chunks(nt, _class_bytes(dofmap))
    k, n = dofmap.k_int, dofmap.n_local

    # free skeleton block only: interior dofs come first in the global
    # order and are all free, so free_index - interior_count numbers the
    # free skeleton dofs (negative when prescribed), as int32, which
    # scipy's sparse formats keep without a copy
    ic = dofmap.interior_count
    cols = dofmap.local_cols
    skel = cols[:, k:]
    fcols = (dofmap.free_index[skel] - ic).astype(np.int32)
    own = fcols >= 0
    ns = dofmap.num_free - ic

    # every element's local vector z = [-x | load], x its trial dofs, here
    # at the Dirichlet lift x = prescribed; chunk by chunk, hybrid z[k:]
    # is the skeleton right-hand side, and the free entries of S_hat are
    # the COO values
    z = np.concatenate([-prescribed[cols], load], axis=1)
    r_hat = np.empty(skel.shape)
    values = []
    for c in chunks:
        hybrid = ops["hybrid"][cls[c]]
        r_hat[c] = (hybrid @ z[c, k:, None])[..., 0]
        values.append(hybrid[:, :, :n - k][own[c, :, None] & own[c, None, :]])
    b = np.bincount(fcols[own], r_hat[own], minlength=ns)
    # one COO of all element cliques, so that their exact zeros stay
    # entries of A: the finest system of the p=1 uniform L-shape study
    # holds 8,960 of them, and pruning them (as a sum of per-chunk sparse
    # matrices would) changes the minimum-degree order and takes nnz(L+U)
    # from 2.62M to 4.88M
    pair = own[:, :, None] & own[:, None, :]
    A = sp.csc_matrix(
        (np.concatenate(values),
         (np.broadcast_to(fcols[:, :, None], pair.shape)[pair],
          np.broadcast_to(fcols[:, None, :], pair.shape)[pair])),
        shape=(ns, ns))
    del values, pair
    x_skel, diag = _solve_spd(A, b, solver_tol)
    del A
    diag["skeleton_dofs"] = ns

    # chunk by chunk, with the skeleton solution in z, the fields x_I =
    # inner z[k:] complete it, and w z = L^{-1} (F - B x) gives the local
    # estimator |w z|.  Taken at the Dirichlet lift as well, W_B' w z
    # gives the condensed load of the free trial dofs, the scale of the
    # Galerkin check below
    x = prescribed.copy()
    x[ic:][dofmap.free[ic:]] = x_skel
    interior = x[:ic].reshape(nt, k)
    eta_sq = np.empty(nt)
    bt_both = np.empty(cols.shape + (2,))
    for c in chunks:
        both = np.stack([z[c], z[c]], axis=-1)   # at the solution, the lift
        both[:, k:n, 0] = -x[skel[c]]
        interior[c] = (ops["inner"][cls[c]] @ both[:, k:, :1])[..., 0]
        both[:, :k, 0] = -interior[c]
        w = ops["w"][cls[c]]
        res = w @ both
        eta_sq[c] = np.einsum("em,em->e", res[..., 0], res[..., 0])
        bt_both[c] = np.swapaxes(w[:, :, :n], 1, 2) @ res

    # Galerkin orthogonality of the mixed system: B' G^{-1} (F - B x) =
    # W_B' w vanishes on the free trial dofs up to solver accuracy
    fall = dofmap.free_index[cols]
    fown = fall >= 0
    nf = dofmap.num_free
    gal = np.bincount(fall[fown], bt_both[..., 0][fown], minlength=nf)
    free_load = np.bincount(fall[fown], bt_both[..., 1][fown], minlength=nf)
    diag["galerkin_residual"] = float(np.abs(gal).max()) if nf else 0.0
    diag["load_scale"] = float(np.abs(free_load).max()) if nf else 0.0
    diag["element_classes"] = len(keys)
    diag["element_chunks"] = len(chunks)
    diag["classes_condensed"] = condensed

    u_coeffs = interior[:, :dofmap.n_u].copy()
    sigma_coeffs = interior[:, dofmap.n_u:].reshape(nt, 2, dofmap.n_s).copy()

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
        # b = 0 (zero source and Dirichlet data) divides by 1: x = 0 then
        # passes at once, and a non-finite x still fails
        rel = float(np.linalg.norm(res)) / (bnorm or 1.0)
        if rel <= tol:
            return x, {"method": "direct", "iterations": it,
                       "rel_residual": rel, "ordering": _ORDERING,
                       "nnz_A": int(A.nnz), "nnz_factor": int(lu.nnz)}
        x = x + lu.solve(res)
    raise SolverError(
        f"linear solver failed: residual {rel:.3e} after {it} refinement "
        f"steps (target {tol:.1e})", residual=rel)
