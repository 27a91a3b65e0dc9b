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

The element geometry comes from the mesh: J, det J and J^{-1}
(Mesh.geometry), computed where they are used (the class keys, the
load's points and scale, and the class representatives that are
condensed), and the orientation of the local edges (Mesh.edge_flips),
which the mesh stores.  The scalar test basis is orthonormal on the
reference element, so the load moments (f, v_i)_T are det J times the L2
projection of f (spaces.project_l2), every mass block of G_T and B_T is
det J times an identity slice, and G_T = det J I + K_T with K_T the
stiffness terms alone.  The basis is nested too, so the bases of u and
sigma are its leading modes, and one reference table of the test basis
per trial order (_reference_tables) holds every other volume term;
postprocessing reads the same table.  G_T and B_T depend on T only
through J and the edge flips, and newest-vertex bisection produces few
distinct element shapes, so a ClassStore groups the elements into
classes whose members share both bit for bit and condenses once per
class; it keeps the class operators for the next solve, which
condenses only the classes new to its mesh.  A load is one more coupling
column: E, the scalar test rows, carries it, F_T = E load_T.  condense()
factors each Gram once, G = L L', and whitens [B | E] into w = L^{-1}
[B | E] = [W_B | W_E], whose Gram w' w holds S = W_B' W_B and R = B'
G^{-1} E = W_B' W_E in its first n rows; the second
condensation factors S_II and leaves hybrid = [S_hat | R_S - S_SI
S_II^{-1} R_I] and inner = S_II^{-1} [S_IS | R_I].  These are the
class operators.  hybrid and inner are kept as the condensation returns
them, and w without its blocks that are zero by construction.  G
couples v only with v and tau only with tau, so L is block diagonal
too.  The tau rows of B hold u, sigma and uhat alone; its v rows hold
sigma, the fluxes and, for reaction-diffusion only, u; E has v rows
only.  So the store keeps w's v rows on the columns [s, k) and [b, n +
n_t), and its tau rows on [0, b), where b is the first flux column and
s = n_u for Poisson, 0 for reaction-diffusion (_w_blocks): 982 of
1,392 doubles per class at p=1 and 5,307 of 7,155 at p=3 (Poisson),
hybrid and inner included.  _recover rebuilds w chunk by chunk.  The
fields never enter the global system, so DofMap numbers the skeleton
alone, and its free_cols give each element's skeleton columns in the
numbering of the solve.  Every element has one local vector z_T = [-x_T |
load_T], x_T = [x_I | x_S] its trial dofs, and every operator acts on
it: hybrid z_T[k:] is its skeleton right-hand side while x_T holds the
Dirichlet lift (x_I = 0), inner z_T[k:] its fields x_I once x_S holds
the skeleton solution, and w z_T = L^{-1} (F_T - B_T x_T) = w_T.  |w_T|
is the local estimator eta(T), the test norm of the residual
representer, and W_B' w_T its Galerkin vector.  assemble_solve runs in
three stages: _skeleton_system takes hybrid z_T[k:] into the sparse
system, summing the element cliques into CSC arrays allocated at their
exact size, _solve_spd solves it, and _recover applies inner and w.
Each element stage gets its own z at the lift, so that under the sparse
factor only A, b and what recovery reads are alive.  Both element stages
run their products over chunks of elements whose gathered class
operators fill at most _CHUNK_BYTES, and the store condenses the classes
new to a mesh in chunks of the same size, so no operator is copied once
per element of the whole mesh, and the holes that freed chunks leave in
the heap stay small.  No result depends on the chunk size.
The dense algebra is numpy's alone: np.linalg.cholesky and
np.linalg.solve take a whole stack of class matrices in one call each.
The sparse work runs in scipy's compiled kernels, called directly: those
of the _sparsetools module with which csc_matrix sorts and sums the
columns of A, takes its diagonal and multiplies it by a vector, and
SuperLU's gstrf (_factor), both modules loaded from their files in
scipy's install directory (_scipy_extension).  None of scipy's packages
is imported, so that a process that imports dpglab carries numpy's core
and these two modules alone; test_import_loads_no_scipy_package and the
CI import-footprint step check it.
Each kernel is called as scipy's own csc_matrix method or splu calls it,
with the same arguments in the same order, so A, its factor and the
solution are those of the scipy calls bit for bit.
"""

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 PathFinder)

import numpy as np

from .spaces import (MAX_QUADRATURE_DEGREE, REFERENCE_VERTICES, EdgeBasis,
                     ScalarBasis, _check_flag, _check_integer,
                     _check_unit_interval, basis_at_quadrature, edge_bubbles,
                     edge_quadrature, point_values, project_l2,
                     triangle_quadrature)


def _scipy_extension(*parts):
    """scipy's compiled extension module scipy.<parts>, loaded from its
    file in scipy's install directory.  find_spec finds that directory
    without importing scipy, and PathFinder the module's file in it, so
    no package of scipy is imported; a module that is imported already
    is reused.  Raises ImportError that names the file and scipy's
    version if the folder holds no compiled module of that name, a
    pure-Python one included, which is refused before it runs."""
    name = ".".join(("scipy",) + parts)
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("dpglab needs scipy", name="scipy")
    folder = os.path.join(package.submodule_search_locations[0], *parts[:-1])
    spec = PathFinder.find_spec(name, [folder])
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        from importlib.metadata import version
        raise ImportError(
            f"scipy {version('scipy')} has no file "
            f"{os.path.join(folder, parts[-1])}{EXTENSION_SUFFIXES[0]} (nor "
            f"one with another suffix of {EXTENSION_SUFFIXES}), which "
            f"dpglab loads as {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # single-phase initialization registers the module under its name;
    # without its package there, a later import of scipy.sparse would
    # find it but not bind it to the package, so it loads its own copy
    # instead
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


_sparsetools = _scipy_extension("sparse", "_sparsetools")
_superlu = _scipy_extension("sparse", "linalg", "_dsolve", "_superlu")

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
        _check_integer(self.p, "polynomial order p", 0)
        _check_flag(self.augmented, "augmented")

    @property
    def u_degree(self):
        return self.p + 1 if self.augmented else self.p


def _dim(degree):
    return (degree + 1) * (degree + 2) // 2


class DofMap:
    """Numbering of the trial unknowns on a mesh, and the element-local
    layout that every element kernel reads.

    An element's local trial columns are [u | sigma_x | sigma_y | uhat
    vertices | uhat bubbles | flux], n_local of them, the first k_int its
    fields: n_u of u, n_s of each sigma component.  n_t is the dimension
    of the scalar test space P^{p+DELTA_P}, and so the width of an
    element's load; the test space has 3 n_t functions (v, tau_x, tau_y).
    Local edge le runs from local vertex le+1 to le+2; trace_cols[le]
    holds the local columns of its start vertex, its end vertex and its p
    uhat bubbles, flux_cols[le] those of its p+1 fluxes.

    Hybridization eliminates the fields element by element, so they get
    no global number: only the skeleton is numbered, from 0, one uhat dof
    per mesh vertex (its vertex number), then p uhat edge-interior dofs
    per edge, then p+1 flux dofs per edge, n_skeleton in all.
    skeleton_cols (nt, n_local - k_int), int32, holds each element's
    skeleton dofs in the order of its local skeleton columns.  Boundary
    vertex and boundary edge-interior uhat dofs are constrained by the
    Dirichlet data (zero in the homogeneous case); the rest of the
    skeleton is free, num_free_skeleton dofs, the size of the global
    solve.  free_cols (nt, n_local - k_int), int32 too, holds
    skeleton_cols in the numbering of that solve: the free skeleton dofs
    numbered from 0 in skeleton order, and -1 for a prescribed one.
    num_free is the reported dof count D_h: the fields of every element
    and the free skeleton dofs.
    """

    def __init__(self, mesh, trial):
        p = trial.p
        self.mesh = mesh
        self.trial = trial
        self.n_u = _dim(trial.u_degree)
        self.n_s = _dim(p)
        self.n_t = _dim(p + DELTA_P)
        self.k_int = self.n_u + 2 * self.n_s
        self.n_local = self.k_int + 3 + 3 * p + 3 * (p + 1)
        # one row per local edge le, from local vertex le+1 to le+2; the
        # fluxes are the last 3 (p+1) local columns
        le = np.arange(3)[:, None]
        self.trace_cols = np.hstack([self.k_int + (le + [1, 2]) % 3,
                                     self.k_int + 3 + le * p + np.arange(p)])
        self.flux_cols = self.n_local - (3 - le) * (p + 1) + np.arange(p + 1)
        nt, nv, ne = mesh.num_triangles, mesh.num_vertices, mesh.num_edges

        self.bubble_offset = nv
        flux_offset = nv + ne * p
        self.n_skeleton = flux_offset + ne * (p + 1)

        free = np.ones(self.n_skeleton, dtype=bool)
        free[:nv] = ~mesh.boundary_vertex
        free[self.bubble_dofs(np.flatnonzero(mesh.boundary_edge))] = False
        self.free = free
        self.num_free_skeleton = int(free.sum())
        self.num_free = nt * self.k_int + self.num_free_skeleton

        ge = mesh.tri_edges
        flux = flux_offset + ge[..., None] * (p + 1) + np.arange(p + 1)
        # int32, half the bytes of int64 in every solve, and for free_cols
        # the index type of the skeleton system's CSC arrays
        self.skeleton_cols = np.concatenate([
            mesh.triangles, self.bubble_dofs(ge).reshape(nt, 3 * p),
            flux.reshape(nt, 3 * (p + 1))], axis=1).astype(np.int32)
        self.free_cols = np.where(free, np.cumsum(free) - 1, -1)[
            self.skeleton_cols].astype(np.int32)

    def bubble_dofs(self, e):
        """uhat edge-interior dofs of edge(s) e: shape e.shape + (p,)."""
        p = self.trial.p
        return self.bubble_offset + np.asarray(e)[..., None] * p + np.arange(p)


@dataclass
class Solution:
    """Discrete solution with its local error estimator.

    The fields are held per element, u_coeffs and sigma_coeffs on the
    reference basis; the traces and fluxes in skeleton_coeffs, one entry
    per skeleton dof, the prescribed ones included, in the numbering of
    DofMap(mesh, trial), which rebuilds it bit for bit.  num_dofs is that
    DofMap's num_free, the reported dof count D_h.
    """
    mesh: object
    trial: TrialSpace
    num_dofs: int
    skeleton_coeffs: np.ndarray     # (n_skeleton,) in DofMap's numbering
    u_coeffs: np.ndarray            # (nt, dim u)
    sigma_coeffs: np.ndarray        # (nt, 2, dim sigma)
    eta_local: np.ndarray           # (nt,) local estimator eta(T)
    eta: float
    diagnostics: dict = field(default_factory=dict)


@lru_cache(maxsize=None)
def _reference_tables(p):
    """Reference-element contraction tensors of trial order p, shared by all
    elements: the test basis V of degree p + DELTA_P against itself under
    the assembly quadrature default_exactness(p), and its edge traces; the
    one place for the volume and trace contractions of assembly and
    postprocessing (project_l2, _dirichlet_values and error_report weight
    their own rules).  V is orthonormal, so mass blocks need no table, and
    nested, so the bases of u, sigma and the postprocessed field are its
    leading modes: T1 holds (d_a v_i, d_b v_j), GV (d_a v_i, v_j), and
    postprocessing reads their first dim P^{p+1} rows."""
    exactness = default_exactness(p)
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
    leg = EdgeBasis(p).values(t)
    tab["SK"] = np.empty((3, 2, 2 + p, V.shape[0]))
    tab["FX"] = np.empty((3, 2, p + 1, V.shape[0]))
    configs = [(le, flip) for le in range(3) for flip in (0, 1)]
    pts = []
    for le, flip in configs:
        ends = [(le + 1) % 3, (le + 2) % 3]
        a, b = REFERENCE_VERTICES[ends[::-1] if flip else ends]
        pts.append(a + t[:, None] * (b - a))
    # the test basis at the points of all six in one call, since each call
    # runs the whole recurrence, gradients included, and every study
    # process builds the table anew; then one contiguous (n_t, nqe) block
    # per configuration
    EV = ScalarBasis(p + DELTA_P).values(np.concatenate(pts))
    EV = np.ascontiguousarray(
        EV.reshape(V.shape[0], len(configs), len(t)).swapaxes(0, 1))
    for (le, flip), ev in zip(configs, EV):
        trace = np.vstack([hat[::-1] if flip else hat, bub])
        tab["SK"][le, flip] = np.einsum("jk,ik,k->ji", trace, ev, we)
        tab["FX"][le, flip] = np.einsum("jk,ik,k->ji", leg, ev, we)
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


def _local_systems(dofmap, kind, elements):
    """Gram and coupling matrices for a set of elements of dofmap's mesh,
    under the assembly quadrature default_exactness(p); kind is one of
    PROBLEM_KINDS, which assemble_solve checks.

    Returns (G, B) with shapes (ne, m, m) and (ne, m, n_local), where m =
    3 n_t and columns follow DofMap's local trial columns.
    """
    mesh, n_u, n_s, n_t = dofmap.mesh, dofmap.n_u, dofmap.n_s, dofmap.n_t
    tab = _reference_tables(dofmap.trial.p)
    m = 3 * n_t

    elements = np.asarray(elements, dtype=np.int64)
    ne = elements.shape[0]
    # G and B below depend only on the Jacobian and the edge flips, so
    # elements that share both get bitwise equal matrices
    jac, det, inv = mesh.geometry(elements)
    inv_t = inv.transpose(0, 2, 1)  # J^{-T}, maps gradients

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
    B = np.zeros((ne, m, dofmap.n_local))
    cu = slice(0, n_u)
    cs = (slice(n_u, n_u + n_s), slice(n_u + n_s, n_u + 2 * n_s))

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
    # the edge length; DofMap holds the edge's local trial columns
    flips = mesh.edge_flips[elements].astype(np.intp)
    edge_vectors = (jac[:, :, 1] - jac[:, :, 0], -jac[:, :, 1], jac[:, :, 0])
    for le, d in enumerate(edge_vectors):
        flip = flips[:, le]
        length = np.hypot(d[:, 0], d[:, 1])
        SK, trace = tab["SK"][le, flip], dofmap.trace_cols[le]
        for c, normal in enumerate((d[:, 1], -d[:, 0])):
            B[:, st[c], trace] -= np.einsum("e,eji->eij", normal, SK)
        B[:, sv, dofmap.flux_cols[le]] -= np.einsum(
            "e,eji->eij", np.where(flip, -length, length), tab["FX"][le, flip])
    return G, B


# bytes of class operators that one chunk gathers: a solve runs its
# per-element products, and ClassStore.update its condensations, over
# chunks of elements or classes this large, so that no operator is ever
# copied for every element at once; _skeleton_system's column blocks
# and error_report's points are chunked by the same budget, each at its
# own cost per local column or point (see there).  Results do not
# depend on it.  The gathers of a larger chunk, once freed, leave heap
# holes that the adaptive study's later steps keep resident under their
# sparse factor; a smaller chunk makes more numpy calls.  The p=1
# adaptive L-shape study to 25,000 dofs, in a child process, peaks at
# 54.7, 52.6 and 51.9 MiB and runs in 0.77, 0.73 and 0.78 s, with
# chunks of 4 MiB, 1 MiB and 256 KiB (medians of 5; Python 3.11, numpy
# 2.4, 2 vCPUs); the heap's layout alone moves that peak by about 1 MiB
_CHUNK_BYTES = 1 << 20


def _class_bytes(dofmap):
    """Bytes of one class's operators as a chunk gathers them: w whole
    (m x (n + n_t), rebuilt from its stored blocks by _whitened), and
    hybrid and inner (n x (n - k + n_t) together), for m test and n local
    trial functions, k of them interior, and n_t scalar test functions:
    1,392 doubles at p=1 and 7,155 at p=3 for Poisson, of which the
    store keeps 982 and 5,307 (_w_blocks)."""
    n_t, n = dofmap.n_t, dofmap.n_local
    return 8 * ((3 * n_t + n) * (n + n_t) - n * dofmap.k_int)


def _chunks(count, item_bytes):
    """Consecutive slices that cover range(count), each of at most
    _CHUNK_BYTES worth of items of item_bytes, and at least one item."""
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(start, start + step) for start in range(0, count, step)]


def _element_classes(mesh):
    """Group the elements by the bits of their Jacobian J (Mesh.geometry)
    and their mesh.edge_flips, all that G and B depend on.  Returns the
    class keys (one int64 row per class: the four Jacobian entries' bits
    and the three flips), one representative element per class and the
    class of every element.

    A stable lexsort of the key columns, first column first, orders the
    rows as signed int64 tuples, and a class begins wherever a sorted row
    differs from the one before it.  The result is that of
    np.unique(key, axis=0, return_index=True, return_inverse=True): keys
    in lexicographic order, the lowest element of each class as its
    representative."""
    nt = mesh.num_triangles
    jac = mesh.geometry()[0]
    key = np.column_stack([jac.reshape(nt, 4).view(np.int64),
                           mesh.edge_flips])
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.ones(nt, dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    cls = np.empty(nt, dtype=np.intp)
    cls[order] = np.cumsum(first) - 1
    return key[first], order[first], cls


def _w_blocks(dofmap, kind):
    """Columns (s, b) of the blocks of w = L^{-1} [B | E] that are not
    zero by construction: the v rows, the first n_t, on [s, k) and [b, n
    + n_t), the tau rows on [0, b); k = k_int, b is the first flux column
    and s is n_u for POISSON, which has no (u, v) mass, and 0 for
    REACTION_DIFFUSION."""
    s = dofmap.n_u if kind == POISSON else 0
    return s, dofmap.k_int + 3 + 3 * dofmap.trial.p


def _condense_classes(dofmap, kind, rep):
    """Both condensations for the classes with representative elements
    rep of dofmap's mesh: the operators a solve reads, one row per class,
    hybrid and inner as the condensation returns them, and w as its two
    blocks that are not zero by construction (_w_blocks), w_v its v rows
    on [s, k) and [b, n + n_t) side by side and w_tau its tau rows on
    [0, b).

    A load is one more coupling column: E = eye(m, n_t) picks the scalar
    test rows, so F_T = E load_T, and condensing [B | E] gives w = L^{-1}
    [B | E] = [W_B | W_E] and puts R = W_B' W_E in the Schur complement's
    columns past n.  The interior block [u | sigma] comes first in the
    local columns, and condensing S_II against [S_IS | R_I] gives inner =
    S_II^{-1} [S_IS | R_I] and leaves, in the skeleton rows, hybrid =
    [S_hat | R_S - S_SI S_II^{-1} R_I], the Schur complement of S_II.
    Raises SolverError if a Gram or an S_II is not SPD.
    """
    G, B = _local_systems(dofmap, kind, rep)
    nc, m, n = B.shape
    E = np.eye(m, dofmap.n_t)
    try:
        schur, w, _ = condense(G, np.concatenate(
            [B, np.broadcast_to(E, (nc,) + E.shape)], axis=2))
    except np.linalg.LinAlgError as exc:
        # cond G grows like h^-2: only its mass terms scale with h^2
        raise SolverError(
            "linear solver failed: the test-space Gram of an element class is "
            "not SPD in floating point; smallest element diameter of the "
            f"classes condensed {dofmap.mesh.diameters()[rep].min():.3e}",
            residual=np.inf) from exc
    k, n_t = dofmap.k_int, dofmap.n_t
    s, b = _w_blocks(dofmap, kind)
    try:
        inner_schur, w_i, l_i = condense(schur[:, :k, :k], schur[:, :k, k:])
        return {"w_v": np.concatenate([w[:, :n_t, s:k], w[:, :n_t, b:]],
                                      axis=2),
                "w_tau": w[:, n_t:, :b],
                "hybrid": schur[:, k:n, k:] - inner_schur[:, :n - k],
                # L_I^-T W_I = S_II^{-1} [S_IS | R_I]
                "inner": np.linalg.solve(np.swapaxes(l_i, -1, -2), w_i)}
    except np.linalg.LinAlgError as exc:
        raise SolverError("linear solver failed: the interior block S_II "
                          "(u and sigma) of an element class is not SPD",
                          residual=np.inf) from exc


class ClassStore:
    """Condensed element-class operators, kept from one solve to the next.

    A class key (_element_classes) fixes G, B and so the four stacks of
    _condense_classes, w_v, w_tau, hybrid and inner, for a given trial
    space and problem kind.  w_v and w_tau are the blocks of w that are
    not zero by construction (_w_blocks), and _whitened rebuilds w from
    them for one chunk of elements at a time: a class keeps 982 doubles
    at p=1 and 5,307 at p=3 (Poisson), and a chunk gathers 1,392 and
    7,155 per element (_class_bytes).  The operators act on an element's
    local vector [-x | load], so the source and the Dirichlet data never
    enter them.  Refinement leaves most elements of an adaptive step
    alone, and with them their classes, so a solve condenses only the
    classes new to its mesh.  Each update keeps exactly the classes of
    its mesh, one stacked row per class in class order, and drops the
    rest.
    """

    def __init__(self):
        self.space = None       # (trial, kind) of the stored operators
        self.rows = {}          # class-key bytes -> row of the stacks
        self.ops = {}           # operator name -> stack, one row per class

    def __len__(self):
        return len(self.rows)

    def update(self, dofmap, kind):
        """Operator stacks for the element classes of dofmap's mesh
        (_element_classes).  The stored classes are taken by their rows,
        which copies them bit for bit; the classes not stored yet are
        condensed in chunks of _CHUNK_BYTES worth of _class_bytes and
        written into their rows (numpy's stacked cholesky and solve factor
        each matrix on its own, so a class's operators do not depend on
        the chunk).  Returns (stacks, the class of every element, number
        of classes condensed)."""
        if (dofmap.trial, kind) != self.space:
            self.space, self.rows, self.ops = (dofmap.trial, kind), {}, {}
        keys, rep, cls = _element_classes(dofmap.mesh)
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
                # gives it: the products of a solve sum in the order of it
                if name not in ops:
                    ops[name] = np.empty_like(a, shape=(len(names),)
                                              + a.shape[1:])
                ops[name][missing[chunk]] = a
        self.ops, self.rows = ops, dict(zip(names, range(len(names))))
        return ops, cls, len(missing)


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

    numpy has no stacked triangular solve, so W comes from np.linalg.solve,
    an LU with partial pivoting, which swaps rows of L where its
    sub-diagonal entries pass its diagonal, as they do on small p = 3
    elements.  On a block-diagonal Gram, as the element Grams are in (v,
    tau), L is block diagonal, its diagonal positive and its entries off
    the blocks exact zeros, so the pivoting swaps rows only within a
    block, and a zero block of C gives a zero block of W (_w_blocks).
    The LU stays backward stable:
    test_condense_symmetry_and_nullspace holds L W = C to 1e-13 on such a
    Gram.
    """
    factor = np.linalg.cholesky(gram)
    whitened = np.linalg.solve(factor, coupling)
    return np.swapaxes(whitened, -1, -2) @ whitened, whitened, factor


def _dirichlet_values(dofmap, data):
    """Prescribed uhat values, one per skeleton dof: vertex interpolation
    plus edgewise L2 projection of the remainder onto the edge-interior
    modes, zero off the boundary.  data returns one value per point or a
    scalar; any other shape or a non-finite value raises ValueError."""
    mesh, p = dofmap.mesh, dofmap.trial.p
    values = np.zeros(dofmap.n_skeleton)
    bverts = np.flatnonzero(mesh.boundary_vertex)
    xy = mesh.vertices[bverts]
    values[bverts] = point_values(
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
        ga = values[mesh.edges[bedges, 0]]
        gb = values[mesh.edges[bedges, 1]]
        resid = gvals - (np.outer(ga, 1.0 - t) + np.outer(gb, t))
        rhs = np.einsum("ek,jk,k->ej", resid, bub, w)
        values[dofmap.bubble_dofs(bedges)] = np.linalg.solve(gram, rhs.T).T
    return values


def assemble_solve(mesh, trial, kind, source, dirichlet=None, *,
                   solver_tol=1e-10, store=None):
    """Assemble the hybridized DPG system, solve it, and recover the fields
    and the elementwise error estimator.

    After the input checks, the Dirichlet lift, the load and every
    element's local vector z = [-x | load] at the lift, a solve runs in
    three stages: _skeleton_system assembles the SPD system of the free
    skeleton dofs (uhat and shat), _solve_spd factors and solves it, and
    _recover brings back the fields into u_coeffs and sigma_coeffs, the
    local estimator and the Galerkin check.  Solution.skeleton_coeffs
    holds every skeleton dof, the prescribed ones included, in the
    numbering of DofMap(mesh, trial), which the Solution does not keep:
    it holds the count num_dofs alone.  The class operators come from
    store, a ClassStore that the solves of one study share (None: a new,
    empty one); the result is bitwise the same with or without a store.

    Solution.diagnostics holds the solve's record from _solve_spd: method,
    rel_residual, ordering, relax, panel_size, nnz_A and nnz_factor;
    then skeleton_dofs, the size of the skeleton system;
    galerkin_residual, the largest |B' G^{-1} (F - B x)| over the free
    trial dofs, and load_scale, its scale, the same at the Dirichlet lift;
    min_diameter, the smallest element diameter, against which cond G
    grows like h^-2; and element_classes, element_chunks and
    classes_condensed.

    Parameters
    ----------
    mesh : Mesh
    trial : TrialSpace
    kind : REACTION_DIFFUSION or POISSON
    source : callable f(x, y) or None for f = 0
    dirichlet : callable g(x, y) or None for homogeneous data
    solver_tol : real number in (0, 1), not a bool
        Relative residual target of the direct solve of the skeleton
        system; spaces._check_unit_interval holds the rule, for the solve
        loop too.
    store : ClassStore or None
        Condensed element-class operators of an earlier solve.

    Returns
    -------
    Solution

    Raises ValueError, before any work, on a kind not in PROBLEM_KINDS, a
    mesh without triangles or with a vertex that no triangle uses, a
    solver_tol that is not a real number in (0, 1), or a trial order p
    whose assembly quadrature default_exactness(p) passes
    MAX_QUADRATURE_DEGREE (p >= 8); then on source or Dirichlet values
    that are non-finite or of the wrong shape (spaces.point_values); and
    SolverError when the test-space Gram or the interior block S_II of an
    element class or the skeleton system is not SPD, or the solve misses
    solver_tol.
    """
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if mesh.num_triangles == 0:
        raise ValueError("mesh has no triangles")
    # a vertex outside every triangle carries a uhat dof without an equation
    used = np.bincount(mesh.triangles.ravel(), minlength=mesh.num_vertices)
    if not used.all():
        raise ValueError(f"vertex {np.argmin(used)} belongs to no triangle")
    _check_unit_interval(solver_tol, "solver_tol")
    p, nt = trial.p, mesh.num_triangles
    exactness = default_exactness(p)
    if exactness > MAX_QUADRATURE_DEGREE:
        raise ValueError(f"trial order p = {p}: assembly quadrature "
                         f"exactness {exactness} exceeds "
                         f"{MAX_QUADRATURE_DEGREE}")
    dofmap = DofMap(mesh, trial)
    prescribed = (np.zeros(dofmap.n_skeleton) if dirichlet is None else
                  _dirichlet_values(dofmap, dirichlet))
    # moments (f, v_i)_T against the scalar test functions; without a
    # source, a broadcast zero, not a dense array alive under the factor
    load = (np.broadcast_to(0.0, (nt, dofmap.n_t)) if source is None else
            mesh.geometry()[1][:, None]
            * project_l2(p + DELTA_P, source, mesh, exactness))
    store = ClassStore() if store is None else store
    ops, cls, condensed = store.update(dofmap, kind)
    chunks = _chunks(nt, _class_bytes(dofmap))

    def lift():
        # at the Dirichlet lift: zero fields and the prescribed skeleton
        # values; built for each stage, so that no copy of it is alive
        # under the sparse factor
        return np.concatenate([np.zeros((nt, dofmap.k_int)),
                               -prescribed[dofmap.skeleton_cols], load],
                              axis=1)

    x_free, diag = _solve_spd(
        *_skeleton_system(dofmap, ops, cls, chunks, lift()), solver_tol)
    x = prescribed.copy()
    x[dofmap.free] = x_free
    u, sigma, eta_sq, galerkin = _recover(dofmap, kind, ops, cls, chunks,
                                          lift(), x)
    diag.update(skeleton_dofs=dofmap.num_free_skeleton, **galerkin,
                min_diameter=mesh.h_min,
                element_classes=len(store), element_chunks=len(chunks),
                classes_condensed=condensed)
    return Solution(mesh=mesh, trial=trial, num_dofs=dofmap.num_free,
                    skeleton_coeffs=x, u_coeffs=u, sigma_coeffs=sigma,
                    eta_local=np.sqrt(eta_sq),
                    eta=float(np.sqrt(eta_sq.sum())), diagnostics=diag)


@dataclass(frozen=True, eq=False)
class _CSC:
    """A square sparse matrix in scipy's canonical CSC format: the rows of
    each column sorted, no duplicates, data and indices of nnz entries.
    It has the attributes of scipy's csc_matrix that _factor and
    _solve_spd read, and no more: nnz is indptr[-1]."""
    data: np.ndarray        # (nnz,) float64
    indices: np.ndarray     # (nnz,) int32 row of each entry
    indptr: np.ndarray      # (n + 1,) int32 start of each column
    shape: tuple


def _column_counts(dofmap):
    """Entries of each column of the skeleton system, from the mesh's
    incidences alone, before any is gathered: the column of a free
    skeleton dof holds the distinct free dofs of the elements around its
    vertex or edge.  With f_T the free dofs of element T and s_E those of
    edge E and its two end vertices, a free vertex v holds the sum of f_T
    over its elements less the dofs counted twice: v once per element
    past the first, and each edge from v with its far vertex once.  A
    free vertex is interior, so its elements close a fan with as many
    edges from v as elements, and that is 1 - sum s_E over the edges
    from v.  An edge dof holds the sum of f_T over the edge's elements,
    less s_E if two share it.  Holds for every Mesh, whose edges have at
    most two elements; _skeleton_system checks it block by block.
    Returns one int64 per free skeleton dof, in the numbering of the
    solve."""
    mesh, p, free = dofmap.mesh, dofmap.trial.p, dofmap.free
    nv, ne = mesh.num_vertices, mesh.num_edges
    f = np.repeat((dofmap.free_cols >= 0).sum(axis=1), 3)
    ends = mesh.edges
    shared = p * ~mesh.boundary_edge + p + 1 + free[ends].sum(axis=1)
    vertex = (np.bincount(mesh.triangles.ravel(), f, nv) + 1
              - np.bincount(ends.ravel(), np.repeat(shared, 2), nv))
    sides = np.bincount(mesh.tri_edges.ravel(), minlength=ne)
    edge = np.bincount(mesh.tri_edges.ravel(), f, ne) - (sides - 1) * shared
    counts = np.concatenate([vertex, np.repeat(edge, p),
                             np.repeat(edge, p + 1)])
    return counts[free].astype(np.int64)


def _skeleton_system(dofmap, ops, cls, chunks, z):
    """The skeleton system (A, b) in the numbering of the solve
    (DofMap.free_cols), A = S_hat and b = r_hat on the free skeleton dofs.

    z holds every element's local vector at the Dirichlet lift.  Chunk by
    chunk, hybrid z[k:] is an element's skeleton right-hand side, summed
    into b before A is built.  The skeleton columns of hybrid are the
    element's clique of S_hat.  A's data and indices are allocated at
    nnz, whose columns _column_counts gives before any entry is gathered,
    and filled already summed, one block of whole columns at a time.
    The free local columns (e, j) are sorted stably by their solve column
    free_cols[e, j], as one int32 array of flat positions e (n - k) + j.
    A block recovers e and j by np.divmod and gathers, for each of its
    local columns, the free rows of hybrid[cls[e], :, j] in ascending
    order, into buffers of about _CHUNK_BYTES / 5.  Every column holds
    its entries element by element, in the order in which scipy's COO ->
    CSC counting sort leaves a COO of the cliques listed element by
    element.  The kernels of csc_matrix.sum_duplicates sort and sum each
    column of the block on its own as that conversion does, the sort
    skipped only if every column of A is sorted already, as
    csc_matrix.sum_duplicates skips it; a block with an unsorted column
    starts the blocks over with the sort.  So A is the COO route's bit
    for bit (test_skeleton_system_is_the_coo_route_bit_for_bit).  It
    sums and never prunes, so the exact zeros stay entries of A: pruning
    them, as a sum of per-chunk sparse matrices would, changes the
    minimum-degree order and raises the fill.  Raises RuntimeError,
    naming the block, if a block's summed columns differ from their
    counts.  The build peaks in a block, holding A, the sorted local
    columns (4 bytes each) and the block's buffers;
    test_skeleton_system_peak_memory_stays_near_its_matrix bounds that
    peak at 1.3 times the bytes of A.  With a broadcast zero load for a
    problem without a source, the memory live when _solve_spd starts
    stays below 1.3 times the bytes of A too
    (test_sparse_solve_starts_with_little_beside_its_matrix).
    """
    k, n, ns = dofmap.k_int, dofmap.n_local, dofmap.num_free_skeleton
    fcols, hybrid = dofmap.free_cols, ops["hybrid"]
    own = fcols >= 0
    cols = fcols[own]
    r_hat = np.empty(fcols.shape)
    for c in chunks:
        r_hat[c] = (hybrid[cls[c]] @ z[c, k:, None])[..., 0]
    b = np.bincount(cols, r_hat[own], minlength=ns)
    del r_hat
    # the free local columns (e, j) sorted stably by their solve column,
    # as flat positions e (n - k) + j; the prescribed ones, -1, come first
    pos = np.argsort(fcols, axis=None, kind="stable")[own.size - len(cols):]
    pos = pos.astype(np.int32)
    # solve column i takes the local columns pos[first[i]:first[i + 1]]
    first = np.concatenate([[0], np.cumsum(np.bincount(cols,
                                                       minlength=ns))])
    del cols
    # blocks of whole columns: a block takes the columns whose first
    # local column falls in one window of _CHUNK_BYTES / 128 (n - k).  A
    # local column's gather, its copy without the prescribed rows and
    # their indices take about 26 bytes per row of hybrid, so a block's
    # buffers stay near _CHUNK_BYTES / 5
    step = max(1, _CHUNK_BYTES // (128 * (n - k)))
    starts = np.flatnonzero(np.diff(first[:-1] // step, prepend=-1))
    blocks = list(zip(starts, np.append(starts[1:], ns)))
    per_element = own.sum(axis=1)
    # int32, the type of indices, as csc_matrix would cast it
    indptr = np.concatenate([[0], np.cumsum(_column_counts(dofmap))]).astype(
        fcols.dtype)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], fcols.dtype)
    columns = np.swapaxes(hybrid, 1, 2)

    def fill(sort):
        for lo, hi in blocks:
            e, col = np.divmod(pos[first[lo]:first[hi]], n - k)
            rows = own[e]
            block_indices = fcols[e][rows]
            ptr = np.concatenate([[0], np.cumsum(per_element[e])])[
                first[lo:hi + 1] - first[lo]].astype(indptr.dtype)
            # csc_matrix.sum_duplicates, kernel by kernel, on the block
            if not (sort or _sparsetools.csr_has_sorted_indices(
                    hi - lo, ptr, block_indices)):
                return False
            block_data = columns[cls[e], col, :n - k][rows]
            if sort:
                _sparsetools.csr_sort_indices(hi - lo, ptr, block_indices,
                                              block_data)
            _sparsetools.csr_sum_duplicates(hi - lo, ns, ptr, block_indices,
                                            block_data)
            if not np.array_equal(ptr, indptr[lo:hi + 1] - indptr[lo]):
                raise RuntimeError(
                    f"skeleton system: columns {lo} to {hi - 1} sum to "
                    f"{ptr[-1]} entries, {indptr[hi] - indptr[lo]} by "
                    "their counts")
            data[indptr[lo]:indptr[hi]] = block_data[:ptr[-1]]
            indices[indptr[lo]:indptr[hi]] = block_indices[:ptr[-1]]
        return True

    if not fill(sort=False):
        fill(sort=True)
    return _CSC(data, indices, indptr, (ns, ns)), b


def _whitened(dofmap, kind, w_v, w_tau, rows):
    """w of the classes rows, rebuilt whole from its stored blocks w_v
    and w_tau (_condense_classes) in a zeroed, C-ordered buffer.  The
    blocks left out are exact zeros of the condensation, which may hold
    -0.0 where this holds +0.0.  A signed zero moves a sum only when all
    its terms are zero, and _recover's results read w's products only
    squared or by their magnitude."""
    n_t, k = dofmap.n_t, dofmap.k_int
    s, b = _w_blocks(dofmap, kind)
    w = np.zeros((len(rows), 3 * n_t, dofmap.n_local + n_t))
    w[:, :n_t, s:k] = w_v[rows, :, :k - s]
    w[:, :n_t, b:] = w_v[rows, :, k - s:]
    w[:, n_t:, :b] = w_tau[rows]
    return w


def _recover(dofmap, kind, ops, cls, chunks, z, x):
    """Fields, squared local estimator and Galerkin check of a solve with
    the skeleton dofs x; returns (u_coeffs, sigma_coeffs, eta^2 per
    element, {"galerkin_residual": ..., "load_scale": ...}).

    Chunk by chunk, with the skeleton solution in z, the fields x_I =
    inner z[k:] complete it, and w z = L^{-1} (F - B x), with w rebuilt
    by _whitened, gives the local estimator |w z|.  Taken at the
    Dirichlet lift as well, W_B' w z gives the condensed load of the free
    trial dofs, the scale of the Galerkin check: B' G^{-1} (F - B x) =
    W_B' w z vanishes on the free trial dofs up to solver accuracy.  An
    interior dof belongs to one element, and
    the skeleton dofs sum in the numbering of the solve; np.max keeps a
    NaN of either part.
    """
    nt, k, n, n_u = len(z), dofmap.k_int, dofmap.n_local, dofmap.n_u
    fcols = dofmap.free_cols
    own = fcols >= 0
    u, sigma = np.empty((nt, n_u)), np.empty((nt, k - n_u))
    eta_sq, bt_both = np.empty(nt), np.empty((nt, n, 2))
    for c in chunks:
        both = np.stack([z[c], z[c]], axis=-1)   # at the solution, the lift
        both[:, k:n, 0] = -x[dofmap.skeleton_cols[c]]
        interior = (ops["inner"][cls[c]] @ both[:, k:, :1])[..., 0]
        u[c], sigma[c] = interior[:, :n_u], interior[:, n_u:]
        both[:, :k, 0] = -interior
        w = _whitened(dofmap, kind, ops["w_v"], ops["w_tau"], cls[c])
        res = w @ both
        eta_sq[c] = np.einsum("em,em->e", res[..., 0], res[..., 0])
        bt_both[c] = np.swapaxes(w[:, :, :n], 1, 2) @ res
    galerkin, cols = {}, fcols[own]
    for i, name in enumerate(("galerkin_residual", "load_scale")):
        sums = np.bincount(cols, bt_both[:, k:, i][own],
                           minlength=dofmap.num_free_skeleton)
        galerkin[name] = float(np.max([np.abs(bt_both[:, :k, i]).max(),
                                       np.abs(sums).max()]))
    return u, sigma.reshape(nt, 2, dofmap.n_s), eta_sq, galerkin


# fill-reducing ordering of the symmetric graph, recorded in diagnostics
_ORDERING = "MMD_AT_PLUS_A"
# SuperLU's supernode setting, recorded in diagnostics too: relaxed
# supernodes of at most _RELAX columns, panels of _PANEL_SIZE columns.
# The default relaxation merges small subtrees of the elimination tree
# into supernodes whose columns differ in structure and stores the
# difference as explicit zeros: on the p=1 uniform L-shape system of
# 30,721 skeleton dofs nnz(L+U) is 2.62M with SuperLU's defaults and
# 2.13M with this pair.  A larger pair (relax = panel_size = 40) crashed
# at process exit, which the CI step "Largest routine skeleton
# factorization in a fresh process" would show
_RELAX = 1
_PANEL_SIZE = 4


def _factor(A):
    """SuperLU's factor of A, a square matrix in canonical CSC format
    (A.data, A.indices, A.indptr and A.shape are read), by gstrf in
    symmetric mode: the ordering _ORDERING of the graph of A + A',
    applied to rows and columns alike, diagonal pivots, and supernodes of
    _RELAX and _PANEL_SIZE.  It is the call that scipy.sparse.linalg.splu
    makes with these options, so the factor is splu's bit for bit.  The
    factor's L and U are never made: no solve reads them, so gstrf gets
    no constructor for them (splu passes scipy.sparse's csc_array).
    Raises RuntimeError on a singular A."""
    return _superlu.gstrf(
        A.shape[1], int(A.indptr[-1]), A.data, A.indices, A.indptr,
        csc_construct_func=None, ilu=False,
        options={"DiagPivotThresh": 0.0, "ColPerm": _ORDERING,
                 "PanelSize": _PANEL_SIZE, "Relax": _RELAX,
                 "SymmetricMode": True})


def _solve_spd(A, b, tol):
    """Direct sparse solve: one factorization, one solve, one residual
    check.

    A is a symmetric positive definite matrix in canonical CSC format, of
    which A.data, A.indices, A.indptr and A.shape are read, so a scipy
    csc_matrix does as well as _skeleton_system's _CSC.  _factor runs
    SuperLU in symmetric mode, with diagonal pivots: without row
    pivoting the residual check is what catches a bad factorization.
    No iterative refinement follows: in working precision it repairs
    only an unstable elimination, and this one is backward stable
    (test_direct_solve_needs_no_refinement: p = 0..3 pass the default
    tolerance after the one solve).  The diagonal and the product A x
    are scipy's csr_diagonal and csc_matvec kernels, as csc_matrix calls
    them.  The diagnostics record the ordering and the supernode pair
    next to the method, the residual and nnz of A and of its factor.

    Raises SolverError on a non-finite or non-positive diagonal entry, a
    singular factor, or a relative residual that misses tol (a non-finite
    one included).
    """
    n, nnz = A.shape[0], int(A.indptr[-1])
    bnorm = float(np.linalg.norm(b))
    diagonal = np.empty(n)
    _sparsetools.csr_diagonal(0, n, n, A.indptr, A.indices, A.data,
                              diagonal)
    if not (np.isfinite(diagonal) & (diagonal > 0.0)).all():
        # an SPD matrix has a finite positive diagonal; refuse before any
        # factorization divides by such an entry
        raise SolverError("linear solver failed: the matrix has a "
                          "non-finite or non-positive diagonal entry, so it "
                          "is not SPD", residual=np.inf)
    del diagonal        # no copy of A's diagonal under the factor
    try:
        lu = _factor(A)
    except RuntimeError as exc:
        raise SolverError(f"linear solver failed: {exc}",
                          residual=np.inf) from exc
    x = lu.solve(b)
    ax = np.zeros(n)
    _sparsetools.csc_matvec(n, n, A.indptr, A.indices, A.data, x, ax)
    # b = 0 (zero source and Dirichlet data) divides by 1: x = 0 then
    # passes, and a non-finite x still fails
    rel = float(np.linalg.norm(b - ax)) / (bnorm or 1.0)
    if not rel <= tol:
        raise SolverError(f"linear solver failed: residual {rel:.3e} "
                          f"(target {tol:.1e})", residual=rel)
    return x, {"method": "direct", "rel_residual": rel,
               "ordering": _ORDERING, "relax": _RELAX,
               "panel_size": _PANEL_SIZE, "nnz_A": nnz,
               "nnz_factor": int(lu.nnz)}
