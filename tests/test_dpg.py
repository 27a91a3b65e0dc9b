"""Assembly, condensation, solve, and estimator tests."""

import numpy as np
import pytest

from dpglab.dpg import (POISSON, REACTION_DIFFUSION, DofMap, TrialSpace,
                        _local_systems, assemble_solve, condense)
from dpglab.mesh import Mesh, lshape_mesh, refine_uniform, unit_square_mesh
from dpglab.problems import ManufacturedProblem, error_report, square_smooth
from dpglab.spaces import ScalarBasis, project_l2


def constant_test_vector(p, delta_p=2):
    """Coefficients representing the test pair (v, tau) = (1, 0)."""
    n_t = ScalarBasis(p + delta_p).dim
    vec = np.zeros(3 * n_t)
    vec[0] = 1.0 / np.sqrt(2.0)      # constant 1 in the orthonormal basis
    return vec, n_t


def test_local_gram_constant_tests():
    mesh = unit_square_mesh(2)
    area = 0.5 * mesh.geometry()[1][0]
    for p in (0, 1):
        G = _local_systems(DofMap(mesh, TrialSpace(p)), REACTION_DIFFUSION,
                           [0])[0][0]
        cv, n_t = constant_test_vector(p)
        # (v, tau) = (1, 0): norm^2 is the element area
        assert cv @ G @ cv == pytest.approx(area, rel=1e-12)
        # (v, tau) = (0, (1, 0)): the div term vanishes, norm^2 = area
        ct = np.zeros(3 * n_t)
        ct[n_t] = 1.0 / np.sqrt(2.0)
        assert ct @ G @ ct == pytest.approx(area, rel=1e-12)


def test_local_gram_spd_on_random_triangles():
    rng = np.random.default_rng(11)
    for k in range(5):
        v = rng.uniform(-1, 1, size=(3, 2))
        d1, d2 = v[1] - v[0], v[2] - v[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0:
            v[[1, 2]] = v[[2, 1]]
        mesh = Mesh(v, np.array([[0, 1, 2]]), np.array([0]))
        G = _local_systems(DofMap(mesh, TrialSpace(k % 3)),
                           REACTION_DIFFUSION, [0])[0][0]
        assert np.abs(G - G.T).max() < 1e-12 * np.abs(G).max()
        assert np.linalg.eigvalsh(G).min() > 0


def test_local_b_constant_pairings():
    mesh = unit_square_mesh(2)
    area = 0.5 * mesh.geometry()[1][0]
    trial = TrialSpace(0)
    cv, n_t = constant_test_vector(0)
    cu = np.zeros(DofMap(mesh, trial).n_local)
    cu[0] = 1.0 / np.sqrt(2.0)   # u = 1 (coefficients sit on the reference basis)
    b_rd = _local_systems(DofMap(mesh, trial), REACTION_DIFFUSION, [0])[1][0]
    assert cv @ b_rd @ cu == pytest.approx(area, rel=1e-12)   # (1, 0 + 1)_T
    b_po = _local_systems(DofMap(mesh, trial), POISSON, [0])[1][0]
    assert cv @ b_po @ cu == pytest.approx(0.0, abs=1e-14)    # no (u, v) term


def exact_affine_local_coeffs(mesh, trial):
    """Element coefficients (nt, n_local) of u* = x + y, sigma* = (1, 1),
    with traces."""
    p, nt = trial.p, mesh.num_triangles
    cu = project_l2(trial.u_degree, lambda x, y: x + y, mesh)
    cs = project_l2(p, lambda x, y: np.ones_like(x), mesh)
    uhat = mesh.vertices[mesh.triangles].sum(axis=2)
    bubbles = np.zeros((nt, 3 * p))
    ends = mesh.vertices[mesh.edges[mesh.tri_edges]]    # (nt, 3, 2, 2)
    d = ends[:, :, 1] - ends[:, :, 0]
    d = d / np.hypot(d[..., 0], d[..., 1])[..., None]
    flux = np.zeros((nt, 3, p + 1))
    flux[:, :, 0] = d[..., 1] - d[..., 0]   # (1,1) . n_edge with n = (dy, -dx)
    return np.concatenate([cu, cs, cs, uhat, bubbles, flux.reshape(nt, -1)],
                          axis=1)


def relabelled(mesh, seed=0):
    """The mesh with its vertex labels and triangle order permuted at
    random: the same elements, with other edge orientations."""
    rng = np.random.default_rng(seed)
    new_label = rng.permutation(mesh.num_vertices)
    order = rng.permutation(mesh.num_triangles)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_label] = mesh.vertices
    return Mesh(vertices, new_label[mesh.triangles[order]],
                mesh.refinement_edges[order])


@pytest.mark.parametrize("p,augmented",
                         [(0, True), (1, False), (2, False), (3, False)])
def test_local_b_exact_solution_columns(p, augmented):
    # for the affine Poisson solution with consistent traces and f = 0,
    # b_T(u*, v) vanishes for every enriched test function.  On the plain
    # mesh local edge 0 is never flipped and local edge 1 always is; the
    # relabelled copy brings in the other two (local edge, flip) tables
    mesh = refine_uniform(lshape_mesh())
    trial = TrialSpace(p, augmented=augmented)
    seen = set()
    for m in (mesh, relabelled(mesh)):
        # local edge k runs from local vertex k+1 to k+2; it is flipped
        # when that is from the higher- to the lower-numbered vertex
        tri = m.triangles
        flips = tri[:, [1, 2, 0]] > tri[:, [2, 0, 1]]
        seen.update((le, bool(fl)) for row in flips for le, fl in enumerate(row))
        _, B = _local_systems(DofMap(m, trial), POISSON,
                              np.arange(m.num_triangles))
        coeffs = exact_affine_local_coeffs(m, trial)
        assert np.abs(np.einsum("eij,ej->ei", B, coeffs)).max() < 1e-12
    assert seen == {(le, fl) for le in range(3) for fl in (False, True)}


def gauss_01(n):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def edge_legendre(count, t):
    """sqrt(2j+1) P_j(2t-1), j < count: the orthonormal Legendre
    polynomials of [0, 1], shape (count, len(t))."""
    rows = [np.sqrt(2 * j + 1) * np.polynomial.legendre.legval(
        2 * t - 1, np.eye(count)[j]) for j in range(count)]
    return np.array(rows).reshape(count, t.size)


def physical_local_systems(X, labels, trial, kind):
    """G and B of the counterclockwise triangle with vertices X (3, 2) and
    global vertex numbers labels, by quadrature on the physical triangle.

    Basis functions are the reference basis at the reference images
    J^{-1} (x - X0) of physical points, gradients J^{-T} times reference
    gradients.  Edge terms run along each edge from its lower- to its
    higher-numbered vertex, with the outward unit normal, which points
    away from the opposite vertex; a flux mode is the normal flux along
    (dy, -dx)/|d|, d the edge vector in that orientation."""
    p, r = trial.p, trial.p + 2
    jac = np.column_stack([X[1] - X[0], X[2] - X[0]])
    jinv = np.linalg.inv(jac)

    def basis(degree, x):       # values (dim, nq), gradients (dim, nq, 2)
        ref = (x - X[0]) @ jinv.T
        b = ScalarBasis(degree)
        return b.values(ref), b.gradients(ref) @ jinv

    # collapsed Gauss rule on the physical triangle, exact past degree 2r+1
    s, ws = gauss_01(r + 3)
    ss, tt = np.meshgrid(s, s, indexing="ij")
    x = (X[0] + ss.ravel()[:, None] * (X[1] - X[0])
         + (tt * (1 - ss)).ravel()[:, None] * (X[2] - X[0]))
    w = abs(np.linalg.det(jac)) * np.outer(ws * (1 - s), ws).ravel()

    V, DV = basis(r, x)
    U = basis(trial.u_degree, x)[0]
    S = basis(p, x)[0]
    n_t, n_u, n_s = V.shape[0], U.shape[0], S.shape[0]

    def ip(a, b):
        return (a * w) @ b.T

    mass = ip(V, V)
    G = np.zeros((3 * n_t, 3 * n_t))
    rows = [slice(0, n_t), slice(n_t, 2 * n_t), slice(2 * n_t, 3 * n_t)]
    G[rows[0], rows[0]] = mass + ip(DV[..., 0], DV[..., 0]) \
        + ip(DV[..., 1], DV[..., 1])
    for c in range(2):
        for d in range(2):
            G[rows[1 + c], rows[1 + d]] = ip(DV[..., c], DV[..., d]) \
                + (mass if c == d else 0.0)

    vert = n_u + 2 * n_s
    bub, flux = vert + 3, vert + 3 + 3 * p
    B = np.zeros((3 * n_t, flux + 3 * (p + 1)))
    sig = [slice(n_u, n_u + n_s), slice(n_u + n_s, vert)]
    if kind == REACTION_DIFFUSION:
        B[rows[0], :n_u] = ip(V, U)                     # (u, v)
    for c in range(2):
        B[rows[1 + c], :n_u] = ip(DV[..., c], U)        # (u, div tau)
        B[rows[1 + c], sig[c]] = ip(V, S)               # (sigma, tau)
        B[rows[0], sig[c]] = ip(DV[..., c], S)          # (sigma, grad v)

    t, wt = gauss_01(r + 3)
    for le in range(3):
        ends = [(le + 1) % 3, (le + 2) % 3]
        lo, hi = sorted(ends, key=lambda k: labels[k])
        d = X[hi] - X[lo]
        length = np.hypot(*d)
        normal = np.array([d[1], -d[0]]) / length      # the flux direction
        outward = normal if normal @ (X[le] - X[lo]) < 0 else -normal
        Ve = basis(r, X[lo] + t[:, None] * d)[0]
        ds = length * wt
        trace = np.vstack([1 - t, t, t * (1 - t) * edge_legendre(p, t)])
        cols = [vert + lo, vert + hi] + [bub + le * p + j for j in range(p)]
        for c in range(2):                              # -<uhat, tau.n>
            B[rows[1 + c], cols] -= outward[c] * (Ve * ds) @ trace.T
        B[rows[0], flux + le * (p + 1):flux + (le + 1) * (p + 1)] -= (
            (outward @ normal) * (Ve * ds) @ edge_legendre(p + 1, t).T)
    return G, B


@pytest.mark.parametrize("kind", [REACTION_DIFFUSION, POISSON])
@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_local_systems_match_physical_space_quadrature(p, augmented, kind):
    # random, well-shaped triangles whose global vertex numbers run
    # through all six orders, so every local edge is seen both ways
    rng = np.random.default_rng(100 + p)
    orders = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    shapes, vertices, triangles = [], np.empty((18, 2)), []
    while len(shapes) < 6:
        X = rng.uniform(-1, 1, size=(3, 2))
        area2 = np.linalg.det(np.column_stack([X[1] - X[0], X[2] - X[0]]))
        sides = [np.hypot(*(X[(k + 1) % 3] - X[k])) for k in range(3)]
        if area2 > 0.2 * max(sides) ** 2:       # counterclockwise, not thin
            shapes.append(X * 10 ** rng.uniform(-1.5, 0.5))
    for k, (X, order) in enumerate(zip(shapes, orders)):
        labels = 3 * k + np.array(order)
        vertices[labels] = X
        triangles.append(labels)
    mesh = Mesh(vertices, triangles, np.zeros(6, dtype=int))
    assert np.array_equal(mesh.triangles, triangles)
    assert {(le, bool(f)) for row in mesh.edge_flips
            for le, f in enumerate(row)} == {(le, f) for le in range(3)
                                             for f in (False, True)}

    trial = TrialSpace(p, augmented=augmented)
    G, B = _local_systems(DofMap(mesh, trial), kind,
                          np.arange(mesh.num_triangles))
    for e, (X, labels) in enumerate(zip(shapes, triangles)):
        G_o, B_o = physical_local_systems(X, labels, trial, kind)
        for got, want in ((G[e], G_o), (B[e], B_o)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


def test_local_load_cases():
    mesh = unit_square_mesh(2)
    area = 0.5 * mesh.geometry()[1][0]
    trial = TrialSpace(0)
    F0 = element_loads(mesh, trial, lambda x, y: np.zeros_like(x))[0]
    assert np.allclose(F0, 0.0)
    cv, n_t = constant_test_vector(0)
    F1 = element_loads(mesh, trial, lambda x, y: np.ones_like(x))[0]
    assert cv @ F1 == pytest.approx(area, rel=1e-12)
    assert np.allclose(F1[n_t:], 0.0)    # tau block empty
    # f = x against v = 1 on the reference triangle
    ref = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               np.array([[0, 1, 2]]), np.array([0]))
    Fx = element_loads(ref, trial, lambda x, y: x)[0]
    cv, _ = constant_test_vector(0)
    assert cv @ Fx == pytest.approx(1 / 6, rel=1e-12)


def element_loads(mesh, trial, source):
    """Loads F_T (nt, m) of every element: the moments (f, v_i)_T = det J
    times the L2 projection of f in the scalar test rows, zero tau rows;
    source None is f = 0."""
    from dpglab.dpg import DELTA_P, default_exactness

    p = trial.p
    f = (lambda x, y: 0.0) if source is None else source
    moments = mesh.geometry()[1][:, None] * project_l2(
        p + DELTA_P, f, mesh, default_exactness(p))
    F = np.zeros((mesh.num_triangles, 3 * moments.shape[1]))
    F[:, :moments.shape[1]] = moments
    return F


def condense_oracle(gram, coupling):
    """(C' G^{-1} C, G^{-1} C) by a general dense solve, sharing no code
    with condense()."""
    solved = np.linalg.solve(gram, coupling)
    return np.swapaxes(coupling, -1, -2) @ solved, solved


def condense_load(gram, coupling, load):
    """The oracle with a 1-D load per element as the last coupling
    column, split into (S, r, G^{-1} B, G^{-1} F)."""
    n = coupling.shape[-1]
    schur, solved = condense_oracle(
        gram, np.concatenate([coupling, load[..., None]], axis=-1))
    return (schur[..., :n, :n], schur[..., :n, n], solved[..., :n],
            solved[..., n])


def assert_close13(got, want):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def assert_condense_contract(gram, coupling):
    """condense(G, C) = (S, W, L) with L lower triangular, LL' = G, LW = C
    and S = W'W = C' G^{-1} C, the last against the dense-solve oracle."""
    S, W, L = condense(gram, coupling)
    assert np.array_equal(np.tril(L), L)
    assert_close13(L @ np.swapaxes(L, -1, -2), gram)
    assert_close13(L @ W, coupling)
    want = condense_oracle(gram, coupling)[0]
    assert_close13(np.swapaxes(W, -1, -2) @ W, want)
    assert_close13(S, want)
    return S, W, L


def test_condense_hand_example():
    G = np.diag([4.0, 1.0])
    B = np.array([[2.0], [0.0]])
    F = np.array([[2.0], [0.0]])
    S, W, L = assert_condense_contract(G, np.hstack([B, F]))
    assert L == pytest.approx(np.diag([2.0, 1.0]))
    assert W == pytest.approx(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert S == pytest.approx(np.array([[1.0, 1.0], [1.0, 1.0]]))
    S2 = condense(G, np.hstack([B, np.zeros((2, 1))]))[0]
    assert S2[0, 1] == pytest.approx(0.0)


def test_condense_symmetry_and_nullspace():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8))
    G = A @ A.T + 8 * np.eye(8)
    B = rng.standard_normal((8, 5))
    S = assert_condense_contract(
        G, np.column_stack([B, rng.standard_normal(8)]))[0][:5, :5]
    assert np.abs(S - S.T).max() < 1e-13 * np.abs(S).max()
    assert np.linalg.eigvalsh(S).min() > -1e-12
    assert np.allclose(S @ np.zeros(5), 0.0)
    # a stack of elements condenses like a loop over its members
    A = rng.standard_normal((4, 8, 8))
    Gs = A @ A.transpose(0, 2, 1) + 8 * np.eye(8)
    Bs = rng.standard_normal((4, 8, 5))
    Cs = np.concatenate([Bs, rng.standard_normal((4, 8, 1))], axis=2)
    S_all, W_all, L_all = assert_condense_contract(Gs, Cs)
    # without load columns S is the same block
    assert_close13(condense(Gs, Bs)[0], S_all[:, :5, :5])
    for k in range(4):
        S_k, W_k, L_k = condense(Gs[k], Cs[k])
        assert_close13(S_all[k], S_k)
        assert_close13(S_all[k, :5, 5], S_k[:5, 5])     # r = B' G^{-1} F
        assert_close13(W_all[k], W_k)
        assert_close13(L_all[k], L_k)
    # several load columns condense column by column
    Fm = rng.standard_normal((4, 8, 3))
    many_S, many_W, _ = assert_condense_contract(
        Gs, np.concatenate([Bs, Fm], axis=2))
    for j in range(3):
        S_j, W_j, _ = condense(Gs, np.concatenate([Bs, Fm[:, :, j:j + 1]],
                                                  axis=2))
        assert_close13(many_S[:, :5, 5 + j], S_j[:, :5, 5])
        assert_close13(many_W[:, :, 5 + j], W_j[:, :, 5])
        assert_close13(many_S[:, :5, :5], S_j[:, :5, :5])
    # an element Gram whose Cholesky factor has sub-diagonal entries up to
    # twice its diagonal, so the LU that whitens with it swaps rows
    h = 1e-5
    tiny = Mesh(np.array([[0.0, 0.0], [h, 0.0], [0.0, h]]),
                np.array([[0, 1, 2]]), np.array([0]))
    G1, B1 = _local_systems(DofMap(tiny, TrialSpace(3)), REACTION_DIFFUSION,
                            [0])
    L1 = np.linalg.cholesky(G1[0])
    assert (np.abs(np.tril(L1, -1)) > 2 * np.diag(L1)).any()
    C1 = np.concatenate([B1, np.eye(G1.shape[1], 3)[None]], axis=2)
    S_one = assert_condense_contract(G1, C1)[0]
    assert_close13(assert_condense_contract(G1[0], C1[0])[0], S_one[0])


def test_condense_rejects_indefinite_gram():
    G = np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError):
        condense(G, np.eye(2))
    # one indefinite Gram in a stack of SPD ones
    Gs = np.repeat(np.eye(2)[None], 3, axis=0)
    Gs[1] = G
    with pytest.raises(np.linalg.LinAlgError):
        condense(Gs, np.repeat(np.eye(2)[None], 3, axis=0))


@pytest.mark.filterwarnings("error")
def test_tiny_element_gram_failure_is_a_solver_error():
    # cond G grows like h^-2, and at diameter 1e-7 the Cholesky
    # factorization of the Gram fails in double precision: a solver
    # failure that names the diameter, not a bare LinAlgError
    from dpglab.dpg import SolverError

    h = 1e-7
    tiny = Mesh(np.array([[0.0, 0.0], [h, 0.0], [h / 2, h / 2]]),
                np.array([[0, 1, 2]]), np.array([0]))
    assert tiny.diameters()[0] == h
    with pytest.raises(SolverError, match=r"diameter.*1\.000e-07"):
        assemble_solve(tiny, TrialSpace(2), REACTION_DIFFUSION,
                       lambda x, y: 1.0)


def test_mesh_without_triangles_is_refused():
    empty = Mesh(np.zeros((3, 2)), np.zeros((0, 3), int), [])
    with pytest.raises(ValueError, match="no triangles"):
        assemble_solve(empty, TrialSpace(1), REACTION_DIFFUSION, None)


def test_vertex_outside_every_triangle_is_refused():
    # its uhat dof has no equation; refused before any data is evaluated
    def never(x, y):
        raise AssertionError("data evaluated")

    square = unit_square_mesh(2)
    orphan = Mesh(np.vstack([square.vertices, [[5.0, 5.0]]]),
                  square.triangles, square.refinement_edges)
    with pytest.raises(ValueError, match="^vertex 9 belongs to no "
                                         "triangle$"):
        assemble_solve(orphan, TrialSpace(1), square_smooth().kind, never,
                       never)



@pytest.mark.parametrize("tol", [2.0, float("nan"), 0.0, -1.0])
def test_solver_tolerance_outside_unit_interval_is_refused(tol):
    # refused before any assembly: the source is never evaluated
    def source(x, y):
        raise AssertionError("assembly started")

    with pytest.raises(ValueError, match="solver_tol must lie in"):
        assemble_solve(unit_square_mesh(2), TrialSpace(1), REACTION_DIFFUSION,
                       source, solver_tol=tol)


def test_order_past_the_assembly_quadrature_is_refused_before_any_work():
    # p = 8 needs exactness 2(p+3) = 22 > 20: refused with the other input
    # checks, naming p, before the Dirichlet data or the source is read.
    # p = 7 passes the check and reaches the Dirichlet data
    calls = []

    class Reached(Exception):
        pass

    def source(x, y):
        calls.append("source")
        return np.zeros_like(x)

    def dirichlet(x, y):
        calls.append("dirichlet")
        raise Reached

    mesh = unit_square_mesh(1)
    with pytest.raises(ValueError, match=r"^trial order p = 8: assembly "
                                         r"quadrature exactness 22 exceeds "
                                         r"20$"):
        assemble_solve(mesh, TrialSpace(8), POISSON, source,
                       dirichlet=dirichlet)
    assert calls == []
    with pytest.raises(Reached):
        assemble_solve(mesh, TrialSpace(7), POISSON, source,
                       dirichlet=dirichlet)
    assert calls == ["dirichlet"]


def test_trial_space_order_is_a_nonnegative_integer():
    for p in (1.5, True, "1", -1, np.float64(2.0)):
        with pytest.raises(ValueError, match="integer >= 0"):
            TrialSpace(p)
    # numpy integers, as StudyConfig may hold them, pass
    assert TrialSpace(np.int64(2)).u_degree == 2
    assert TrialSpace(np.int32(1), augmented=True).u_degree == 2
    # the augmented flag is a bool: a truthy string must not select the
    # augmented space
    for flag in ("no", 1, 0, None, np.int64(1)):
        with pytest.raises(ValueError, match="augmented must be a bool"):
            TrialSpace(1, augmented=flag)
    assert TrialSpace(1, augmented=np.bool_(True)).u_degree == 2
    assert TrialSpace(1, augmented=np.bool_(False)).u_degree == 1


# every array a Solution holds: the skeleton dofs, the fields and eta(T)
SOLUTION_ARRAYS = ("skeleton_coeffs", "u_coeffs", "sigma_coeffs", "eta_local")


def test_scalar_source_equals_array_source_bitwise():
    mesh = refine_uniform(lshape_mesh())
    for kind in (REACTION_DIFFUSION, POISSON):
        scalar = assemble_solve(mesh, TrialSpace(1), kind,
                                lambda x, y: 2.5, dirichlet=lambda x, y: x)
        array = assemble_solve(mesh, TrialSpace(1), kind,
                               lambda x, y: np.full_like(x, 2.5),
                               dirichlet=lambda x, y: x)
        for name in SOLUTION_ARRAYS:
            assert np.array_equal(getattr(scalar, name), getattr(array, name))


def test_zero_problem_gives_zero_solution():
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(0), REACTION_DIFFUSION, None)
    for name in SOLUTION_ARRAYS:
        assert np.abs(getattr(sol, name)).max() == 0.0
    assert sol.eta == 0.0
    # zero data is solved like any other: factored, with its report
    for key in ("ordering", "nnz_A", "nnz_factor"):
        assert key in sol.diagnostics


@pytest.mark.filterwarnings("error")
def test_non_finite_data_fails_loudly():
    # rejected before any contraction: no RuntimeWarning on the way
    import scipy.sparse as sp
    from dpglab.dpg import SolverError, _solve_spd

    mesh = unit_square_mesh(2)
    sources = [lambda x, y: np.full_like(x, np.nan),
               lambda x, y: np.where(x < 0.2, np.inf, 1.0)]
    for source in sources:
        with pytest.raises(ValueError, match="non-finite"):
            assemble_solve(mesh, TrialSpace(0), REACTION_DIFFUSION, source)
    with pytest.raises(ValueError, match="non-finite"):
        assemble_solve(mesh, TrialSpace(1), POISSON, None,
                       dirichlet=lambda x, y: np.where(y > 0.9, np.nan, x))
    # a NaN residual is a solver failure, not a converged solve
    with pytest.raises(SolverError):
        _solve_spd(sp.identity(3, format="csc"), np.array([1.0, np.nan, 0.0]),
                   1e-10)


def test_singular_factor_is_a_solver_failure():
    # a positive diagonal passes the SPD screen, and SuperLU's own refusal
    # of the exactly singular factor becomes a SolverError
    import scipy.sparse as sp
    from dpglab.dpg import SolverError, _solve_spd

    with pytest.raises(SolverError, match=r"^linear solver failed: Factor "
                                          r"is exactly singular$") as info:
        _solve_spd(sp.csc_matrix(np.ones((2, 2))), np.ones(2), 1e-10)
    assert info.value.residual == np.inf


@pytest.mark.parametrize("p,data", [
    (0, lambda x, y: np.ones(1)),
    (1, lambda x, y: np.ones(1)),
    (1, lambda x, y: np.ravel(x)),     # right at vertices, flat on edges
], ids=["p0-one", "p1-one", "p1-flat"])
def test_dirichlet_data_of_wrong_shape_is_refused(p, data):
    # np.ones(1) would broadcast over every boundary point; a scalar is the
    # one broadcast allowed
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError, match="Dirichlet data returned shape"):
        assemble_solve(mesh, TrialSpace(p), POISSON, None, dirichlet=data)
    scalar = assemble_solve(mesh, TrialSpace(p), POISSON, None,
                            dirichlet=lambda x, y: 2.0)
    array = assemble_solve(mesh, TrialSpace(p), POISSON, None,
                           dirichlet=lambda x, y: np.full_like(x, 2.0))
    for name in SOLUTION_ARRAYS[:3]:
        assert np.array_equal(getattr(scalar, name), getattr(array, name))


def affine_poisson_problem():
    def exact(x, y):
        return x + y

    return ManufacturedProblem(
        kind=POISSON, exact=exact,
        exact_grad=lambda x, y: (np.ones_like(x), np.ones_like(y)),
        source=lambda x, y: np.zeros_like(x),
        initial_mesh=lambda: unit_square_mesh(1))


@pytest.mark.parametrize("trial", [TrialSpace(0, augmented=True),
                                   TrialSpace(1), TrialSpace(1, augmented=True)])
def test_polynomial_exactness_affine_poisson(trial, recwarn):
    # the affine solution lies in the discrete space, so the minimal
    # residual is zero and all error quantities vanish
    problem = affine_poisson_problem()
    for mesh in (unit_square_mesh(2), refine_uniform(lshape_mesh())):
        sol = assemble_solve(mesh, trial, POISSON, problem.source,
                             dirichlet=problem.dirichlet)
        rep = error_report(sol, None, problem)
        assert rep.err_u < 1e-8
        assert rep.err_sigma < 1e-8
        assert sol.eta < 1e-8
        # boundary trace dofs carry the prescribed data
        for v in np.flatnonzero(mesh.boundary_vertex):
            x, y = mesh.vertices[v]
            assert sol.skeleton_coeffs[v] == pytest.approx(x + y)


def test_galerkin_orthogonality_on_solves():
    smooth = square_smooth()
    from dpglab.problems import lshape_singular
    singular = lshape_singular()
    cases = [
        (unit_square_mesh(2), TrialSpace(0), smooth),
        (refine_uniform(unit_square_mesh(1)), TrialSpace(1, True), smooth),
        (refine_uniform(lshape_mesh()), TrialSpace(1), singular),
    ]
    for mesh, trial, problem in cases:
        sol = assemble_solve(mesh, trial, problem.kind, problem.source,
                             dirichlet=problem.dirichlet)
        scale = max(sol.diagnostics["load_scale"], 1e-30)
        assert sol.diagnostics["galerkin_residual"] <= 1e-8 * scale


def trial_numbering(dm, dirichlet=None):
    """A global numbering of every trial dof, for the dense oracles that
    assemble the fields too: the fields of each element, k_int at a time,
    then the skeleton of dm.  Returns the local columns (nt, n_local), the
    free mask and the Dirichlet lift, the prescribed skeleton values
    after zero fields (all zero without data)."""
    from dpglab.dpg import _dirichlet_values

    nt, k = dm.mesh.num_triangles, dm.k_int
    cols = np.concatenate([np.arange(nt * k).reshape(nt, k),
                           nt * k + dm.skeleton_cols], axis=1)
    free = np.concatenate([np.ones(nt * k, dtype=bool), dm.free])
    lift = np.zeros(free.size)
    if dirichlet is not None:
        lift[nt * k:] = _dirichlet_values(dm, dirichlet)
    return cols, free, lift


def all_coeffs(sol):
    """Every trial dof of a solution in the numbering of trial_numbering."""
    nt = sol.mesh.num_triangles
    fields = np.concatenate([sol.u_coeffs, sol.sigma_coeffs.reshape(nt, -1)],
                            axis=1)
    return np.concatenate([fields.ravel(), sol.skeleton_coeffs])


@pytest.mark.parametrize("p", [0, 1, 2])
def test_condensed_solve_matches_monolithic_saddle_point(p, monkeypatch):
    # oracle: the uncondensed mixed system
    #   [[G, B_free], [B_free', 0]] [eps; x_free] = [F - B_D x_D; 0]
    # assembled and solved densely in a numbering of its own; it shares
    # only the local matrices, the skeleton numbering and the Dirichlet
    # values with assemble_solve
    import dpglab.dpg as dpg
    from dpglab.problems import lshape_singular

    if p == 0:
        mesh, problem = unit_square_mesh(2), square_smooth()
    else:   # inhomogeneous Dirichlet data
        mesh, problem = refine_uniform(lshape_mesh()), lshape_singular()
    trial = TrialSpace(p)
    dm = DofMap(mesh, trial)
    G, B = _local_systems(dm, problem.kind, np.arange(mesh.num_triangles))
    F = element_loads(mesh, trial, problem.source)
    cols, free, x_d = trial_numbering(dm, problem.dirichlet)
    nt, m, _ = B.shape
    G_glob = np.zeros((nt * m, nt * m))
    B_glob = np.zeros((nt * m, free.size))
    for t in range(nt):
        rows = slice(t * m, (t + 1) * m)
        G_glob[rows, rows] = G[t]
        B_glob[rows, cols[t]] = B[t]
    B_free = B_glob[:, free]
    nf = B_free.shape[1]
    K = np.block([[G_glob, B_free], [B_free.T, np.zeros((nf, nf))]])
    rhs = np.concatenate([F.ravel() - B_glob[:, ~free] @ x_d[~free],
                          np.zeros(nf)])
    z = np.linalg.solve(K, rhs)
    eps = z[:nt * m].reshape(nt, m)
    x = x_d.copy()
    x[free] = z[nt * m:]
    fields = nt * dm.k_int
    interior = x[:fields].reshape(nt, dm.k_int)
    eta_local = np.sqrt(np.einsum("em,emn,en->e", eps, G, eps))

    # the factored system holds the free skeleton dofs alone: u and sigma
    # come back from the hybridization, not from the sparse solve
    factored = []
    real_solve = dpg._solve_spd

    def recording_solve(A, b, tol):
        factored.append(A.shape)
        return real_solve(A, b, tol)

    monkeypatch.setattr(dpg, "_solve_spd", recording_solve)
    sol = assemble_solve(mesh, trial, problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    skeleton = dm.num_free - fields
    assert sol.diagnostics["skeleton_dofs"] == skeleton
    assert factored == [(skeleton, skeleton)]
    assert sol.num_dofs == dm.num_free

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    assert_close(sol.u_coeffs, interior[:, :dm.n_u])
    assert_close(sol.sigma_coeffs.reshape(nt, -1), interior[:, dm.n_u:])
    assert_close(sol.skeleton_coeffs, x[fields:])
    assert_close(sol.eta_local, eta_local)


def test_interior_block_not_spd_raises_before_factorization(monkeypatch):
    # with the u and sigma columns of B zeroed, the interior block S_II of
    # every element class vanishes; the hybridization must refuse it before
    # any sparse factorization
    import dpglab.dpg as dpg
    from dpglab.dpg import SolverError

    real_local_systems = dpg._local_systems

    def no_interior_coupling(dofmap, *args):
        G, B = real_local_systems(dofmap, *args)
        B[:, :, :dofmap.k_int] = 0.0
        return G, B

    def no_sparse_solve(A, b, tol):
        raise AssertionError("sparse solve reached")

    monkeypatch.setattr(dpg, "_local_systems", no_interior_coupling)
    monkeypatch.setattr(dpg, "_solve_spd", no_sparse_solve)
    problem = square_smooth()
    with pytest.raises(SolverError, match="interior block"):
        assemble_solve(unit_square_mesh(2), TrialSpace(1), problem.kind,
                       problem.source)


def test_condensed_matrix_spd():
    import scipy.sparse as sp

    mesh = unit_square_mesh(2)
    trial = TrialSpace(1)
    dm = DofMap(mesh, trial)
    G, B = _local_systems(dm, REACTION_DIFFUSION,
                          np.arange(mesh.num_triangles))
    schur = np.linalg.solve(G, B)
    S_loc = np.einsum("emi,emj->eij", B, schur)
    cols, free, _ = trial_numbering(dm)
    S = np.zeros((free.size, free.size))
    for e in range(mesh.num_triangles):
        ix = cols[e]
        S[np.ix_(ix, ix)] += S_loc[e]
    free = np.flatnonzero(free)
    A = S[np.ix_(free, free)]
    np.linalg.cholesky(A)       # SPD check: factorization must succeed
    assert np.linalg.eigvalsh(A).min() > 0


def test_estimator_consistency_and_locality():
    problem = square_smooth()
    mesh = refine_uniform(unit_square_mesh(1))
    trial = TrialSpace(0)
    sol = assemble_solve(mesh, trial, problem.kind, problem.source)
    eta, eta_local = sol.eta, sol.eta_local
    # locality: the total is exactly the root of summed local squares
    assert eta == pytest.approx(np.sqrt(np.sum(eta_local ** 2)), rel=1e-13)
    # norm consistency: recompute eps = G^{-1} (F - B x) from the solution
    # and ||eps||_V^2, with G and B by the elevated physical-space
    # quadrature of physical_local_systems
    G_hi, B_hi = map(np.array, zip(*(
        physical_local_systems(mesh.vertices[labels], labels, trial,
                               problem.kind) for labels in mesh.triangles)))
    F = element_loads(mesh, trial, problem.source)
    x = all_coeffs(sol)[trial_numbering(DofMap(sol.mesh, sol.trial))[0]]
    eps = np.linalg.solve(G_hi, (F - np.einsum("emn,en->em", B_hi, x))
                          [..., None])[..., 0]
    direct = np.einsum("em,emn,en->e", eps, G_hi, eps)
    assert np.abs(direct - eta_local ** 2).max() <= 1e-12 * eta ** 2


def test_eta_decreases_under_uniform_refinement():
    problem = square_smooth()
    mesh = unit_square_mesh(1)
    etas = []
    for _ in range(4):
        sol = assemble_solve(mesh, TrialSpace(0), problem.kind,
                             problem.source)
        etas.append(sol.eta)
        mesh = refine_uniform(mesh)
    assert all(b < a for a, b in zip(etas, etas[1:]))


def test_dirichlet_edge_modes_are_projected():
    # with p >= 1 the boundary edge modes carry the L2 projection of the
    # residual data; quadratic data on a straight edge is matched exactly,
    # read through the bubble numbering of the skeleton, one to p bubbles
    # per edge
    from dpglab.spaces import edge_bubbles, edge_quadrature

    def quadratic(x, y):
        return x * x + y

    mesh = unit_square_mesh(2)
    rule = edge_quadrature(10)
    t = rule.points
    for p in (1, 2, 3):
        sol = assemble_solve(mesh, TrialSpace(p), POISSON,
                             lambda x, y: -2.0 * np.ones_like(x),
                             dirichlet=quadratic)
        dm = DofMap(sol.mesh, sol.trial)
        bub = edge_bubbles(p, t)
        for e in np.flatnonzero(mesh.boundary_edge):
            a, b = mesh.edges[e]
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
            gvals = quadratic(pts[:, 0], pts[:, 1])
            lin = (1 - t) * quadratic(*pa) + t * quadratic(*pb)
            trace = lin + sol.skeleton_coeffs[dm.bubble_dofs(e)] @ bub
            assert np.abs(trace - gvals).max() < 1e-10


def test_dof_counts():
    mesh = unit_square_mesh(2)
    # p = 0 standard: u 1/elt, sigma 2/elt, uhat on the single interior
    # vertex, flux 1 per edge
    dm = DofMap(mesh, TrialSpace(0))
    expected = 8 * 3 + 1 + 16
    assert dm.num_free == expected
    # augmented raises only the u block to P1
    dm_plus = DofMap(mesh, TrialSpace(0, augmented=True))
    assert dm_plus.num_free == expected + 8 * 2
    # p = 1: interior 3 + 6 per element, uhat vertex + 1 bubble per
    # interior edge, flux 2 per edge
    dm1 = DofMap(mesh, TrialSpace(1))
    assert dm1.num_free == 8 * 9 + 1 + 8 + 2 * 16


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_solution_numbering_is_rebuilt_from_its_mesh_and_trial(p, augmented):
    # a Solution keeps no DofMap: DofMap(sol.mesh, sol.trial) rebuilds the
    # numbering of skeleton_coeffs, whose prescribed entries sit where
    # that numbering puts the Dirichlet values
    import dataclasses
    from dpglab.dpg import Solution, _dirichlet_values
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    sol = assemble_solve(refine_uniform(lshape_mesh()),
                         TrialSpace(p, augmented=augmented), problem.kind,
                         problem.source, dirichlet=problem.dirichlet)
    assert "dofmap" not in {f.name for f in dataclasses.fields(Solution)}
    dm = DofMap(sol.mesh, sol.trial)
    assert type(sol.num_dofs) is int and dm.num_free == sol.num_dofs
    assert dm.n_skeleton == sol.skeleton_coeffs.size
    prescribed = _dirichlet_values(dm, problem.dirichlet)[~dm.free]
    assert np.array_equal(sol.skeleton_coeffs[~dm.free], prescribed)


def test_factorization_fill_stays_small():
    # the condensed system is SPD; a symmetric fill-reducing ordering keeps
    # nnz(L + U) within a small multiple of nnz(A) (a column ordering with
    # partial pivoting gives ~13x on this mesh)
    problem = square_smooth()
    mesh = problem.initial_mesh()
    for _ in range(4):
        mesh = refine_uniform(mesh)
    sol = assemble_solve(mesh, TrialSpace(1), problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    diag = sol.diagnostics
    assert sol.num_dofs == 7169
    assert diag["method"] == "direct"
    assert diag["ordering"] == "MMD_AT_PLUS_A"
    assert (diag["relax"], diag["panel_size"]) == (1, 4)
    assert diag["nnz_factor"] / diag["nnz_A"] <= 3.0


def test_diagnostics_hold_the_keys_the_docstring_lists():
    # perfbench's gate reads rel_residual, and the three stages of a solve
    # each add their own keys: the set is pinned here and in the
    # assemble_solve docstring
    keys = {"method", "rel_residual", "ordering", "relax",
            "panel_size", "nnz_A", "nnz_factor", "skeleton_dofs",
            "galerkin_residual", "load_scale", "min_diameter",
            "element_classes", "element_chunks", "classes_condensed"}
    problem = square_smooth()
    sol = assemble_solve(refine_uniform(problem.initial_mesh()),
                         TrialSpace(1), problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    assert set(sol.diagnostics) == keys
    for key in keys:
        assert key in assemble_solve.__doc__, key


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_direct_solve_needs_no_refinement(p):
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    sol = assemble_solve(refine_uniform(lshape_mesh()), TrialSpace(p),
                         problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    assert sol.diagnostics["method"] == "direct"
    assert sol.diagnostics["rel_residual"] <= 1e-10


def test_solve_spd_badly_scaled_matches_dense_oracle():
    import scipy.sparse as sp
    from dpglab.dpg import _solve_spd

    rng = np.random.default_rng(3)
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12))
    eye = sp.identity(12)
    lap = sp.kron(t, eye) + sp.kron(eye, t) + sp.identity(144)
    n = lap.shape[0]
    # diagonal of A spread over 1e-6 .. 1e6 in shuffled order
    d = sp.diags(np.sqrt(np.logspace(-6, 6, n))[rng.permutation(n)])
    A = (d @ lap @ d).tocsc()
    b = rng.standard_normal(n)
    x, diag = _solve_spd(A, b, 1e-10)
    oracle = np.linalg.solve(A.toarray(), b)
    assert diag["method"] == "direct"
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.filterwarnings("error")
def test_solve_spd_singular_inconsistent_raises():
    import scipy.sparse as sp
    from dpglab.dpg import SolverError, _solve_spd

    # pure Neumann Laplacian: symmetric, constants span its kernel, and a
    # right-hand side with nonzero mean has no solution
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12)).tolil()
    t[0, 0] = t[-1, -1] = 1.0
    eye = sp.identity(12)
    A = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
    with pytest.raises(SolverError):
        _solve_spd(A, np.ones(A.shape[0]), 1e-10)


@pytest.mark.filterwarnings("error")
def test_solve_spd_zero_diagonal_raises_at_once():
    # a zero diagonal entry rules out SPD; the solve must refuse it before
    # any factorization divides by it
    import scipy.sparse as sp
    from dpglab.dpg import SolverError, _solve_spd

    A = sp.diags([1.0, 0.0, 2.0]).tocsc()
    with pytest.raises(SolverError, match="diagonal"):
        _solve_spd(A, np.ones(3), 1e-10)


def test_a_missed_tolerance_fails_after_one_solve(monkeypatch):
    # a target no solve reaches: one factorization, one solve with its
    # factor, and the error reports the residual of that solve, the one
    # that the same system reports at the default target
    import dpglab.dpg as dpg
    from dpglab.dpg import SolverError
    from dpglab.problems import lshape_singular

    real_factor = dpg._factor
    factors, solves = [], []

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs)
            return self.lu.solve(rhs)

    def counting_factor(A):
        factors.append(A)
        return CountingLU(real_factor(A))

    problem = lshape_singular()
    mesh = refine_uniform(lshape_mesh())

    def solve(tol):
        return assemble_solve(mesh, TrialSpace(1), problem.kind,
                              problem.source, dirichlet=problem.dirichlet,
                              solver_tol=tol)

    passed = solve(1e-10)
    monkeypatch.setattr(dpg, "_factor", counting_factor)
    with pytest.raises(SolverError) as failure:
        solve(1e-300)
    assert (len(factors), len(solves)) == (1, 1)
    rel = passed.diagnostics["rel_residual"]
    assert failure.value.residual.hex() == rel.hex()
    assert (f"residual {rel:.3e} (target 1.0e-300)"
            in str(failure.value))
    assert "step" not in str(failure.value)


def test_unknown_kind_is_refused_before_any_work():
    # the kind is checked with the other inputs: an unknown one must not
    # reach the source or the class store, whose space it would replace,
    # dropping every stored class
    from dpglab.dpg import ClassStore
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh, trial = refine_uniform(lshape_mesh()), TrialSpace(1)
    store = ClassStore()
    calls = []

    def source(x, y):
        calls.append(x.shape)
        return np.zeros_like(x)

    assemble_solve(mesh, trial, problem.kind, source,
                   dirichlet=problem.dirichlet, store=store)
    warm, calls[:] = len(store), []
    assert warm > 0
    with pytest.raises(ValueError, match="unknown problem kind 'heat'"):
        assemble_solve(mesh, trial, "heat", source,
                       dirichlet=problem.dirichlet, store=store)
    assert calls == []
    assert len(store) == warm
    again = assemble_solve(mesh, trial, problem.kind, source,
                           dirichlet=problem.dirichlet, store=store)
    assert again.diagnostics["classes_condensed"] == 0


def corner_refined_lshape(uniform, corner):
    """NVB mesh of the L-shape: uniform sweeps, then bisection of every
    element at the reentrant corner, repeated."""
    from dpglab.mesh import refine_marked

    mesh = lshape_mesh()
    for _ in range(uniform):
        mesh = refine_uniform(mesh)
    for _ in range(corner):
        at_corner = np.all(mesh.vertices[mesh.triangles] == 0.0, axis=2)
        mesh = refine_marked(mesh, np.flatnonzero(at_corner.any(axis=1)))
    return mesh


def perturbed(mesh, seed=5, amount=0.03):
    """The mesh with every interior vertex moved at random: no two
    elements share a shape any more."""
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    inner = ~mesh.boundary_vertex
    v[inner] += rng.uniform(-amount, amount, size=(inner.sum(), 2))
    return Mesh(v, mesh.triangles, mesh.refinement_edges)


def per_element_oracle(mesh, trial, kind, source, dirichlet):
    """G^{-1} B and G^{-1} F by dense solves on every element's own local
    systems, no element classes and no condense(), and a dense solve of
    the assembled system.  Returns the solution, the local estimator and
    the largest entry of the condensed load of the free dofs; the
    solution in the numbering of trial_numbering."""
    dm = DofMap(mesh, trial)
    G, B = _local_systems(dm, kind, np.arange(mesh.num_triangles))
    F = element_loads(mesh, trial, source)
    cols, free, x = trial_numbering(dm, dirichlet)
    S_loc, r_loc, ginv_b, ginv_f = condense_load(G, B, F)
    S = np.zeros((free.size, free.size))
    r = np.zeros(free.size)
    for ix, S_t, r_t in zip(cols, S_loc, r_loc):
        S[np.ix_(ix, ix)] += S_t
        r[ix] += r_t
    free_load = (r - S @ x)[free]
    x[free] = np.linalg.solve(S[np.ix_(free, free)], free_load)
    eps = ginv_f - np.einsum("emn,en->em", ginv_b, x[cols])
    eta_local = np.sqrt(np.einsum("em,emn,en->e", eps, G, eps))
    return x, eta_local, np.abs(free_load).max()


@pytest.mark.parametrize("case", ["corner-refined", "perturbed"])
def test_element_classes_match_per_element_oracle(case):
    if case == "corner-refined":     # 108 elements in 22 classes
        mesh = corner_refined_lshape(2, 2)
        trial, kind = TrialSpace(1), POISSON
    else:                            # 96 elements, 96 classes
        mesh = perturbed(refine_uniform(refine_uniform(lshape_mesh())))
        trial, kind = TrialSpace(2), REACTION_DIFFUSION

    def source(x, y):
        return 1.0 + x * y - np.sin(3.0 * x)

    def dirichlet(x, y):
        return np.cos(x + 2.0 * y)

    sol = assemble_solve(mesh, trial, kind, source, dirichlet=dirichlet)
    classes = sol.diagnostics["element_classes"]
    if case == "corner-refined":
        assert classes < mesh.num_triangles / 4
    else:
        assert classes == mesh.num_triangles
    x, eta_local, load_scale = per_element_oracle(mesh, trial, kind, source,
                                                  dirichlet)

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    assert_close(all_coeffs(sol), x)
    assert_close(sol.eta_local, eta_local)
    assert_close(sol.diagnostics["load_scale"], load_scale)
    assert sol.diagnostics["galerkin_residual"] <= 1e-8 * load_scale


def test_diagnostics_report_the_smallest_element_diameter():
    # cond G grows like h^-2, so a solve reports how small its elements get
    mesh = corner_refined_lshape(2, 2)
    sol = assemble_solve(mesh, TrialSpace(0), POISSON, None)
    assert sol.diagnostics["min_diameter"] == mesh.diameters().min()
    assert sol.diagnostics["min_diameter"] < mesh.h_max


@pytest.mark.parametrize("kind", [REACTION_DIFFUSION, POISSON])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_condense_classes_match_dense_oracle(p, kind):
    # the stacks of both condensations against dense solves with G and
    # S_II: w'w = [B | E]' G^{-1} [B | E] for w rebuilt from its stored
    # blocks, hybrid the Schur complement of S_II in it, and S_II inner =
    # [S_IS | R_I]; on a perturbed mesh every element is a class of its own
    from dpglab.dpg import _class_bytes, _condense_classes, _whitened

    mesh = perturbed(refine_uniform(lshape_mesh()))
    trial = TrialSpace(p)
    dm = DofMap(mesh, trial)
    rep = np.arange(mesh.num_triangles)
    ops = _condense_classes(dm, kind, rep)
    G, B = _local_systems(dm, kind, rep)
    nc, m, n = B.shape
    n_t, k = m // 3, dm.k_int
    load_rows = np.broadcast_to(np.eye(m, n_t), (nc, m, n_t))
    S = condense_oracle(G, np.concatenate([B, load_rows], axis=2))[0]
    S_II, S_I = S[:, :k, :k], S[:, :k, k:]

    s = dm.n_u if kind == POISSON else 0
    b = dm.flux_cols.min()
    assert sorted(ops) == ["hybrid", "inner", "w_tau", "w_v"]
    assert ops["w_v"].shape == (nc, n_t, k - s + n + n_t - b)
    assert ops["w_tau"].shape == (nc, m - n_t, b)
    assert ops["hybrid"].shape == (nc, n - k, n - k + n_t)
    assert ops["inner"].shape == (nc, k, n - k + n_t)
    w = _whitened(dm, kind, ops["w_v"], ops["w_tau"], np.arange(nc))
    assert w.shape == (nc, m, n + n_t)
    assert_close13(np.swapaxes(w, 1, 2) @ w, S)
    hybrid = S[:, k:n, k:] - S[:, k:n, :k] @ np.linalg.solve(S_II, S_I)
    assert_close13(ops["hybrid"], hybrid)
    assert np.abs(S_II @ ops["inner"] - S_I).max() <= 1e-12 * np.abs(S_I).max()
    # a chunk gathers w whole in place of its two stored blocks
    stored = sum(a[0].nbytes for a in ops.values())
    assert (stored - ops["w_v"][0].nbytes - ops["w_tau"][0].nbytes
            + w[0].nbytes == _class_bytes(dm))


# doubles that a class keeps (w's two blocks, hybrid and inner) for each
# kind and p
STORED_PER_CLASS = {REACTION_DIFFUSION: (252, 1012, 2628, 5517),
                    POISSON: (246, 982, 2538, 5307)}


@pytest.mark.parametrize("case", ["perturbed", "diameter-1e-6"])
@pytest.mark.parametrize("kind", [REACTION_DIFFUSION, POISSON])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_class_store_drops_only_exact_zeros_of_w(p, kind, case,
                                                 monkeypatch):
    # G is block diagonal in (v, tau), the tau rows of B hold u, sigma and
    # uhat, its v rows sigma, the fluxes and (reaction-diffusion) u, and E
    # has v rows only.  So the blocks of w = L^{-1} [B | E] that the store
    # drops are exact zeros, also where the LU of condense pivots (every
    # class at diameter 1.4e-6), the rebuilt w is condense's bit for bit,
    # and so is every number _recover gives
    import dpglab.dpg as dpg
    from dpglab.dpg import (_chunks, _class_bytes, _condense_classes,
                            _element_classes, _whitened)

    mesh = refine_uniform(lshape_mesh())
    if case == "perturbed":          # 24 elements, 24 classes
        mesh = perturbed(mesh)
    else:                            # 24 elements in 8 classes
        mesh = Mesh(2e-6 * mesh.vertices, mesh.triangles,
                    mesh.refinement_edges)
    dm = DofMap(mesh, TrialSpace(p))
    _, rep, cls = _element_classes(mesh)
    G, B = _local_systems(dm, kind, rep)
    nc, m, n = B.shape
    n_t, k = dm.n_t, dm.k_int
    full = condense(G, np.concatenate(
        [B, np.broadcast_to(np.eye(m, n_t), (nc, m, n_t))], axis=2))[1]
    if case != "perturbed":
        L = np.linalg.cholesky(G)
        diagonal = np.diagonal(L, axis1=1, axis2=2)[:, None, :]
        assert (np.abs(np.tril(L, -1)) > diagonal).any(axis=(1, 2)).all()
        assert mesh.diameters().max() < 1.5e-6
    s = dm.n_u if kind == POISSON else 0
    b = dm.flux_cols.min()
    for block in (full[:, :n_t, :s], full[:, :n_t, k:b], full[:, n_t:, b:]):
        assert (block == 0.0).all()

    ops = _condense_classes(dm, kind, rep)
    assert sum(a[0].nbytes for a in ops.values()) == \
        8 * STORED_PER_CLASS[kind][p]
    assert np.array_equal(
        _whitened(dm, kind, ops["w_v"], ops["w_tau"], cls), full[cls])

    rng = np.random.default_rng(p)
    z = rng.standard_normal((mesh.num_triangles, n + n_t))
    x = rng.standard_normal(dm.n_skeleton)
    args = (dm, kind, ops, cls, _chunks(mesh.num_triangles,
                                        _class_bytes(dm)), z, x)
    got = dpg._recover(*args)
    monkeypatch.setattr(dpg, "_whitened",
                        lambda dofmap, kind, w_v, w_tau, rows: full[rows])
    want = dpg._recover(*args)
    for array, oracle in zip(got[:3], want[:3]):
        assert array.tobytes() == oracle.tobytes()
    assert {name: v.hex() for name, v in got[3].items()} == \
        {name: v.hex() for name, v in want[3].items()}


def row_unique_classes(mesh):
    """The oracle for _element_classes' lexsort: class keys,
    representatives and classes by a row-wise np.unique of the key rows."""
    nt = mesh.num_triangles
    jac = mesh.geometry()[0]
    key = np.column_stack([jac.reshape(nt, 4).view(np.int64),
                           mesh.edge_flips])
    keys, rep, cls = np.unique(key, axis=0, return_index=True,
                               return_inverse=True)
    return keys, rep, cls.ravel()


@pytest.mark.parametrize("case", ["uniform", "perturbed", "signed-bits"])
def test_element_classes_match_row_wise_unique(case):
    from types import SimpleNamespace

    from dpglab.dpg import _element_classes

    if case == "uniform":            # 1,536 elements in 8 classes
        mesh = lshape_mesh()
        for _ in range(4):
            mesh = refine_uniform(mesh)
        classes = 8
    elif case == "perturbed":        # 96 elements, 96 classes
        mesh = perturbed(refine_uniform(refine_uniform(lshape_mesh())))
        classes = mesh.num_triangles
    else:
        # Jacobian entries +0.0 and -0.0 (bits 0 and -2^63) and negative
        # values, whose bits are negative int64s, with many repeated rows
        rng = np.random.default_rng(2)
        jac = rng.choice([0.0, -0.0, -1.0], (2000, 2, 2))
        mesh = SimpleNamespace(
            num_triangles=2000,
            geometry=lambda: (jac, None, None),
            edge_flips=rng.random((2000, 3)) < 0.5)
        classes = None
    got = _element_classes(mesh)
    want = row_unique_classes(mesh)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if classes is None:
        # both zeros, as distinct bit patterns, and a negative value
        # lead some class key
        assert {0, -2 ** 63, np.float64(-1.0).view(np.int64)} <= \
            set(got[0][:, 0].tolist())
        assert len(got[0]) < mesh.num_triangles / 2
    else:
        assert len(got[0]) == classes


def test_element_classes_diagnostic():
    # guards the deduplication: uniform NVB on the L-shape repeats 8 shapes,
    # a perturbed mesh has one class per element
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(4):
        mesh = refine_uniform(mesh)
    shaken = perturbed(refine_uniform(lshape_mesh()))
    for m, classes in ((mesh, 8), (shaken, shaken.num_triangles)):
        sol = assemble_solve(m, TrialSpace(1), problem.kind, problem.source,
                             dirichlet=problem.dirichlet)
        assert sol.diagnostics["element_classes"] == classes
    assert mesh.num_triangles == 1536


def assert_same_solution(got, want, skip=("classes_condensed",)):
    """Bitwise equal solutions; the diagnostics in skip may differ."""
    for name in SOLUTION_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.eta == want.eta
    assert ({k: v for k, v in got.diagnostics.items() if k not in skip} ==
            {k: v for k, v in want.diagnostics.items() if k not in skip})


def test_class_store_reuses_operators_bitwise():
    # a second solve on the same mesh finds every class in the store; a
    # solve for another trial space starts the store afresh
    from dpglab.dpg import ClassStore, _element_classes
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = corner_refined_lshape(1, 2)
    store = ClassStore()

    def solve(trial, store):
        return assemble_solve(mesh, trial, problem.kind, problem.source,
                              dirichlet=problem.dirichlet, store=store)

    first = solve(TrialSpace(1), store)
    classes = first.diagnostics["element_classes"]
    assert first.diagnostics["classes_condensed"] == classes == len(store)
    # update classifies the mesh itself: the classes of _element_classes,
    # and nothing left to condense
    ops, cls, condensed = store.update(DofMap(first.mesh, first.trial),
                                       problem.kind)
    assert np.array_equal(cls, _element_classes(mesh)[2])
    assert condensed == 0
    assert [len(a) for a in ops.values()] == [classes] * 4
    assert classes < mesh.num_triangles
    second = solve(TrialSpace(1), store)
    assert second.diagnostics["classes_condensed"] == 0
    assert len(store) == classes
    assert_same_solution(second, first)
    other = solve(TrialSpace(1, augmented=True), store)
    assert other.diagnostics["classes_condensed"] == classes
    assert_same_solution(other, solve(TrialSpace(1, augmented=True), None))


@pytest.mark.parametrize("case", ["perturbed-p2", "corner-refined-p1",
                                  "lshape-p3"])
def test_chunk_size_does_not_change_results(case, monkeypatch):
    # every per-element and per-class product is independent of the batch
    # it runs in: one element (and one class) per chunk, the default
    # budget, and one chunk for the whole mesh give the same bits, store
    # -backed second solves included
    import dpglab.dpg as dpg
    from dpglab.dpg import ClassStore
    from dpglab.problems import lshape_singular

    def source(x, y):
        return 1.0 + x * y - np.sin(3.0 * x)

    def dirichlet(x, y):
        return np.cos(x + 2.0 * y)

    if case == "perturbed-p2":      # 96 elements, 96 classes
        mesh = perturbed(refine_uniform(refine_uniform(lshape_mesh())))
        trial, kind = TrialSpace(2), REACTION_DIFFUSION
    elif case == "corner-refined-p1":
        mesh = corner_refined_lshape(2, 2)
        trial, kind = TrialSpace(1), POISSON
    else:
        mesh = refine_uniform(refine_uniform(refine_uniform(lshape_mesh())))
        singular = lshape_singular()
        trial, kind = TrialSpace(3), singular.kind
        source, dirichlet = singular.source, singular.dirichlet
    nt = mesh.num_triangles
    want = assemble_solve(mesh, trial, kind, source, dirichlet=dirichlet)
    for budget, chunks in ((1, nt), (dpg._CHUNK_BYTES, None), (1 << 40, 1)):
        monkeypatch.setattr(dpg, "_CHUNK_BYTES", budget)
        store = ClassStore()
        for _ in range(2):
            got = assemble_solve(mesh, trial, kind, source,
                                 dirichlet=dirichlet, store=store)
            assert_same_solution(got, want, skip=("classes_condensed",
                                                  "element_chunks"))
            if chunks is not None:
                assert got.diagnostics["element_chunks"] == chunks


def test_solve_peak_memory_stays_below_the_class_operators_per_element():
    # a solve streams its per-element work through bounded chunks, so its
    # traced peak stays below half of one copy of the stored class
    # operators per element (which a solve gathering them all would hold)
    import tracemalloc

    from dpglab.dpg import ClassStore, _class_bytes
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(4):
        mesh = refine_uniform(mesh)

    def solve(mesh, store=None):
        return assemble_solve(mesh, TrialSpace(3), problem.kind,
                              problem.source, dirichlet=problem.dirichlet,
                              store=store)

    solve(lshape_mesh())            # reference tables and quadrature cached
    store = ClassStore()
    tracemalloc.start()
    try:
        sol = solve(mesh, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(a[0].nbytes for a in store.ops.values())
    class_bytes = _class_bytes(DofMap(sol.mesh, sol.trial))
    assert (stored, class_bytes) == (5307 * 8, 7155 * 8)
    assert mesh.num_triangles == 1536
    assert peak < mesh.num_triangles * class_bytes / 2     # 41.9 MiB


def skeleton_system_args(mesh, trial, kind, source, dirichlet=None):
    """The arguments with which assemble_solve calls _skeleton_system."""
    import dpglab.dpg as dpg

    calls = []
    build = dpg._skeleton_system

    def spy(*args):
        calls.append(args)
        return build(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dpg, "_skeleton_system", spy)
        assemble_solve(mesh, trial, kind, source, dirichlet=dirichlet)
    return calls[0]


def coo_skeleton_system(dofmap, ops, cls, chunks, z):
    """The skeleton system by the COO route: the cliques of all elements
    listed element by element, row a before column b, and converted to
    CSC by one sp.csc_matrix((v, (i, j))), which sums duplicates and keeps
    exact zeros."""
    import scipy.sparse as sp

    k, n, ns = dofmap.k_int, dofmap.n_local, dofmap.num_free_skeleton
    fcols = dofmap.free_cols
    own = fcols >= 0
    pair = own[:, :, None] & own[:, None, :]
    hybrid = ops["hybrid"][cls]
    r_hat = (hybrid @ z[:, k:, None])[..., 0]
    rows = np.broadcast_to(fcols[:, :, None], pair.shape)
    A = sp.csc_matrix((hybrid[:, :, :n - k][pair],
                       (rows[pair], rows.transpose(0, 2, 1)[pair])),
                      shape=(ns, ns))
    return A, np.bincount(fcols[own], r_hat[own], minlength=ns)


SKELETON_CASES = ["lshape-p0", "lshape-p1", "lshape-p2", "lshape-p3",
                  "square-augmented-p2", "perturbed-p1"]


@pytest.mark.parametrize("budget", [1, None, 1 << 40],
                         ids=["one-element", "default", "one-chunk"])
@pytest.mark.parametrize("case", SKELETON_CASES + ["one-element-p1",
                                                   "two-element-p0"])
def test_skeleton_system_is_the_coo_route_bit_for_bit(case, budget,
                                                      monkeypatch):
    # the column-grouped build against the COO route: the same pattern,
    # exact zeros included, the same bits in every entry and the same
    # right-hand side, at any chunk size.  Run against the scipy floor
    # too, this pins the summation order of its COO -> CSC.  As in
    # csc_matrix.sum_duplicates, the sort runs on every column, or on none
    # when every column is sorted already (one element; two elements
    # whose first two columns are sorted and their third is not)
    import dpglab.dpg as dpg

    if budget is not None:
        monkeypatch.setattr(dpg, "_CHUNK_BYTES", budget)
    built = skeleton_system_args(*skeleton_case(case))
    sorted_columns = []
    sort = dpg._sparsetools.csr_sort_indices

    def sort_spy(n, *arrays):
        sorted_columns.append(n)
        sort(n, *arrays)

    with monkeypatch.context() as patch:
        patch.setattr(dpg._sparsetools, "csr_sort_indices", sort_spy)
        A, b = dpg._skeleton_system(*built)
    assert sum(sorted_columns) == (0 if case == "one-element-p1"
                                   else A.shape[0])
    want, want_b = coo_skeleton_system(*built)
    assert A.indptr.dtype == want.indptr.dtype
    assert A.indices.dtype == want.indices.dtype
    assert np.array_equal(A.indptr, want.indptr)
    assert np.array_equal(A.indices, want.indices)
    assert A.data.tobytes() == want.data.tobytes()
    assert b.tobytes() == want_b.tobytes()
    assert (buffer_length(A.data) == buffer_length(A.indices)
            == int(A.indptr[-1]))
    if case in ("lshape-p0", "lshape-p2", "lshape-p3"):
        assert (want.data == 0.0).any()     # exact zeros kept as entries


def skeleton_case(case):
    """assemble_solve's arguments for a case of
    test_skeleton_system_is_the_coo_route_bit_for_bit."""
    from dpglab.problems import lshape_singular

    if case.startswith("lshape"):    # 108 elements in 22 classes
        problem = lshape_singular()
        return (corner_refined_lshape(2, 2), TrialSpace(int(case[-1])),
                problem.kind, problem.source, problem.dirichlet)
    if case == "square-augmented-p2":
        return (unit_square_mesh(4), TrialSpace(2, augmented=True),
                REACTION_DIFFUSION, square_smooth().source,
                lambda x, y: np.cos(x + 2.0 * y))

    def source(x, y):
        return 1.0 + x * y

    if case == "one-element-p1":
        # the fluxes alone are free, and the local edges run in the order
        # of their global numbers: every column is sorted
        return (Mesh([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], [[2, 1, 0]], [0]),
                TrialSpace(1), POISSON, source, None)
    if case == "two-element-p0":
        # the two boundary edges of element 0 come first, each a sorted
        # column; the shared edge's column lists element 0's fluxes in
        # ascending order, then element 1's in descending order
        return (Mesh([[0.5, -1.0], [0.0, 0.0], [1.0, 0.0], [0.5, 1.0]],
                     [[2, 1, 0], [1, 2, 3]], [0, 0]),
                TrialSpace(0), POISSON, source, None)
    if case.startswith("marked"):
        # NVB of random marked sets, with their closures
        from dpglab.mesh import refine_marked

        rng = np.random.default_rng(3)
        mesh = unit_square_mesh(2)
        for _ in range(4):
            mesh = refine_marked(mesh, rng.choice(
                mesh.num_triangles, mesh.num_triangles // 3, replace=False))
        return (mesh, TrialSpace(int(case[-1])), POISSON, source, None)
    # 96 elements, 96 classes
    return (perturbed(refine_uniform(refine_uniform(lshape_mesh()))),
            TrialSpace(1), POISSON, source, None)


@pytest.mark.parametrize("case", SKELETON_CASES + [
    f"marked-p{p}" for p in range(4)])
def test_column_counts_are_the_coo_routes(case):
    # _column_counts reads the mesh's incidences alone: the entries of
    # each column are the COO route's after its sum, exact zeros included
    import dpglab.dpg as dpg

    built = skeleton_system_args(*skeleton_case(case))
    want, _ = coo_skeleton_system(*built)
    counts = dpg._column_counts(built[0])
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.diff(want.indptr))


@pytest.mark.parametrize("shift", [1, -1])
def test_skeleton_system_refuses_a_block_off_its_counts(shift, monkeypatch):
    # A is allocated at nnz by the counts and filled block by block; a
    # count one off is a wrong matrix, so the block that holds it raises
    # and names its columns
    import re

    import dpglab.dpg as dpg

    built = skeleton_system_args(*skeleton_case("lshape-p1"))
    counts = dpg._column_counts

    def shifted(dofmap):
        out = counts(dofmap)
        out[40] += shift
        return out

    monkeypatch.setattr(dpg, "_column_counts", shifted)
    with pytest.raises(RuntimeError, match="skeleton system: columns") as exc:
        dpg._skeleton_system(*built)
    lo, hi = map(int, re.search(r"columns (\d+) to (\d+)",
                                str(exc.value)).groups())
    assert lo <= 40 <= hi


@pytest.mark.parametrize("case", ["lshape-p0", "lshape-p1", "lshape-p2",
                                  "lshape-p3", "square-augmented-p2",
                                  "perturbed-p1"])
def test_solve_is_public_splu_bit_for_bit(case):
    # _solve_spd calls scipy's kernels itself (_factor is gstrf with the
    # options splu builds, the residual csc_matvec): against the public
    # splu on the same matrix, its solution, fill and residual are equal
    # bit for bit
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    import dpglab.dpg as dpg

    A, b = dpg._skeleton_system(*skeleton_system_args(*skeleton_case(case)))
    x, diag = dpg._solve_spd(A, b, 1e-10)
    public = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    lu = spla.splu(public, permc_spec=dpg._ORDERING, diag_pivot_thresh=0.0,
                   relax=dpg._RELAX, panel_size=dpg._PANEL_SIZE,
                   options={"SymmetricMode": True})
    want = lu.solve(b)
    assert x.tobytes() == want.tobytes()
    assert diag["nnz_factor"] == lu.nnz
    assert diag["nnz_A"] == public.nnz
    assert diag["rel_residual"] == (float(np.linalg.norm(b - public @ want))
                                    / float(np.linalg.norm(b)))


def test_scipy_kernels_are_reused_or_refused_by_file():
    # a kernel module that scipy has imported is the one dpglab calls; a
    # missing file is an ImportError naming it and scipy's version, with
    # no fallback
    import sys
    from importlib.metadata import version

    import scipy.sparse

    import dpglab.dpg as dpg

    assert (dpg._scipy_extension("sparse", "_sparsetools")
            is scipy.sparse._sparsetools)
    with pytest.raises(ImportError) as missing:
        dpg._scipy_extension("sparse", "_no_such_kernel")
    assert f"scipy {version('scipy')} has no file " in str(missing.value)
    assert "_no_such_kernel" in str(missing.value)
    # a pure-Python module is no compiled kernel: refused before it runs
    name = "scipy.sparse._spfuncs"
    assert name not in sys.modules
    with pytest.raises(ImportError, match=name):
        dpg._scipy_extension("sparse", "_spfuncs")
    assert name not in sys.modules


def buffer_length(a):
    """Length of the array that owns the memory of a: a view of the
    first nnz slots of a longer buffer keeps all of it alive."""
    while a.base is not None:
        a = a.base
    return len(a)


def compact_bytes(A):
    """Bytes of the data, indices and indptr of a CSC matrix in canonical
    format, whose data and indices hold nnz entries."""
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


@pytest.mark.parametrize("p, levels, nt", [(1, 5, 6144), (3, 3, 384)],
                         ids=["p1", "p3"])
def test_skeleton_system_peak_memory_stays_near_its_matrix(p, levels, nt):
    # A's data and indices are allocated at nnz and filled already
    # summed, one block of columns at a time, from an int32 structure, so
    # one build's traced peak stays below 1.3 times the bytes of A (1.15
    # and 1.18 times; 1.24 and 1.54 times with chunks of 4 MiB, whose
    # block buffers do not shrink with A).  The uncompressed cliques
    # summed in place and shrunk to nnz took 1.62 and 1.41 times; int64
    # element, column and order arrays besides, with runs counted at 32
    # bytes a row, not 128, 2.02 and 2.56 times, and a COO of the
    # cliques, its values gathered chunk by chunk and converted once, 4.2
    # times at p=1, 31.5 MiB for 7.5 MiB
    import tracemalloc

    from dpglab.dpg import _skeleton_system
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    args = skeleton_system_args(mesh, TrialSpace(p), problem.kind,
                                problem.source, problem.dirichlet)
    tracemalloc.start()
    try:
        A, _ = _skeleton_system(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.num_triangles == nt
    assert peak < 1.3 * compact_bytes(A)


def test_sparse_solve_starts_with_little_beside_its_matrix(monkeypatch):
    # when _solve_spd starts, and splu maps its factor on top of what is
    # alive, the solve holds A, b and what recovery needs, but no whole-
    # mesh lift z, no structure of the build, no slack in A's buffers and
    # no dense zero load: the memory traced since before assemble_solve
    # stays below 1.3 times the bytes of A (1.16 times; A on its
    # uncompressed buffers took 1.56 times, and holding z and int64
    # skeleton_cols besides 1.80 times)
    import tracemalloc

    import dpglab.dpg as dpg
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(5):
        mesh = refine_uniform(mesh)

    def solve(mesh):
        return assemble_solve(mesh, TrialSpace(1), problem.kind,
                              problem.source, dirichlet=problem.dirichlet)

    solve(lshape_mesh())            # reference tables and quadrature cached
    entry = []
    real_solve = dpg._solve_spd

    def spy(A, b, tol):
        entry.append((tracemalloc.get_traced_memory()[0], compact_bytes(A)))
        return real_solve(A, b, tol)

    monkeypatch.setattr(dpg, "_solve_spd", spy)
    tracemalloc.start()
    try:
        solve(mesh)
    finally:
        tracemalloc.stop()
    assert mesh.num_triangles == 6144
    [(live, a_bytes)] = entry
    assert live < 1.3 * a_bytes


@pytest.mark.parametrize("hook", ["setprofile", "settrace", "cProfile"])
def test_solve_under_a_profile_or_trace_hook_is_the_untraced_solve(
        hook, monkeypatch):
    # a profile or trace hook holds references to the arrays of a running
    # solve (a bound method, a frame's locals), which resize's reference
    # check counted as views when the build still shrank A's buffers, and
    # raised ValueError.  Under each hook the solve is the untraced one
    # bit for bit, with A's buffers at nnz
    import cProfile
    import sys

    import dpglab.dpg as dpg
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = corner_refined_lshape(2, 2)

    def solve():
        return assemble_solve(mesh, TrialSpace(1), problem.kind,
                              problem.source, dirichlet=problem.dirichlet)

    want = solve()
    matrices = []
    real_solve = dpg._solve_spd

    def spy(A, b, tol):
        matrices.append(A)
        return real_solve(A, b, tol)

    monkeypatch.setattr(dpg, "_solve_spd", spy)
    if hook == "cProfile":
        got = cProfile.Profile().runcall(solve)
    else:
        get_hook, set_hook = (getattr(sys, "get" + hook[3:]),
                              getattr(sys, hook))
        old = get_hook()
        set_hook(lambda *args: None)
        try:
            got = solve()
        finally:
            set_hook(old)
    assert_same_solution(got, want)
    [A] = matrices
    assert (buffer_length(A.data) == buffer_length(A.indices)
            == int(A.indptr[-1]))


def test_each_stage_maps_an_element_at_most_once(monkeypatch):
    # the mesh stores no geometry, so every stage maps what it uses
    # (Mesh.geometry): the solve all elements once for the class keys
    # and the class representatives once more, postprocessing and the
    # error report each element once, the report one chunk at a time
    # for both its points and its weights.  Mapping the whole mesh per
    # chunk would map it once per chunk, 37 times here.  The spy takes
    # the place of spaces.affine_maps under both names that reach it
    import dpglab.mesh
    import dpglab.spaces
    from dpglab.postprocess import postprocess_all
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(5):
        mesh = refine_uniform(mesh)
    nt = mesh.num_triangles
    assert nt == 6144
    real_affine_maps = dpglab.spaces.affine_maps
    mapped = []

    def spy(verts):
        mapped.append(len(verts))
        return real_affine_maps(verts)

    for module in (dpglab.mesh, dpglab.spaces):
        monkeypatch.setattr(module, "affine_maps", spy)
    solution = assemble_solve(mesh, TrialSpace(1), problem.kind,
                              problem.source, dirichlet=problem.dirichlet)
    classes = solution.diagnostics["element_classes"]
    assert sum(mapped) <= nt + classes
    mapped.clear()
    post = postprocess_all(solution)
    assert sum(mapped) <= nt
    mapped.clear()
    error_report(solution, post, problem)
    assert len(mapped) > 1 and sum(mapped) <= nt


@pytest.mark.parametrize("p, levels, nt, bound_mb",
                         [(1, 5, 6144, 6.0), (3, 4, 1536, 4.5)],
                         ids=["p1", "p3"])
def test_recovery_transient_stays_small(p, levels, nt, bound_mb,
                                        monkeypatch):
    # _recover gathers the class operators of one chunk of elements at a
    # time, so its traced peak above its entry is its whole-mesh outputs
    # and a few chunks: 4.64 MiB at p=1 and 3.25 MiB at p=3 with chunks
    # of 1 MiB, 9.08 and 8.08 MiB with chunks of 4 MiB.  A whole solve's
    # traced peak does not show it with chunks of 1 MiB, since the
    # skeleton build sets that (11.01 MiB at p=1, against 7.54 MiB in
    # _recover); with chunks of 4 MiB _recover sets it (11.98 MiB, the
    # build 11.70)
    import tracemalloc

    import dpglab.dpg as dpg
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(levels):
        mesh = refine_uniform(mesh)

    def solve(mesh):
        return assemble_solve(mesh, TrialSpace(p), problem.kind,
                              problem.source, dirichlet=problem.dirichlet)

    solve(lshape_mesh())            # reference tables and quadrature cached
    above = []
    real_recover = dpg._recover

    def spy(*args):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_recover(*args)
        above.append(tracemalloc.get_traced_memory()[1] - entry)
        return out

    monkeypatch.setattr(dpg, "_recover", spy)
    tracemalloc.start()
    try:
        solve(mesh)
    finally:
        tracemalloc.stop()
    assert mesh.num_triangles == nt
    [peak] = above
    assert peak < bound_mb * 2 ** 20


def test_large_solve_runs_in_several_element_chunks():
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    mesh = lshape_mesh()
    for _ in range(5):
        mesh = refine_uniform(mesh)
    sol = assemble_solve(mesh, TrialSpace(1), problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    assert mesh.num_triangles == 6144
    assert 1 < sol.diagnostics["element_chunks"] < mesh.num_triangles


def polynomial_poisson_problem(p):
    """Poisson problem whose exact solution is a fixed polynomial of total
    degree p, with every coefficient nonzero."""
    rng = np.random.default_rng(p)
    terms = [(i, d - i, rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
             for d in range(p + 1) for i in range(d + 1)]

    def monomial(x, y, i, j):
        # x^i y^j, zero for a negative exponent (derivative of a constant)
        if i < 0 or j < 0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.asarray(x, dtype=float) ** i * np.asarray(y, dtype=float) ** j

    def exact(x, y):
        return sum(c * monomial(x, y, i, j) for i, j, c in terms)

    def exact_grad(x, y):
        return (sum(c * i * monomial(x, y, i - 1, j) for i, j, c in terms),
                sum(c * j * monomial(x, y, i, j - 1) for i, j, c in terms))

    def source(x, y):       # -Lap(u)
        return -sum(c * (i * (i - 1) * monomial(x, y, i - 2, j) +
                         j * (j - 1) * monomial(x, y, i, j - 2))
                    for i, j, c in terms)

    return ManufacturedProblem(
        kind=POISSON, exact=exact,
        exact_grad=exact_grad, source=source,
        initial_mesh=lshape_mesh)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_polynomial_reproduction(p):
    # u in P^p lies in the trial space (sigma = grad u in P^(p-1), traces
    # of degree p), so the minimal residual, the errors and eta vanish
    problem = polynomial_poisson_problem(p)
    mesh = corner_refined_lshape(1, 2)
    sol = assemble_solve(mesh, TrialSpace(p), POISSON, problem.source,
                         dirichlet=problem.dirichlet)
    rep = error_report(sol, None, problem)
    assert rep.err_u < 1e-8
    assert rep.err_sigma < 1e-8
    assert sol.eta < 1e-8

