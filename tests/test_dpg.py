"""Assembly, condensation, solve, and estimator tests."""

import numpy as np
import pytest

from dpglab.dpg import (POISSON, REACTION_DIFFUSION, DofMap, TrialSpace,
                        _local_systems, assemble_solve, condense)
from dpglab.mesh import Mesh, lshape_mesh, refine_uniform, unit_square_mesh
from dpglab.problems import ManufacturedProblem, error_report, square_smooth
from dpglab.spaces import project_l2, scalar_basis


def constant_test_vector(p, delta_p=2):
    """Coefficients representing the test pair (v, tau) = (1, 0)."""
    n_t = scalar_basis(p + delta_p).dim
    vec = np.zeros(3 * n_t)
    vec[0] = 1.0 / np.sqrt(2.0)      # constant 1 in the orthonormal basis
    return vec, n_t


def test_local_gram_constant_tests():
    mesh = unit_square_mesh(2)
    area = mesh.areas()[0]
    for p in (0, 1):
        G = _local_systems(mesh, TrialSpace(p), REACTION_DIFFUSION, [0])[0][0]
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
        G = _local_systems(mesh, TrialSpace(k % 3), REACTION_DIFFUSION,
                           [0])[0][0]
        assert np.abs(G - G.T).max() < 1e-12 * np.abs(G).max()
        assert np.linalg.eigvalsh(G).min() > 0


def test_local_b_constant_pairings():
    mesh = unit_square_mesh(2)
    area = mesh.areas()[0]
    trial = TrialSpace(0)
    cv, n_t = constant_test_vector(0)
    cu = np.zeros(DofMap(mesh, trial).n_local)
    cu[0] = 1.0 / np.sqrt(2.0)   # u = 1 (coefficients sit on the reference basis)
    b_rd = _local_systems(mesh, trial, REACTION_DIFFUSION, [0])[1][0]
    assert cv @ b_rd @ cu == pytest.approx(area, rel=1e-12)   # (1, 0 + 1)_T
    b_po = _local_systems(mesh, trial, POISSON, [0])[1][0]
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
        _, B = _local_systems(m, trial, POISSON, None)
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
        b = scalar_basis(degree)
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
    G, B = _local_systems(mesh, trial, kind, None)
    for e, (X, labels) in enumerate(zip(shapes, triangles)):
        G_o, B_o = physical_local_systems(X, labels, trial, kind)
        for got, want in ((G[e], G_o), (B[e], B_o)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


def test_local_load_cases():
    mesh = unit_square_mesh(2)
    area = mesh.areas()[0]
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
    times the L2 projection of f in the scalar test rows, zero tau rows."""
    from dpglab.dpg import DELTA_P, default_exactness

    p = trial.p
    moments = mesh.det[:, None] * project_l2(p + DELTA_P, source, mesh,
                                             default_exactness(p))
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



@pytest.mark.parametrize("tol", [2.0, float("nan"), 0.0, -1.0])
def test_solver_tolerance_outside_unit_interval_is_refused(tol):
    # refused before any assembly: the source is never evaluated
    def source(x, y):
        raise AssertionError("assembly started")

    with pytest.raises(ValueError, match="solver_tol must lie in"):
        assemble_solve(unit_square_mesh(2), TrialSpace(1), REACTION_DIFFUSION,
                       source, solver_tol=tol)


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


def test_scalar_source_equals_array_source_bitwise():
    mesh = refine_uniform(lshape_mesh())
    for kind in (REACTION_DIFFUSION, POISSON):
        scalar = assemble_solve(mesh, TrialSpace(1), kind,
                                lambda x, y: 2.5, dirichlet=lambda x, y: x)
        array = assemble_solve(mesh, TrialSpace(1), kind,
                               lambda x, y: np.full_like(x, 2.5),
                               dirichlet=lambda x, y: x)
        for name in ("coeffs", "eta_local"):
            assert np.array_equal(getattr(scalar, name), getattr(array, name))


def test_zero_problem_gives_zero_solution():
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(0), REACTION_DIFFUSION, None)
    assert np.abs(sol.coeffs).max() == 0.0
    assert sol.eta == 0.0
    assert np.abs(sol.eta_local).max() == 0.0
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
    assert np.array_equal(scalar.coeffs, array.coeffs)


def affine_poisson_problem():
    def exact(x, y):
        return x + y

    return ManufacturedProblem(
        kind=POISSON, exact=exact,
        exact_grad=lambda x, y: (np.ones_like(x), np.ones_like(y)),
        source=lambda x, y: np.zeros_like(x), dirichlet=exact,
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
        dm = sol.dofmap
        for v in np.flatnonzero(mesh.boundary_vertex):
            x, y = mesh.vertices[v]
            assert sol.coeffs[dm.vertex_dof(v)] == pytest.approx(x + y)


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


@pytest.mark.parametrize("p", [0, 1, 2])
def test_condensed_solve_matches_monolithic_saddle_point(p, monkeypatch):
    # oracle: the uncondensed mixed system
    #   [[G, B_free], [B_free', 0]] [eps; x_free] = [F - B_D x_D; 0]
    # assembled and solved densely; it shares only the local matrices and
    # the Dirichlet values with assemble_solve
    import dpglab.dpg as dpg
    from dpglab.dpg import _dirichlet_values
    from dpglab.problems import lshape_singular

    if p == 0:
        mesh, problem = unit_square_mesh(2), square_smooth()
    else:   # inhomogeneous Dirichlet data
        mesh, problem = refine_uniform(lshape_mesh()), lshape_singular()
    trial = TrialSpace(p)
    dm = DofMap(mesh, trial)
    G, B = _local_systems(mesh, trial, problem.kind, None)
    F = element_loads(mesh, trial, problem.source)
    x_d = _dirichlet_values(mesh, dm, problem.dirichlet)
    nt, m, _ = B.shape
    G_glob = np.zeros((nt * m, nt * m))
    B_glob = np.zeros((nt * m, dm.n_total))
    for t in range(nt):
        rows = slice(t * m, (t + 1) * m)
        G_glob[rows, rows] = G[t]
        B_glob[rows, dm.local_cols[t]] = B[t]
    B_free = B_glob[:, dm.free]
    nf = B_free.shape[1]
    K = np.block([[G_glob, B_free], [B_free.T, np.zeros((nf, nf))]])
    rhs = np.concatenate([F.ravel() - B_glob[:, ~dm.free] @ x_d[~dm.free],
                          np.zeros(nf)])
    z = np.linalg.solve(K, rhs)
    eps = z[:nt * m].reshape(nt, m)
    x = x_d.copy()
    x[dm.free] = z[nt * m:]
    interior = x[:dm.interior_count].reshape(nt, dm.k_int)
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
    skeleton = dm.num_free - dm.interior_count
    assert sol.diagnostics["skeleton_dofs"] == skeleton
    assert factored == [(skeleton, skeleton)]
    assert sol.num_dofs == dm.num_free

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    assert_close(sol.u_coeffs, interior[:, :dm.n_u])
    assert_close(sol.sigma_coeffs.reshape(nt, -1), interior[:, dm.n_u:])
    assert_close(sol.coeffs[dm.interior_count:], x[dm.interior_count:])
    assert_close(sol.eta_local, eta_local)


def test_interior_block_not_spd_raises_before_factorization(monkeypatch):
    # with the u and sigma columns of B zeroed, the interior block S_II of
    # every element class vanishes; the hybridization must refuse it before
    # any sparse factorization
    import dpglab.dpg as dpg
    from dpglab.dpg import SolverError

    real_local_systems = dpg._local_systems

    def no_interior_coupling(mesh, trial, *args):
        G, B = real_local_systems(mesh, trial, *args)
        B[:, :, :DofMap(mesh, trial).k_int] = 0.0
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
    G, B = _local_systems(mesh, trial, REACTION_DIFFUSION, None)
    schur = np.linalg.solve(G, B)
    S_loc = np.einsum("emi,emj->eij", B, schur)
    S = np.zeros((dm.n_total, dm.n_total))
    for e in range(mesh.num_triangles):
        ix = dm.local_cols[e]
        S[np.ix_(ix, ix)] += S_loc[e]
    free = np.flatnonzero(dm.free)
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
    x = sol.coeffs[sol.dofmap.local_cols]
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
    # residual data; quadratic data on a straight edge is matched exactly
    problem = affine_poisson_problem()

    def quadratic(x, y):
        return x * x + y

    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(1), POISSON,
                         lambda x, y: -2.0 * np.ones_like(x),
                         dirichlet=quadratic)
    dm = sol.dofmap
    from dpglab.spaces import edge_bubbles, edge_quadrature
    rule = edge_quadrature(10)
    t, w = rule.points, rule.weights
    bub = edge_bubbles(1, t)
    for e in np.flatnonzero(mesh.boundary_edge):
        a, b = mesh.edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
        gvals = quadratic(pts[:, 0], pts[:, 1])
        lin = (1 - t) * quadratic(*pa) + t * quadratic(*pb)
        trace = lin + sol.coeffs[dm.bubble_dofs(e)] @ bub
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
    assert diag["nnz_factor"] / diag["nnz_A"] <= 3.0


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_direct_solve_needs_no_refinement(p):
    from dpglab.problems import lshape_singular

    problem = lshape_singular()
    sol = assemble_solve(refine_uniform(lshape_mesh()), TrialSpace(p),
                         problem.kind, problem.source,
                         dirichlet=problem.dirichlet)
    assert sol.diagnostics["method"] == "direct"
    assert sol.diagnostics["iterations"] == 0
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
    the largest entry of the condensed load of the free dofs."""
    from dpglab.dpg import _dirichlet_values

    dm = DofMap(mesh, trial)
    G, B = _local_systems(mesh, trial, kind, None)
    F = element_loads(mesh, trial, source)
    x = _dirichlet_values(mesh, dm, dirichlet)
    S_loc, r_loc, ginv_b, ginv_f = condense_load(G, B, F)
    S = np.zeros((dm.n_total, dm.n_total))
    r = np.zeros(dm.n_total)
    for ix, S_t, r_t in zip(dm.local_cols, S_loc, r_loc):
        S[np.ix_(ix, ix)] += S_t
        r[ix] += r_t
    free = dm.free
    free_load = (r - S @ x)[free]
    x[free] = np.linalg.solve(S[np.ix_(free, free)], free_load)
    eps = ginv_f - np.einsum("emn,en->em", ginv_b, x[dm.local_cols])
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

    assert_close(sol.coeffs, x)
    assert_close(sol.eta_local, eta_local)
    assert_close(sol.diagnostics["load_scale"], load_scale)
    assert sol.diagnostics["galerkin_residual"] <= 1e-8 * load_scale


@pytest.mark.parametrize("kind", [REACTION_DIFFUSION, POISSON])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_condense_classes_match_dense_oracle(p, kind):
    # the three stacks of both condensations against dense solves with G
    # and S_II: w'w = [B | E]' G^{-1} [B | E], hybrid the Schur complement
    # of S_II in it, and S_II inner = [S_IS | R_I]; on a perturbed mesh
    # every element is a class of its own
    from dpglab.dpg import _class_bytes, _condense_classes

    mesh = perturbed(refine_uniform(lshape_mesh()))
    trial = TrialSpace(p)
    dm = DofMap(mesh, trial)
    rep = np.arange(mesh.num_triangles)
    ops = _condense_classes(dm, kind, rep)
    G, B = _local_systems(mesh, trial, kind, rep)
    nc, m, n = B.shape
    n_t, k = m // 3, dm.k_int
    load_rows = np.broadcast_to(np.eye(m, n_t), (nc, m, n_t))
    S = condense_oracle(G, np.concatenate([B, load_rows], axis=2))[0]
    S_II, S_I = S[:, :k, :k], S[:, :k, k:]

    assert sorted(ops) == ["hybrid", "inner", "w"]
    assert ops["w"].shape == (nc, m, n + n_t)
    assert ops["hybrid"].shape == (nc, n - k, n - k + n_t)
    assert ops["inner"].shape == (nc, k, n - k + n_t)
    w = ops["w"]
    assert_close13(np.swapaxes(w, 1, 2) @ w, S)
    hybrid = S[:, k:n, k:] - S[:, k:n, :k] @ np.linalg.solve(S_II, S_I)
    assert_close13(ops["hybrid"], hybrid)
    assert np.abs(S_II @ ops["inner"] - S_I).max() <= 1e-12 * np.abs(S_I).max()
    assert sum(a[0].nbytes for a in ops.values()) == _class_bytes(dm)


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
    for name in ("coeffs", "u_coeffs", "sigma_coeffs", "eta_local"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.eta == want.eta
    assert ({k: v for k, v in got.diagnostics.items() if k not in skip} ==
            {k: v for k, v in want.diagnostics.items() if k not in skip})


def test_class_store_reuses_operators_bitwise():
    # a second solve on the same mesh finds every class in the store; a
    # solve for another trial space starts the store afresh
    from dpglab.dpg import ClassStore
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
    class_bytes = sum(a[0].nbytes for a in store.ops.values())
    assert class_bytes == _class_bytes(sol.dofmap) == 7155 * 8
    assert mesh.num_triangles == 1536
    assert peak < mesh.num_triangles * class_bytes / 2     # 41.9 MiB


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
        exact_grad=exact_grad, source=source, dirichlet=exact,
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

