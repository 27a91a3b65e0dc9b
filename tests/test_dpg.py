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
    """Loads F_T (nt, m) of every element: the moments (f, v_i)_T in the
    scalar test rows, zero tau rows."""
    from dpglab.dpg import (DELTA_P, _load_moments, _reference_tables,
                            default_exactness)

    p = trial.p
    tab = _reference_tables(trial.u_degree, p, p + DELTA_P,
                            default_exactness(p))
    F = np.zeros((mesh.num_triangles, 3 * tab["n_t"]))
    F[:, :tab["n_t"]] = _load_moments(tab, source, mesh)
    return F


def condense_load(gram, coupling, load):
    """condense() with a 1-D load per element as the last coupling
    column, split into (S, r, G^{-1} B, G^{-1} F)."""
    n = coupling.shape[-1]
    schur, solved = condense(gram, np.concatenate([coupling, load[..., None]],
                                                  axis=-1))
    return (schur[..., :n, :n], schur[..., :n, n], solved[..., :n],
            solved[..., n])


def test_condense_hand_example():
    G = np.eye(2)
    B = np.array([[1.0], [0.0]])
    F = np.array([1.0, 0.0])
    S, r, _, _ = condense_load(G, B, F)
    assert S == pytest.approx(np.array([[1.0]]))
    assert r == pytest.approx(np.array([1.0]))
    S2, r2, _, _ = condense_load(G, B, np.zeros(2))
    assert r2 == pytest.approx(np.array([0.0]))


def test_condense_symmetry_and_nullspace():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8))
    G = A @ A.T + 8 * np.eye(8)
    B = rng.standard_normal((8, 5))
    S, r, _, _ = condense_load(G, B, rng.standard_normal(8))
    assert np.abs(S - S.T).max() < 1e-13 * np.abs(S).max()
    assert np.linalg.eigvalsh(S).min() > -1e-12
    assert np.allclose(S @ np.zeros(5), 0.0)
    # a stack of elements condenses like a loop over its members
    A = rng.standard_normal((4, 8, 8))
    Gs = A @ A.transpose(0, 2, 1) + 8 * np.eye(8)
    Bs = rng.standard_normal((4, 8, 5))
    Fs = rng.standard_normal((4, 8))
    S_all, r_all, _, _ = condense_load(Gs, Bs, Fs)
    # without load columns S is the same block
    S_none = condense(Gs, Bs)[0]
    assert np.abs(S_none - S_all).max() <= 1e-13 * np.abs(S_all).max()
    for k in range(4):
        S_k, r_k, _, _ = condense_load(Gs[k], Bs[k], Fs[k])
        assert np.abs(S_all[k] - S_k).max() <= 1e-13 * np.abs(S_k).max()
        assert np.abs(r_all[k] - r_k).max() <= 1e-13 * np.abs(r_k).max()
    # several load columns condense column by column
    Fm = rng.standard_normal((4, 8, 3))
    many_S, many_solved = condense(Gs, np.concatenate([Bs, Fm], axis=2))
    for j in range(3):
        S_j, r_j, _, ginv_f_j = condense_load(Gs, Bs, Fm[:, :, j])
        assert np.abs(many_S[:, :5, 5 + j] - r_j).max() <= 1e-13 * np.abs(r_j).max()
        assert np.abs(many_solved[:, :, 5 + j] - ginv_f_j).max() <= 1e-13 * np.abs(ginv_f_j).max()
        assert np.abs(many_S[:, :5, :5] - S_j).max() <= 1e-13 * np.abs(S_j).max()


def test_condense_rejects_indefinite_gram():
    G = np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError):
        condense_load(G, np.eye(2), np.zeros(2))
    # one indefinite Gram in a stack of SPD ones
    Gs = np.repeat(np.eye(2)[None], 3, axis=0)
    Gs[1] = G
    with pytest.raises(np.linalg.LinAlgError):
        condense_load(Gs, np.repeat(np.eye(2)[None], 3, axis=0), np.zeros((3, 2)))


def test_mesh_without_triangles_is_refused():
    empty = Mesh(np.zeros((3, 2)), np.zeros((0, 3), int), [])
    with pytest.raises(ValueError, match="no triangles"):
        assemble_solve(empty, TrialSpace(1), REACTION_DIFFUSION, None)


def test_trial_space_order_is_a_nonnegative_integer():
    for p in (1.5, True, "1", -1, np.float64(2.0)):
        with pytest.raises(ValueError, match="integer >= 0"):
            TrialSpace(p)
    # numpy integers, as StudyConfig may hold them, pass
    assert TrialSpace(np.int64(2)).u_degree == 2
    assert TrialSpace(np.int32(1), augmented=True).u_degree == 2


def test_zero_problem_gives_zero_solution():
    mesh = unit_square_mesh(2)
    sol = assemble_solve(mesh, TrialSpace(0), REACTION_DIFFUSION, None)
    assert np.abs(sol.coeffs).max() == 0.0
    assert sol.eta == 0.0
    assert np.abs(sol.residual_coeffs).max() == 0.0


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


def affine_poisson_problem():
    def exact(x, y):
        return x + y

    return ManufacturedProblem(
        name="affine", domain="square", kind=POISSON, exact=exact,
        exact_grad=lambda x, y: (np.ones_like(x), np.ones_like(y)),
        source=lambda x, y: np.zeros_like(x), dirichlet=exact,
        regularity="smooth")


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
    assert_close(sol.residual_coeffs, eps)
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
    from dpglab.dpg import default_exactness

    problem = square_smooth()
    mesh = refine_uniform(unit_square_mesh(1))
    sol = assemble_solve(mesh, TrialSpace(0), problem.kind, problem.source)
    eta, eta_local = sol.eta, sol.eta_local
    # locality: the total is exactly the root of summed local squares
    assert eta == pytest.approx(np.sqrt(np.sum(eta_local ** 2)), rel=1e-13)
    # norm consistency: recompute ||eps||_V^2 with elevated quadrature
    G_hi, _ = _local_systems(mesh, TrialSpace(0), problem.kind, None,
                             default_exactness(0) + 4)
    direct = np.einsum("em,emn,en->e", sol.residual_coeffs, G_hi,
                       sol.residual_coeffs)
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
    """condense() on every element's own local systems, no element
    classes, and a dense solve of the assembled system."""
    from dpglab.dpg import _dirichlet_values

    dm = DofMap(mesh, trial)
    G, B = _local_systems(mesh, trial, kind, None)
    F = element_loads(mesh, trial, source)
    x = _dirichlet_values(mesh, dm, dirichlet)
    S = np.zeros((dm.n_total, dm.n_total))
    r = np.zeros(dm.n_total)
    parts = [condense_load(G[t], B[t], F[t]) for t in range(mesh.num_triangles)]
    for ix, (S_t, r_t, _, _) in zip(dm.local_cols, parts):
        S[np.ix_(ix, ix)] += S_t
        r[ix] += r_t
    free = dm.free
    x[free] = np.linalg.solve(S[np.ix_(free, free)], (r - S @ x)[free])
    eps = np.array([ginv_f - ginv_b @ x[ix]
                    for ix, (_, _, ginv_b, ginv_f) in zip(dm.local_cols, parts)])
    eta_local = np.sqrt(np.einsum("em,emn,en->e", eps, G, eps))
    return x, eps, eta_local


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
    x, eps, eta_local = per_element_oracle(mesh, trial, kind, source,
                                           dirichlet)

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    assert_close(sol.coeffs, x)
    assert_close(sol.residual_coeffs, eps)
    assert_close(sol.eta_local, eta_local)


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


def assert_same_solution(got, want):
    """Bitwise equal solutions; classes_condensed may differ."""
    for name in ("coeffs", "u_coeffs", "sigma_coeffs", "residual_coeffs",
                 "eta_local"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.eta == want.eta
    skip = {"classes_condensed"}
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
        name=f"poly-{p}", domain="lshape", kind=POISSON, exact=exact,
        exact_grad=exact_grad, source=source, dirichlet=exact,
        regularity="smooth")


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

