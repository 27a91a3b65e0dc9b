"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Uniform-refinement slopes are fitted over the last 3 levels; adaptive
slopes over the trailing decade of dof counts, where the step-to-step
noise of small bulk-marking increments averages out.
"""

import time

import numpy as np
import pytest

from dpglab.adapt import mark
from dpglab.dpg import (POISSON, REACTION_DIFFUSION, DofMap, TrialSpace,
                        _local_systems, assemble_solve)
from dpglab.mesh import Mesh, lshape_mesh, refine_marked, unit_square_mesh
from dpglab.postprocess import postprocess_fields
from dpglab.problems import (ManufacturedProblem, error_report,
                             lshape_singular, square_smooth)
from dpglab.spaces import (ScalarBasis, monomial_exponents, monomial_integral,
                           project_l2, triangle_quadrature)
from dpglab.study import StudyConfig, fit_slope, run_study

_STUDIES = {}


def study(**kwargs):
    key = tuple(sorted(kwargs.items()))
    if key not in _STUDIES:
        t0 = time.time()
        records = run_study(StudyConfig(**kwargs))
        _STUDIES[key] = (records, time.time() - t0)
    return _STUDIES[key]


def report(criterion, checks):
    failures = [f"{label}={value:.4f} not in [{lo:.3f}, {hi:.3f}]"
                for label, value, lo, hi in checks
                if not lo <= value <= hi]
    detail = "; ".join(f"{label}={value:.4f}" for label, value, _, _ in checks)
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def test_criterion_1_augmented_field_rates():
    checks = []
    for p in (0, 1):
        records, elapsed = study(problem="square", p=p, trial="augmented",
                                 mode="uniform", levels=6)
        slope = fit_slope(records, "err_u", window=3)
        target = (p + 2) / 2
        checks.append((f"p{p}_err_u_slope", slope, target - 0.1,
                       target + 0.1))
        checks.append((f"p{p}_runtime_s", elapsed, 0.0, 60.0))
    report(1, checks)


def test_criterion_2_postprocessed_rates():
    checks = []
    for p, tol, levels in ((0, 0.1, 6), (1, 0.1, 6), (2, 0.15, 5)):
        records, elapsed = study(problem="square", p=p, trial="standard",
                                 mode="uniform", levels=levels,
                                 postprocess=True)
        slope = fit_slope(records, "err_u_post", window=3)
        target = (p + 2) / 2
        checks.append((f"p{p}_post_slope", slope, target - tol, target + tol))
    checks.append(("p2_runtime_s", elapsed, 0.0, 300.0))
    report(2, checks)


def test_criterion_3_estimator_and_flux_rates():
    checks = []
    for p in (0, 1):
        records, _ = study(problem="square", p=p, trial="standard",
                           mode="uniform", levels=6, postprocess=True)
        target = (p + 1) / 2
        checks.append((f"p{p}_eta_slope", fit_slope(records, "eta", 3),
                       target - 0.1, target + 0.1))
        checks.append((f"p{p}_sigma_slope",
                       fit_slope(records, "err_sigma", 3),
                       target - 0.1, target + 0.1))
    report(3, checks)


def test_criterion_4_lshape_uniform_p0():
    records, _ = study(problem="lshape", p=0, trial="standard",
                       mode="uniform", levels=6, postprocess=True)
    report(4, [
        ("eta_slope", fit_slope(records, "eta", 3), 1 / 3 - 0.05,
         1 / 3 + 0.05),
        ("post_slope", fit_slope(records, "err_u_post", 3), 2 / 3 - 0.1,
         2 / 3 + 0.1),
        ("err_u_slope", fit_slope(records, "err_u", 3), 0.4, 0.6),
    ])


def test_criterion_5_lshape_uniform_p1():
    records, _ = study(problem="lshape", p=1, trial="standard",
                       mode="uniform", levels=6, postprocess=True)
    report(5, [
        ("post_slope", fit_slope(records, "err_u_post", 3), 0.75 - 0.1,
         0.75 + 0.1),
    ])


def test_criterion_6_lshape_adaptive():
    checks = []
    for p, max_dofs in ((0, 12000), (1, 25000)):
        records, _ = study(problem="lshape", p=p, trial="standard",
                           mode="adaptive", theta=0.25, max_dofs=max_dofs,
                           postprocess=True)
        window = sum(r.dofs >= records[-1].dofs / 10 for r in records)
        eta_target = (p + 1) / 2
        post_target = (p + 2) / 2
        checks.append((f"p{p}_eta_slope",
                       fit_slope(records, "eta", window),
                       eta_target - 0.1, eta_target + 0.1))
        checks.append((f"p{p}_post_slope",
                       fit_slope(records, "err_u_post", window),
                       post_target - 0.15, post_target + 0.15))
    report(6, checks)


def test_estimator_reliability():
    # the DPG estimator is reliable: the field errors are at most a
    # constant times eta (Carstensen, Demkowicz, Gopalakrishnan, SIAM J.
    # Numer. Anal. 52, 2014), here on every level of the studies of
    # criteria 1-6, taken from the cache
    runs = [dict(problem="square", p=p, trial="augmented", mode="uniform",
                 levels=6) for p in (0, 1)]
    runs += [dict(problem="square", p=p, trial="standard", mode="uniform",
                  levels=levels, postprocess=True)
             for p, levels in ((0, 6), (1, 6), (2, 5))]
    runs += [dict(problem="lshape", p=p, trial="standard", mode="uniform",
                  levels=6, postprocess=True) for p in (0, 1)]
    runs += [dict(problem="lshape", p=p, trial="standard", mode="adaptive",
                  theta=0.25, max_dofs=max_dofs, postprocess=True)
             for p, max_dofs in ((0, 12000), (1, 25000))]
    checks = []
    for kwargs in runs:
        records, _ = study(**kwargs)
        ratios = [np.hypot(r.err_u, r.err_sigma) / r.eta for r in records]
        label = (f"{kwargs['problem']}_p{kwargs['p']}_{kwargs['trial']}_"
                 f"{kwargs['mode']}_max_ratio")
        checks.append((label, max(ratios), 0.0, 1.2))
    report("reliability", checks)


def test_criterion_7_property_suite():
    t0 = time.time()

    # quadrature exactness against the closed-form monomial integrals
    for degree in (0, 1, 2, 3, 5, 9, 14):
        rule = triangle_quadrature(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a, b in monomial_exponents(degree):
            assert np.sum(rule.weights * x ** a * y ** b) == pytest.approx(
                monomial_integral(a, b), rel=1e-13, abs=1e-15)

    # L2 projection idempotence and orthogonality to 1e-12
    element = Mesh([[0.1, 0.0], [1.2, 0.2], [0.3, 1.1]], [[0, 1, 2]], [0])
    _, det, inv = element.geometry()
    coeffs = project_l2(1, lambda x, y: x * x - y, element, exactness=8)[0]

    def projected(px, py):
        pts = np.column_stack([np.ravel(px), np.ravel(py)])
        ref = (pts - element.vertices[0]) @ inv[0].T
        return (coeffs @ ScalarBasis(1).values(ref)).reshape(np.shape(px))

    twice = project_l2(1, projected, element, exactness=8)[0]
    assert np.abs(twice - coeffs).max() < 1e-12
    rule = triangle_quadrature(8)
    xy = element.to_physical(rule.points)[0]
    resid = (xy[:, 0] ** 2 - xy[:, 1]) - projected(xy[:, 0], xy[:, 1])
    w = rule.weights * det[0]
    for ell in (np.ones(len(w)), xy[:, 0], xy[:, 1]):
        assert abs(np.sum(w * resid * ell)) < 1e-12

    # Gram SPD on random elements
    rng = np.random.default_rng(2)
    for p in (0, 1, 2):
        v = rng.uniform(-1, 1, size=(3, 2))
        d1, d2 = v[1] - v[0], v[2] - v[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0:
            v[[1, 2]] = v[[2, 1]]
        mesh1 = Mesh(v, np.array([[0, 1, 2]]), np.array([0]))
        G, _ = _local_systems(DofMap(mesh1, TrialSpace(p)),
                              REACTION_DIFFUSION, [0])
        assert np.linalg.eigvalsh(G[0]).min() > 0

    # Galerkin orthogonality on every solve here
    smooth = square_smooth()
    singular = lshape_singular()
    solves = [
        assemble_solve(unit_square_mesh(2), TrialSpace(1), smooth.kind,
                       smooth.source),
        assemble_solve(refine_marked(lshape_mesh(), [0, 1, 2]), TrialSpace(0),
                       singular.kind, singular.source,
                       dirichlet=singular.dirichlet),
    ]
    for sol in solves:
        scale = max(sol.diagnostics["load_scale"], 1e-30)
        assert sol.diagnostics["galerkin_residual"] <= 1e-8 * scale

    # polynomial exactness: affine Poisson solution, Augmented(0)
    affine = ManufacturedProblem(
        kind=POISSON,
        exact=lambda x, y: x + y,
        exact_grad=lambda x, y: (np.ones_like(x), np.ones_like(y)),
        source=lambda x, y: np.zeros_like(x),
        initial_mesh=lambda: unit_square_mesh(1))
    sol = assemble_solve(unit_square_mesh(2), TrialSpace(0, augmented=True),
                         POISSON, affine.source, dirichlet=affine.dirichlet)
    rep = error_report(sol, None, affine)
    assert rep.err_u <= 1e-8 and rep.err_sigma <= 1e-8 and sol.eta <= 1e-8

    # postprocessing: mean constraint and exact gradient reproduction
    mesh = unit_square_mesh(2)
    basis2 = ScalarBasis(2)
    rule6 = triangle_quadrature(6)
    target = rng.standard_normal(basis2.dim)
    verts = mesh.vertices[mesh.triangles[0]]
    jac = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    inv_t = np.linalg.inv(jac).T
    grad_ref = basis2.gradients(rule6.points)
    gphys = np.einsum("ca,ika->cik", inv_t, grad_ref)
    gvals = np.einsum("j,cjk->ck", target, gphys)
    phi1 = ScalarBasis(1).values(rule6.points)
    mass1 = (phi1 * rule6.weights) @ phi1.T
    sigma = np.linalg.solve(mass1, (phi1 * rule6.weights) @ gvals.T).T
    u_lo = np.linalg.solve(
        mass1, (phi1 * rule6.weights) @ (target @ basis2.values(rule6.points)))
    element = Mesh(verts, [[0, 1, 2]], [0])
    out = postprocess_fields(element, u_lo[None], sigma[None])[0]
    assert np.abs(out - target).max() < 1e-12
    mean_out = out @ basis2.values(rule6.points) @ rule6.weights
    mean_in = u_lo @ phi1 @ rule6.weights
    assert abs(mean_out - mean_in) <= 1e-12 * max(1.0, abs(mean_in))

    # bulk marking returns a minimal-cardinality set
    eta_local = rng.uniform(0, 1, 50)
    marked = mark(eta_local, 0.3)
    eta_sq = eta_local ** 2
    assert eta_sq[marked].sum() >= 0.3 * eta_sq.sum() * (1 - 1e-12)
    smallest = marked[np.argmin(eta_sq[marked])]
    assert eta_sq[marked].sum() - eta_sq[smallest] < 0.3 * eta_sq.sum()

    # NVB conformity and area conservation over 8 rounds
    m = lshape_mesh()
    area0 = 0.5 * m.geometry()[1].sum()
    for _ in range(8):
        picks = rng.choice(m.num_triangles,
                           size=max(1, m.num_triangles // 4), replace=False)
        m = refine_marked(m, picks)
        counts = np.bincount(m.tri_edges.ravel(), minlength=m.num_edges)
        assert counts.max() <= 2 and counts.min() >= 1
        area = 0.5 * m.geometry()[1].sum()
        assert area == pytest.approx(area0, rel=1e-12)

    # estimator locality
    sol = assemble_solve(unit_square_mesh(2), TrialSpace(0), smooth.kind,
                         smooth.source)
    assert sol.eta ** 2 == pytest.approx(np.sum(sol.eta_local ** 2),
                                         rel=1e-12)

    elapsed = time.time() - t0
    report(7, [("runtime_s", elapsed, 0.0, 30.0)])


def test_criterion_8_deterministic_csv(tmp_path):
    paths = []
    for name in ("d1.csv", "d2.csv"):
        path = tmp_path / name
        run_study(StudyConfig(problem="lshape", p=0, trial="standard",
                              mode="adaptive", theta=0.25, max_dofs=900,
                              postprocess=True, out=str(path)))
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    print(f"ACCEPTANCE 8 {'PASS' if identical else 'FAIL'}: "
          f"bitwise-identical CSVs = {identical}")
    assert identical
