"""Bulk marking and adaptive loop tests."""

import numpy as np
import pytest

from dpglab.adapt import adaptive_loop, mark
from dpglab.dpg import TrialSpace
from dpglab.mesh import refine_marked
from dpglab.problems import lshape_singular, square_smooth
from dpglab.study import fit_slope


def test_mark_hand_cases():
    # eta = [3, 2, 1]: eta^2 = 14, theta = 1/4 needs 3.5 <= sum
    assert list(mark([3, 2, 1], 0.25)) == [0]
    # theta = 0.9 needs 12.6: top two carry 13
    assert list(mark([3, 2, 1], 0.9)) == [0, 1]


def test_mark_all_equal_theta_near_one():
    assert list(mark([1.0, 1.0, 1.0, 1.0], 1 - 1e-12)) == [0, 1, 2, 3]


def test_mark_zero_estimates():
    assert mark(np.zeros(5), 0.5).size == 0


def test_mark_parameter_validation():
    with pytest.raises(ValueError):
        mark([1.0], 0.0)
    with pytest.raises(ValueError):
        mark([1.0], 1.0)
    with pytest.raises(ValueError):
        mark([1.0], "0.5")
    with pytest.raises(ValueError):
        mark([1.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        mark([1.0, np.nan, 2.0, 0.5], 0.5)


def test_mark_tie_break_is_deterministic():
    # equal values are taken in ascending index order
    assert list(mark([2, 1, 2, 1, 2], 0.5)) == [0, 2]
    assert list(mark([1, 2, 2, 1, 2], 0.5)) == [1, 2]


@pytest.mark.parametrize("seed", range(6))
def test_mark_minimal_cardinality(seed):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 1.0, size=40)
    theta = rng.uniform(0.05, 0.95)
    marked = mark(eta, theta)
    eta_sq = eta ** 2
    total = eta_sq.sum()
    picked = eta_sq[marked].sum()
    assert picked >= theta * total * (1 - 1e-12)
    # dropping the smallest marked contribution violates the criterion
    smallest = marked[np.argmin(eta_sq[marked])]
    rest = picked - eta_sq[smallest]
    assert rest < theta * total


def test_adaptive_loop_dofs_strictly_increase():
    run = adaptive_loop(lshape_singular(), TrialSpace(0), theta=0.25,
                        max_dofs=600)
    dofs = run.dofs()
    assert len(dofs) > 3
    assert np.all(np.diff(dofs) > 0)
    assert dofs[-1] >= 600


def test_adaptive_loop_max_steps():
    run = adaptive_loop(lshape_singular(), TrialSpace(0), theta=0.25,
                        max_dofs=10 ** 9, max_steps=4)
    assert len(run.steps) == 4


@pytest.mark.parametrize("bounds", [
    dict(max_steps=0), dict(max_dofs=0), dict(max_dofs=10 ** 9, max_steps=-1),
    dict(max_dofs=None, max_steps=None), dict(theta=0.0), dict(theta=1.0),
    dict(theta=float("nan")), dict(max_steps=2.5), dict(max_steps=True),
    dict(max_dofs=True), dict(max_dofs=1e4), dict(theta="0.3"),
    dict(solver_tol="1e-10"), dict(solver_tol=2.0),
    dict(error_exactness_bump=0.5), dict(error_exactness_bump=True),
    dict(postprocess="no"), dict(postprocess=1)],
    ids=["zero-steps", "zero-dofs", "negative-steps", "unbounded",
         "theta-0", "theta-1", "theta-nan", "fractional-steps", "bool-steps",
         "bool-dofs", "float-dofs", "string-theta", "string-tol", "tol-2",
         "fractional-bump", "bool-bump", "string-postprocess",
         "int-postprocess"])
def test_adaptive_loop_rejects_bad_bounds_before_solving(bounds,
                                                         monkeypatch):
    import dpglab.adapt as adapt_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("assemble_solve called")

    monkeypatch.setattr(adapt_mod, "assemble_solve", no_solve)
    kwargs = dict(theta=0.25, max_dofs=600, max_steps=None)
    kwargs.update(bounds)
    with pytest.raises(ValueError):
        adaptive_loop(lshape_singular(), TrialSpace(0), **kwargs)



def test_steps_refuse_an_unknown_mode_before_solving():
    # a misspelt mode would otherwise run adaptive refinement
    import dataclasses

    from dpglab.adapt import _steps

    def source(x, y):
        raise AssertionError("solved")

    problem = dataclasses.replace(square_smooth(), source=source)
    steps = _steps(problem, TrialSpace(1), "unifrom", 0.25, None, 3, False,
                   None, 1e-10, 0)
    with pytest.raises(ValueError, match="unknown mode 'unifrom'"):
        next(steps)


def test_adaptive_loop_one_step_bounds():
    # the smallest bounds allowed still solve exactly once
    for bounds in (dict(max_steps=1, max_dofs=None), dict(max_dofs=1)):
        run = adaptive_loop(lshape_singular(), TrialSpace(0), theta=0.25,
                            **bounds)
        assert len(run.steps) == 1


@pytest.mark.parametrize("mode", ["adaptive", "uniform"])
def test_steps_store_holds_the_classes_of_each_mesh(mode, monkeypatch):
    # _steps passes one ClassStore to every solve; after each solve it
    # holds exactly the classes of that mesh.  Uniform refinement leaves
    # no element alone, so there every class is condensed anew
    import dpglab.adapt as adapt_mod

    seen = []
    real = adapt_mod.assemble_solve

    def recording(*args, store, **kwargs):
        solution = real(*args, store=store, **kwargs)
        seen.append((len(store), solution.diagnostics))
        return solution

    monkeypatch.setattr(adapt_mod, "assemble_solve", recording)
    steps = list(adapt_mod._steps(lshape_singular(), TrialSpace(1), mode,
                                  0.25, 1500, None, False, None, 1e-10, 0))
    assert len(seen) == len(steps) > 2
    for size, diag in seen:
        assert size == diag["element_classes"]
    condensed = [diag["classes_condensed"] for _, diag in seen]
    classes = [diag["element_classes"] for _, diag in seen]
    if mode == "uniform":
        assert condensed == classes
    else:
        assert condensed[0] == classes[0]
        assert sum(condensed) < sum(classes) / 2


def test_adaptive_refinement_concentrates_at_corner():
    # refinement keeps drilling into the reentrant corner: the smallest
    # element always touches the origin and the corner elements shrink
    # steadily (their minimum area drops within every three-step window,
    # the corner occasionally pausing one step while surrounding layers
    # catch up)
    run = adaptive_loop(lshape_singular(), TrialSpace(0), theta=0.25,
                        max_dofs=1500)

    def corner_area(mesh):
        touches = np.array([np.any(np.all(mesh.vertices[tri] == 0.0, axis=1))
                            for tri in mesh.triangles])
        return mesh.areas()[touches].min()

    areas = [corner_area(step.mesh) for step in run.steps]
    assert all(b <= a for a, b in zip(areas, areas[1:]))
    assert all(areas[k + 3] < areas[k] for k in range(len(areas) - 3))
    for step in run.steps[2:]:
        assert corner_area(step.mesh) == pytest.approx(
            step.mesh.areas().min())
    assert areas[-1] < 1e-3 * areas[0]


def test_theta_near_one_matches_uniform_marking():
    problem = square_smooth()
    run = adaptive_loop(problem, TrialSpace(0), theta=1 - 1e-12, max_steps=2,
                        max_dofs=10 ** 9)
    stepped = run.steps[1].mesh
    uniform = refine_marked(run.steps[0].mesh,
                            np.arange(run.steps[0].mesh.num_triangles))
    assert stepped.num_triangles == uniform.num_triangles


def test_adaptive_matches_uniform_rate_on_smooth_problem():
    # on the convex smooth problem adaptivity cannot beat the uniform
    # rate; the fitted slopes agree within ten percent
    problem = square_smooth()
    run = adaptive_loop(problem, TrialSpace(0), theta=0.25, max_dofs=4000)
    dofs = run.dofs().astype(float)
    eta = np.array([s.solution.eta for s in run.steps])
    sel = dofs >= dofs[-1] / 16
    slope_adaptive = -np.polyfit(np.log(dofs[sel]), np.log(eta[sel]), 1)[0]

    from dpglab.study import StudyConfig, run_study
    records = run_study(StudyConfig(problem="square", p=0, trial="standard",
                                    mode="uniform", levels=6))
    slope_uniform = fit_slope(records, "eta", window=3)
    assert abs(slope_adaptive - slope_uniform) <= 0.1 * slope_uniform
