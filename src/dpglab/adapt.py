"""
Bulk (Doerfler) marking and the SOLVE -> ESTIMATE -> MARK -> REFINE loop
that uniform and adaptive studies share.

The marking step selects a minimal-cardinality element set M with

    theta * eta^2 <= sum_{T in M} eta(T)^2,

found by sorting the local contributions eta(T)^2 in descending order and
taking the shortest prefix that reaches the threshold.  Ties are broken by
ascending element index, so marking is deterministic under permutations of
equal values.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .dpg import ClassStore, assemble_solve
from .mesh import refine_marked, refine_uniform
from .postprocess import postprocess_all
from .problems import error_exactness, error_report
from .spaces import (_check_array, _check_flag, _check_integer,
                     _check_unit_interval)

MODES = ("uniform", "adaptive")     # the refinement strategies of _steps


def mark(eta_local, theta):
    """Minimal element set carrying a theta fraction of the squared estimator.

    Parameters
    ----------
    eta_local : (nt,) array of finite, nonnegative local estimator values;
        another shape raises ValueError (spaces._check_array).
    theta : real number in (0, 1), not a bool
        (spaces._check_unit_interval); anything else raises ValueError.

    Returns
    -------
    (k,) int array of marked element indices in ascending order; empty when
    all local contributions vanish.
    """
    eta_local = _check_array(eta_local, "eta_local", (None,))
    _check_unit_interval(theta, "theta")
    if not (np.isfinite(eta_local) & (eta_local >= 0.0)).all():
        raise ValueError("local estimator values must be finite and "
                         "nonnegative")
    eta_sq = eta_local ** 2
    # descending; a stable sort keeps equal contributions in ascending
    # element order, the tie-break of the module docstring
    order = np.argsort(-eta_sq, kind="stable")
    running = np.cumsum(eta_sq[order])
    total = running[-1] if running.size else 0.0
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    # shortest prefix of the sorted contributions reaching theta * total;
    # total is read off the same cumulative sum so the prefix always exists
    k = int(np.searchsorted(running, theta * total, side="left")) + 1
    # ascending by a mask, not by np.sort: numpy's unstable int64 sort
    # pages code of its own into a study
    marked = np.zeros(eta_sq.size, dtype=bool)
    marked[order[:k]] = True
    return np.flatnonzero(marked)


@dataclass
class AdaptiveStep:
    """One SOLVE/ESTIMATE pass of the adaptive loop: its mesh, its
    Solution and its ErrorReport.  The postprocessed field is not kept:
    the report holds its error err_u_post, and postprocess_all(solution)
    rebuilds it bit for bit."""
    mesh: object
    solution: object
    report: object


@dataclass
class AdaptiveRun:
    steps: List[AdaptiveStep]


def adaptive_loop(problem, trial, theta=0.25, max_dofs=10000,
                  max_steps=None, postprocess=False, mesh=None,
                  solver_tol=1e-10, error_exactness_bump=0):
    """Run the adaptive algorithm on a manufactured problem.

    Each iteration solves on the current mesh, records the error report
    and estimator, and stops once num_dofs >= max_dofs (or after
    max_steps solves); otherwise it bulk-marks and refines by
    newest-vertex bisection.  This is _steps in "adaptive" mode, run to
    the end, so every parameter _check_loop refuses (a bound that is not
    an integer >= 1, theta or solver_tol outside (0, 1), a postprocess
    that is neither a bool nor a numpy bool, a bad error_exactness_bump)
    raises ValueError before the first solve; the CLI refuses the same
    values through the same gate.

    Returns
    -------
    AdaptiveRun with one AdaptiveStep per solve; dof counts increase
    strictly from step to step.  Every step keeps its mesh, solution and
    report, so the run holds all of them at once; the postprocessed
    fields are not kept (AdaptiveStep), and a kept mesh holds its
    topology and vertices alone (Mesh).
    """
    return AdaptiveRun(steps=list(_steps(
        problem, trial, "adaptive", theta, max_dofs, max_steps, postprocess,
        mesh, solver_tol, error_exactness_bump)))


def _check_loop(trial, mode, theta, max_dofs, max_steps, postprocess,
                solver_tol, bump):
    """Raise ValueError unless _steps can run with these parameters.

    The one gate of the solve loop, which StudyConfig.validate calls as
    well (max_steps is the study's levels): mode is one of MODES; theta
    and solver_tol are real numbers in (0, 1); max_dofs and max_steps are
    integers >= 1 or None, not both None, and bools are refused;
    postprocess is a bool or a numpy bool; the error-quadrature bump
    follows problems.error_exactness at order trial.p.  The type and
    range rules are the gates of spaces (_check_unit_interval,
    _check_integer and _check_flag).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose {' or '.join(MODES)}")
    _check_unit_interval(theta, "theta")
    if max_dofs is None and max_steps is None:
        raise ValueError("the loop needs max_dofs or max_steps / levels")
    for name, bound in (("max_dofs", max_dofs),
                        ("max_steps / levels", max_steps)):
        if bound is not None:
            _check_integer(bound, name, 1)
    _check_flag(postprocess, "postprocess")
    _check_unit_interval(solver_tol, "solver_tol")
    error_exactness(trial.p, bump)


def _steps(problem, trial, mode, theta, max_dofs, max_steps, postprocess,
           mesh, solver_tol, error_exactness_bump):
    """The one SOLVE -> ESTIMATE -> REFINE loop of every study: yields an
    AdaptiveStep per solve, from mesh (None: the problem's initial mesh).

    Stops once num_dofs >= max_dofs or after max_steps solves (None: no
    bound, but not both); otherwise refines uniformly (mode "uniform") or
    the Doerfler set mark(eta_local, theta) (mode "adaptive"), stopping
    when that set is empty.  _check_loop refuses bad parameters before
    the first solve.
    One ClassStore carries the condensed element-class operators from
    each solve to the next.  The pipeline calls are looked up in this
    module at call time, so a tracer can wrap them here.
    """
    _check_loop(trial, mode, theta, max_dofs, max_steps, postprocess,
                solver_tol, error_exactness_bump)
    if mesh is None:
        mesh = problem.initial_mesh()
    store = ClassStore()
    solves = 0
    while True:
        solution = assemble_solve(mesh, trial, problem.kind, problem.source,
                                  dirichlet=problem.dirichlet,
                                  solver_tol=solver_tol, store=store)
        # the postprocessed field is a temporary: no name keeps it alive
        # under the next solve
        report = error_report(
            solution, postprocess_all(solution) if postprocess else None,
            problem, extra_exactness=error_exactness_bump)
        yield AdaptiveStep(mesh=mesh, solution=solution, report=report)
        solves += 1
        if max_dofs is not None and solution.num_dofs >= max_dofs:
            return
        if max_steps is not None and solves >= max_steps:
            return
        if mode == "uniform":
            mesh = refine_uniform(mesh)
        else:
            marked = mark(solution.eta_local, theta)
            if marked.size == 0:
                return     # estimator vanished everywhere: converged
            mesh = refine_marked(mesh, marked)
