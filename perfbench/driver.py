"""
The study pipeline the benchmark measures, and its correctness gate.

Each workload is a `StudyConfig` that `dpg-lab run` accepts as well.  The
uniform loop mirrors `dpglab.study.run_study` call for call; the adaptive
one calls `adaptive_loop` itself.  Both start from the initial L-shape mesh
relabelled by the seed, so the seed moves the dof numbering (and with it the
sparse orderings) but not the geometry or the results.

The names `assemble_solve`, `postprocess_all`, `error_report`,
`refine_uniform` and `write_csv` are looked up in this module's namespace
at call time, so the traced run can wrap them (see spans.py).
"""

import dataclasses
import json
import math
import os

import numpy as np

from dpglab import (ConvergenceRecord, Mesh, StudyConfig, adaptive_loop,
                    assemble_solve, error_report, lshape_singular,
                    postprocess_all, refine_uniform, write_csv)
from dpglab.study import _attach_eocs

WORKLOADS = {
    # few large solves: the sparse factorization dominates
    "lshape-p1-uniform": StudyConfig(problem="lshape", p=1, mode="uniform",
                                     levels=6, postprocess=True),
    # 50 solves at many small sizes: per-call cost, marking and closure
    "lshape-p1-adaptive": StudyConfig(problem="lshape", p=1,
                                      mode="adaptive", theta=0.25,
                                      max_dofs=25000, postprocess=True),
    # 63x63 local Grams: element kernels and condensation take ~40%.  At 5
    # levels the sparse LU takes ~80% and its fill jumps between two modes
    # with the relabelling; 4 levels leave room for ~12 draws per run.
    "lshape-p3-uniform": StudyConfig(problem="lshape", p=3, mode="uniform",
                                     levels=4, postprocess=False),
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Relative tolerances of the error and estimator columns against the
# reference, at the final level and at the levels before it.  Under
# uniform refinement the seed's relabelling moves them by <= 1e-10 (solver
# round-off).  The L-shape problem and its initial mesh are symmetric about
# y = -x, so Doerfler marking meets near-ties between mirror elements, and
# a relabelling can break one the other way.  The adaptive mesh at that
# level then differs from the reference one at equal dofs until the next
# closure step brings it back: in a probe of 32 relabellings such levels
# moved by up to 1.3e-2, while the final level stayed within 3e-8.  Dof
# counts must match exactly at every level in both modes.
FINAL_RTOL = {"uniform": 1e-8, "adaptive": 1e-6}
EARLIER_RTOL = {"uniform": 1e-8, "adaptive": 1e-1}
ERROR_COLUMNS = ("err_u", "err_sigma", "err_u_post", "eta")


def relabelled_mesh(seed, draw=0):
    """Initial L-shape mesh with its vertex labels and triangle order
    permuted by the generator seeded with (`seed`, `draw`).  Draw 0 of
    seed 0 is the identity, i.e. the mesh `run_study` starts from.
    Geometry and refinement edges are unchanged."""
    mesh = lshape_singular().initial_mesh()
    if seed == 0 and draw == 0:
        return mesh
    rng = np.random.default_rng([seed, draw])
    new_label = rng.permutation(mesh.num_vertices)
    order = rng.permutation(mesh.num_triangles)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_label] = mesh.vertices
    return Mesh(vertices, new_label[mesh.triangles[order]],
                mesh.refinement_edges[order])


def run(config, mesh, csv_path):
    """Run one study from `mesh`, write its CSV, and return
    (records, solve diagnostics per record)."""
    problem = lshape_singular()
    trial = config.trial_space()
    records = []
    if config.mode == "uniform":
        diagnostics = _run_uniform(config, problem, trial, mesh, records)
    else:
        diagnostics = _run_adaptive(config, problem, trial, mesh, records)
    _attach_eocs(records)
    write_csv(records, csv_path)
    return records, diagnostics


def _run_uniform(config, problem, trial, mesh, records):
    diagnostics = []
    level = 0
    while True:
        solution = assemble_solve(mesh, trial, problem.kind, problem.source,
                                  dirichlet=problem.dirichlet,
                                  solver_tol=config.solver_tol)
        post = postprocess_all(solution) if config.postprocess else None
        rep = error_report(solution, post, problem,
                           extra_exactness=config.quad_bump)
        records.append(ConvergenceRecord(
            level=level, dofs=solution.num_dofs, h_max=mesh.h_max,
            err_u=rep.err_u, err_sigma=rep.err_sigma,
            err_u_post=rep.err_u_post, eta=rep.eta))
        diagnostics.append(solution.diagnostics)
        level += 1
        if level >= config.levels:
            break
        mesh = refine_uniform(mesh)
    return diagnostics


def _run_adaptive(config, problem, trial, mesh, records):
    steps = adaptive_loop(problem, trial, theta=config.theta,
                          max_dofs=config.max_dofs, max_steps=config.levels,
                          postprocess=config.postprocess, mesh=mesh,
                          solver_tol=config.solver_tol,
                          error_exactness_bump=config.quad_bump).steps
    for level, step in enumerate(steps):
        records.append(ConvergenceRecord(
            level=level, dofs=step.solution.num_dofs,
            h_max=step.mesh.h_max, err_u=step.report.err_u,
            err_sigma=step.report.err_sigma,
            err_u_post=step.report.err_u_post, eta=step.report.eta))
    return [step.solution.diagnostics for step in steps]


def record_rows(records):
    """Records as plain lists, exact under a JSON round trip."""
    return [list(dataclasses.astuple(r)) for r in records]


def load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"][workload]


def gate(config, records, diagnostics, reference):
    """Correctness gate of one study; returns a list of failures (empty
    when the study passes).

    Dof counts must equal the reference at every level; the error and
    estimator columns must agree within FINAL_RTOL at the final level and
    EARLIER_RTOL before it; every solve must reach the solver tolerance.
    """
    failures = []
    dofs = [r.dofs for r in records]
    ref_dofs = [row["dofs"] for row in reference]
    if dofs != ref_dofs:
        failures.append(f"dofs {dofs} != reference {ref_dofs}")
        return failures
    for rec, row in zip(records, reference):
        rtol = (FINAL_RTOL if rec is records[-1] else
                EARLIER_RTOL)[config.mode]
        for col in ERROR_COLUMNS:
            got, want = getattr(rec, col), row[col]
            if want is None or got is None:
                if got is not want:
                    failures.append(f"level {rec.level} {col}: {got} != {want}")
            elif not (math.isfinite(got) and
                      abs(got - want) <= rtol * abs(want)):
                failures.append(f"level {rec.level} {col}: {got!r} != "
                                f"{want!r} (rtol {rtol})")
    for level, diag in enumerate(diagnostics):
        rel = diag.get("rel_residual")
        if rel is None or not rel <= config.solver_tol:
            failures.append(f"level {level}: solve residual {rel} > "
                            f"{config.solver_tol}")
    return failures
