"""
Convergence studies: uniform and adaptive refinement sequences with CSV
output and fitted convergence slopes.

All error quantities are recorded per refinement level against the number
of free trial dofs D_h.  The experimental order of convergence between
consecutive records is

    eoc = -log(e_{i+1} / e_i) / log(D_{i+1} / D_i),

so a value alpha corresponds to a straight line parallel to D_h^(-alpha)
in a log-log plot (for uniform refinement D_h^(-1) is proportional to
h^2, hence alpha = rate/2 in terms of the mesh size).
"""

import math
import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .adapt import adaptive_loop
from .dpg import TrialSpace, assemble_solve
from .mesh import refine_uniform
from .postprocess import postprocess_all
from .problems import (error_exactness, error_report, lshape_singular,
                       square_smooth)
from .spaces import MAX_QUADRATURE_DEGREE

CSV_HEADER = ("level,dofs,h_max,err_u,err_sigma,err_u_post,eta,"
              "eoc_u,eoc_sigma,eoc_post,eoc_eta")

PROBLEMS = {"square": square_smooth, "lshape": lshape_singular}


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass
class ConvergenceRecord:
    level: int
    dofs: int
    h_max: float
    err_u: Optional[float] = None
    err_sigma: Optional[float] = None
    err_u_post: Optional[float] = None
    eta: Optional[float] = None
    eoc_u: Optional[float] = None
    eoc_sigma: Optional[float] = None
    eoc_post: Optional[float] = None
    eoc_eta: Optional[float] = None


@dataclass
class StudyConfig:
    """Parameters of one convergence study.

    problem "square" runs the smooth reaction-diffusion benchmark,
    "lshape" the singular Poisson benchmark; other pairings are not
    meaningful and are rejected.
    """
    problem: str = "square"
    p: int = 0
    trial: str = "standard"            # "standard" | "augmented"
    mode: str = "uniform"              # "uniform" | "adaptive"
    theta: float = 0.25
    levels: Optional[int] = None
    max_dofs: Optional[int] = None
    postprocess: bool = False
    out: Optional[str] = None
    solver_tol: float = 1e-10
    quad_bump: int = 0

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; choose "
                              "square or lshape")
        if not 0 <= self.p <= 3:
            raise ConfigError("polynomial order p must be in 0..3")
        if self.trial not in ("standard", "augmented"):
            raise ConfigError(f"unknown trial space {self.trial!r}")
        if self.mode not in ("uniform", "adaptive"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        if self.mode == "uniform":
            if self.levels is None and self.max_dofs is None:
                raise ConfigError("uniform mode needs --levels or --max-dofs")
            if self.levels is not None and self.levels < 1:
                raise ConfigError("levels must be >= 1")
        if self.mode == "adaptive" and self.max_dofs is None \
                and self.levels is None:
            raise ConfigError("adaptive mode needs --max-dofs or --levels")
        if self.max_dofs is not None and self.max_dofs < 1:
            raise ConfigError("max-dofs must be >= 1")
        if self.quad_bump < 0:
            raise ConfigError("quadrature bump must be >= 0")
        if error_exactness(self.p, self.quad_bump) > MAX_QUADRATURE_DEGREE:
            raise ConfigError("quadrature bump too large: error quadrature "
                              f"exceeds exactness {MAX_QUADRATURE_DEGREE}")
        if not 0.0 < self.solver_tol < 1.0:     # also rejects NaN
            raise ConfigError("solver tolerance must lie in (0, 1)")

    def trial_space(self):
        return TrialSpace(self.p, augmented=(self.trial == "augmented"))


def _eoc(err_prev, err, dofs_prev, dofs):
    if err_prev is None or err is None:
        return None
    if err_prev <= 0.0 or err <= 0.0 or dofs == dofs_prev:
        return None
    return -math.log(err / err_prev) / math.log(dofs / dofs_prev)


def _attach_eocs(records):
    for prev, rec in zip(records, records[1:]):
        rec.eoc_u = _eoc(prev.err_u, rec.err_u, prev.dofs, rec.dofs)
        rec.eoc_sigma = _eoc(prev.err_sigma, rec.err_sigma, prev.dofs,
                             rec.dofs)
        rec.eoc_post = _eoc(prev.err_u_post, rec.err_u_post, prev.dofs,
                            rec.dofs)
        rec.eoc_eta = _eoc(prev.eta, rec.eta, prev.dofs, rec.dofs)


def run_study(config):
    """Execute a convergence study and return its records.

    Writes the CSV table to config.out when set; on a solver failure the
    partial table is flushed before the error propagates.
    """
    config.validate()
    problem = PROBLEMS[config.problem]()
    trial = config.trial_space()
    records = []
    try:
        if config.mode == "uniform":
            _run_uniform(config, problem, trial, records)
        else:
            _run_adaptive(config, problem, trial, records)
    finally:
        _attach_eocs(records)
        if config.out is not None:
            write_csv(records, config.out)
    return records


def _run_uniform(config, problem, trial, records):
    mesh = problem.initial_mesh()
    levels = config.levels if config.levels is not None else 10 ** 9
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
        level += 1
        if level >= levels:
            break
        if config.max_dofs is not None and solution.num_dofs >= config.max_dofs:
            break
        mesh = refine_uniform(mesh)


def _run_adaptive(config, problem, trial, records):
    run = adaptive_loop(problem, trial, theta=config.theta,
                        max_dofs=config.max_dofs or 10 ** 9,
                        max_steps=config.levels,
                        postprocess=config.postprocess,
                        solver_tol=config.solver_tol,
                        error_exactness_bump=config.quad_bump)
    for level, step in enumerate(run.steps):
        records.append(ConvergenceRecord(
            level=level, dofs=step.solution.num_dofs,
            h_max=step.mesh.h_max, err_u=step.report.err_u,
            err_sigma=step.report.err_sigma,
            err_u_post=step.report.err_u_post, eta=step.report.eta))


def fit_slope(records, column, window=3):
    """Least-squares slope of log(error) vs log(dofs), negated.

    Fits over the last `window` records; records with missing or
    nonpositive values are excluded with a warning.
    """
    if window < 2:
        raise ValueError("slope fit needs a window of at least 2 records")
    tail = records[-window:]
    pts = []
    for rec in tail:
        val = getattr(rec, column)
        if val is None or val <= 0.0:
            warnings.warn(f"excluding level {rec.level}: {column} not "
                          "positive", stacklevel=2)
            continue
        pts.append((rec.dofs, val))
    if len(pts) < 2:
        raise ValueError(f"not enough positive {column} values to fit")
    dofs, vals = np.array(pts).T
    slope = np.polyfit(np.log(dofs), np.log(vals), 1)[0]
    return -float(slope)


def _fmt(value):
    if value is None:
        return ""
    return f"{value:.17g}"


def write_csv(records, path):
    """Write records as CSV with LF endings and 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            cells = [str(r.level), str(r.dofs), _fmt(r.h_max),
                     _fmt(r.err_u), _fmt(r.err_sigma), _fmt(r.err_u_post),
                     _fmt(r.eta), _fmt(r.eoc_u), _fmt(r.eoc_sigma),
                     _fmt(r.eoc_post), _fmt(r.eoc_eta)]
            fh.write(",".join(cells) + "\n")


def read_csv(path):
    """Parse a CSV written by write_csv back into records."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        records = []
        names = [f.name for f in fields(ConvergenceRecord)]
        for line in fh:
            cells = line.rstrip("\n").split(",")
            kwargs = {}
            for name, cell in zip(names, cells):
                if cell == "":
                    kwargs[name] = None
                elif name in ("level", "dofs"):
                    kwargs[name] = int(cell)
                else:
                    kwargs[name] = float(cell)
            records.append(ConvergenceRecord(**kwargs))
    return records
