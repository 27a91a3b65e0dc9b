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
import os
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from typing import Optional

import numpy as np

from .adapt import MODES, _check_loop, _steps
from .dpg import SolverError, TrialSpace
from .problems import lshape_singular, square_smooth
from .spaces import _check_integer

PROBLEMS = {"square": square_smooth, "lshape": lshape_singular}
MAX_P = 3       # a study's trial order p lies in 0..MAX_P

# the values of each choice field, in the order the CLI lists them; the
# mode's are adapt.MODES, which _check_loop holds
_CHOICES = {"problem": tuple(PROBLEMS), "trial": ("standard", "augmented"),
            "mode": MODES}


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


CSV_HEADER = ",".join(f.name for f in fields(ConvergenceRecord))

# the error column behind each eoc column, in CSV order
_EOCS = {"eoc_u": "err_u", "eoc_sigma": "err_sigma",
         "eoc_post": "err_u_post", "eoc_eta": "eta"}


@dataclass
class StudyConfig:
    """Parameters of one convergence study.

    problem "square" runs the smooth reaction-diffusion benchmark,
    "lshape" the singular Poisson benchmark, each on its own initial
    mesh.  problem, trial and mode take the values listed in _CHOICES.
    p is an integer in 0..MAX_P.  mode, theta, levels, max_dofs,
    postprocess, solver_tol and quad_bump follow adapt._check_loop, the
    gate of the solve loop, which adaptive_loop passes through too:
    levels and max_dofs are integers >= 1 or None, not both None, theta
    and solver_tol real numbers in (0, 1), postprocess a bool or a numpy
    bool, and quad_bump an integer >= 0 within the error quadrature's
    cap.  The type and range rules are the gates of spaces.  No number
    field takes a bool.  out, when given, names a file in an existing
    directory, so that a wrong path fails before the first solve.
    """
    problem: str = "square"
    p: int = 0
    trial: str = "standard"
    mode: str = "uniform"
    theta: float = 0.25
    levels: Optional[int] = None
    max_dofs: Optional[int] = None
    postprocess: bool = False
    out: Optional[str] = None
    solver_tol: float = 1e-10
    quad_bump: int = 0

    def validate(self):
        """Raise ConfigError on a value this class or a lower layer
        refuses; every rule of the solve loop is adapt._check_loop's."""
        for name in ("problem", "trial"):
            if getattr(self, name) not in _CHOICES[name]:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choose {' or '.join(_CHOICES[name])}")
        try:
            _check_integer(self.p, "polynomial order p", 0, MAX_P)
            _check_loop(self.trial_space(), self.mode, self.theta,
                        self.max_dofs, self.levels, self.postprocess,
                        self.solver_tol, self.quad_bump)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.out is not None:
            folder = os.path.dirname(os.path.abspath(self.out))
            if (not os.path.basename(self.out) or os.path.isdir(self.out)
                    or not os.path.isdir(folder)):
                raise ConfigError(f"out {self.out!r} is not a file path in "
                                  "an existing directory")

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
        for eoc, err in _EOCS.items():
            setattr(rec, eoc, _eoc(getattr(prev, err), getattr(rec, err),
                                   prev.dofs, rec.dofs))


def run_study(config):
    """Execute a convergence study and return its records.

    Validates config (raising ConfigError), then turns each solve of the
    shared loop (adapt._steps) into a record as it completes.  Writes the
    CSV table to config.out when set; on a solver failure, in either mode,
    the partial table of the completed levels is flushed before the error
    propagates, and the SolverError carries their records as `records`.
    """
    config.validate()
    records = []
    try:
        for level, step in enumerate(_steps(
                PROBLEMS[config.problem](), config.trial_space(),
                config.mode, config.theta, config.max_dofs, config.levels,
                config.postprocess, None, config.solver_tol,
                config.quad_bump)):
            records.append(ConvergenceRecord(
                level=level, dofs=step.solution.num_dofs,
                h_max=step.mesh.h_max, **asdict(step.report)))
    except SolverError as exc:
        exc.records = records
        raise
    finally:
        _attach_eocs(records)
        if config.out is not None:
            write_csv(records, config.out)
    return records


def fit_slope(records, column, window=3):
    """Least-squares slope of log(error) vs log(dofs), negated.

    Fits over the last `window` records; records with missing,
    nonpositive or non-finite values are excluded with a warning.

    Raises ValueError unless window is an integer >= 2 (not a bool), and
    when the records kept do not hold two distinct dof counts, through
    which no line can be fitted.
    """
    _check_integer(window, "slope-fit window", 2)
    tail = records[-window:]
    pts = []
    for rec in tail:
        val = getattr(rec, column)
        if val is None or not 0.0 < val < math.inf:     # also NaN
            warnings.warn(f"excluding level {rec.level}: {column} not "
                          "positive and finite", stacklevel=2)
            continue
        pts.append((rec.dofs, val))
    if len({dofs for dofs, _ in pts}) < 2:
        raise ValueError(f"not enough positive {column} values at distinct "
                         "dof counts to fit")
    dofs, vals = np.array(pts).T
    slope = np.polyfit(np.log(dofs), np.log(vals), 1)[0]
    return -float(slope)


def write_csv(records, path):
    """Write records as CSV with LF endings, 17 significant digits and an
    empty cell for None (integers print exactly)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join("" if v is None else f"{v:.17g}"
                              for v in astuple(r)) + "\n")
