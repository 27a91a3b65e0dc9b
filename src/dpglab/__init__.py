"""
dpg-lab: an ultra-weak DPG solver for reaction-diffusion and Poisson
problems on 2D triangular meshes, with augmented trial spaces, elementwise
superconvergent postprocessing, the built-in residual error estimator, and
adaptive newest-vertex-bisection refinement.
"""

from .adapt import AdaptiveRun, AdaptiveStep, adaptive_loop, mark
from .dpg import (POISSON, REACTION_DIFFUSION, DofMap, Solution, SolverError,
                  TrialSpace, assemble_solve, condense)
from .mesh import (Mesh, lshape_mesh, refine_marked, refine_uniform,
                   unit_square_mesh)
from .postprocess import postprocess_all, postprocess_fields
from .problems import (ErrorReport, ManufacturedProblem, error_report,
                       lshape_singular, square_smooth)
from .spaces import (EdgeBasis, QuadratureRule, ScalarBasis, edge_bubbles,
                     edge_quadrature, project_l2, triangle_quadrature)
from .study import (ConvergenceRecord, StudyConfig, fit_slope, run_study,
                    write_csv)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRun", "AdaptiveStep", "adaptive_loop", "mark",
    "POISSON", "REACTION_DIFFUSION", "DofMap", "Solution", "SolverError",
    "TrialSpace", "assemble_solve", "condense",
    "Mesh", "lshape_mesh", "refine_marked", "refine_uniform",
    "unit_square_mesh",
    "postprocess_all", "postprocess_fields",
    "ErrorReport", "ManufacturedProblem", "error_report", "lshape_singular",
    "square_smooth",
    "EdgeBasis", "QuadratureRule", "ScalarBasis", "edge_bubbles",
    "edge_quadrature", "project_l2", "triangle_quadrature",
    "ConvergenceRecord", "StudyConfig", "fit_slope", "run_study", "write_csv",
]
