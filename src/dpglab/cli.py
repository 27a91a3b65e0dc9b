"""
Command-line driver for convergence studies.

    dpg-lab run --problem square --p 1 --trial augmented --mode uniform \
                --levels 6 --out square_p1.csv

Exit codes: 0 on success, 2 on a bad configuration, 3 on solver failure.
"""

import argparse
import sys

from .dpg import SolverError
from .study import ConfigError, StudyConfig, fit_slope, run_study

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_SOLVER_FAILURE = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpg-lab",
        description="Ultra-weak DPG convergence studies on triangular meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a convergence study")
    run.add_argument("--problem", choices=["square", "lshape"],
                     required=True, help="benchmark problem")
    run.add_argument("--p", type=int, default=0,
                     help="polynomial order of the trial space (0..3)")
    run.add_argument("--trial", choices=["standard", "augmented"],
                     default="standard", help="trial space variant")
    run.add_argument("--mode", choices=["uniform", "adaptive"],
                     default="uniform", help="refinement strategy")
    run.add_argument("--theta", type=float, default=0.25,
                     help="bulk marking parameter (adaptive mode)")
    run.add_argument("--levels", type=int, default=None,
                     help="number of refinement levels / solve steps")
    run.add_argument("--max-dofs", type=int, default=None,
                     help="stop once the dof count reaches this bound")
    run.add_argument("--postprocess", action="store_true",
                     help="also compute the superconvergent postprocessed field")
    run.add_argument("--out", default=None, help="CSV output path")
    run.add_argument("--solver-tol", type=float, default=1e-10,
                     help="relative residual target of the linear solver")
    run.add_argument("--quad-bump", type=int, default=0,
                     help="extra exactness for the error quadrature")
    run.add_argument("--seq", action="store_true",
                     help="ignored; assembly is always sequential")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = StudyConfig(
        problem=args.problem, p=args.p, trial=args.trial, mode=args.mode,
        theta=args.theta, levels=args.levels, max_dofs=args.max_dofs,
        postprocess=args.postprocess, out=args.out,
        solver_tol=args.solver_tol, quad_bump=args.quad_bump)
    try:
        config.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        records = run_study(config)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    _print_table(records)
    if len(records) >= 3:
        for col, label in [("err_u", "err_u"), ("err_sigma", "err_sigma"),
                           ("err_u_post", "err_u_post"), ("eta", "eta")]:
            if getattr(records[-1], col) is not None:
                try:
                    slope = fit_slope(records, col, window=min(3, len(records)))
                except ValueError:
                    continue
                print(f"slope of {label} vs dofs (last 3 levels): "
                      f"{slope:.3f}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _print_table(records):
    cols = ["level", "dofs", "h_max", "err_u", "err_sigma", "err_u_post",
            "eta"]
    print("  ".join(f"{c:>10}" for c in cols))
    for r in records:
        cells = []
        for c in cols:
            v = getattr(r, c)
            if v is None:
                cells.append(f"{'-':>10}")
            elif isinstance(v, int):
                cells.append(f"{v:>10d}")
            else:
                cells.append(f"{v:>10.3e}")
        print("  ".join(cells))


if __name__ == "__main__":
    sys.exit(main())
