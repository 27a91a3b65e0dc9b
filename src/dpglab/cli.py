"""
Command-line driver for convergence studies.

    dpg-lab run --problem square --p 1 --trial augmented --mode uniform \
                --levels 6 --out square_p1.csv

Exit codes: 0 on success, 2 on a bad configuration, 3 on solver failure.
"""

import argparse
import sys

from .dpg import SolverError
from .study import (_CHOICES, _EOCS, CSV_HEADER, ConfigError, StudyConfig,
                    fit_slope, run_study)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_SOLVER_FAILURE = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpg-lab",
        description="Ultra-weak DPG convergence studies on triangular meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    # an option left out stays out of the namespace: StudyConfig's default
    run = sub.add_parser("run", help="run a convergence study",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--problem", choices=_CHOICES["problem"],
                     required=True, help="benchmark problem")
    run.add_argument("--p", type=int,
                     help="polynomial order of the trial space (0..3)")
    run.add_argument("--trial", choices=_CHOICES["trial"],
                     help="trial space variant")
    run.add_argument("--mode", choices=_CHOICES["mode"],
                     help="refinement strategy")
    run.add_argument("--theta", type=float,
                     help="bulk marking parameter (adaptive mode)")
    run.add_argument("--levels", type=int,
                     help="number of refinement levels / solve steps")
    run.add_argument("--max-dofs", type=int,
                     help="stop once the dof count reaches this bound")
    run.add_argument("--postprocess", action="store_true",
                     help="also compute the superconvergent postprocessed field")
    run.add_argument("--out", help="CSV output path")
    run.add_argument("--solver-tol", type=float,
                     help="relative residual target of the linear solver")
    run.add_argument("--quad-bump", type=int,
                     help="extra exactness for the error quadrature")
    return parser


def main(argv=None):
    options = vars(build_parser().parse_args(argv))
    del options["command"]
    config = StudyConfig(**options)
    try:
        records = run_study(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    _print_table(records)
    if len(records) >= 3:
        for col in _EOCS.values():
            if getattr(records[-1], col) is not None:
                try:
                    slope = fit_slope(records, col)
                except ValueError:
                    continue
                print(f"slope of {col} vs dofs (last 3 levels): {slope:.3f}")
    if config.out:
        print(f"wrote {config.out}")
    return EXIT_OK


def _print_table(records):
    cols = [c for c in CSV_HEADER.split(",") if c not in _EOCS]
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
