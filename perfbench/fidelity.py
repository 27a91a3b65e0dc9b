"""
Seed-0 fidelity check, and the writer of the reference table.

    python3 perfbench/fidelity.py [--write-reference] [WORKLOAD ...]

For each workload (default: all), runs `dpglab.run_study` on the workload's
config and the benchmark's driver at seed 0 (the unrelabelled mesh), and
requires equal records, float for float, and byte-identical CSV files: the
benchmark measures what `dpg-lab run` runs.  The driver's study must also
pass the correctness gate against reference.json.

--write-reference rewrites reference.json from the `run_study` records
instead of gating against it; do this only when a change is meant to move
the reported numbers, and say so.  Run from the root of a checkout; exits 1
on any mismatch.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from dpglab import run_study  # noqa: E402

import driver  # noqa: E402


def check(name, write_reference):
    config = driver.WORKLOADS[name]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    study_csv = os.path.join(out_dir, f"{name}-run_study.csv")
    driver_csv = os.path.join(out_dir, f"{name}-driver.csv")
    expected = run_study(dataclasses.replace(config, out=study_csv))
    records, diagnostics = driver.run(config, driver.relabelled_mesh(0),
                                      driver_csv)
    problems = []
    if driver.record_rows(records) != driver.record_rows(expected):
        problems.append("driver records differ from run_study records")
    with open(study_csv, "rb") as a, open(driver_csv, "rb") as b:
        if a.read() != b.read():
            problems.append("driver CSV differs from run_study CSV")
    if write_reference:
        return problems, [{col: getattr(r, col) for col in
                           ("level", "dofs") + driver.ERROR_COLUMNS}
                          for r in expected]
    problems += driver.gate(config, records, diagnostics,
                            driver.load_reference(name))
    return problems, None


def main(argv):
    write_reference = "--write-reference" in argv
    names = [a for a in argv if not a.startswith("--")] or list(driver.WORKLOADS)
    tables = {}
    failed = False
    for name in names:
        problems, table = check(name, write_reference)
        tables[name] = table
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    if write_reference and not failed:
        with open(driver.REFERENCE_PATH, "w") as fh:
            json.dump({"note": "written by perfbench/fidelity.py "
                               "--write-reference from run_study records",
                       "workloads": tables}, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
