"""
One benchmark child process: set up, run one study, check it, report.

    python3 perfbench/workload.py WORKLOAD SEED DRAW T0 MODE

SEED and DRAW select the relabelling of the initial mesh
(`driver.relabelled_mesh`).  MODE is `setup` (stop once the initial mesh
is ready), `study`, or `traced` (a study under the per-layer trace of
spans.py).  T0 is the parent's
`time.perf_counter()` just before it started this process; on Linux that
clock is system-wide, so `setup_s` runs from process start to the initial
mesh being ready and includes the interpreter start and every import.

Prints one JSON object.  Exit codes: 0 the study ran and passed the gate,
1 it raised or failed the gate (a failed operation), 2 the checkout holds
no importable dpglab (a broken harness).
"""

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def main(workload, seed, draw, t0, mode):
    sys.path.insert(0, SRC)
    try:
        import dpglab
    except ImportError as exc:
        print(f"cannot import dpglab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(dpglab.__file__).startswith(SRC + os.sep):
        print(f"dpglab imported from {dpglab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import driver

    config = driver.WORKLOADS[workload]
    mesh = driver.relabelled_mesh(seed, draw)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "env": environment()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{workload}-{seed}-{draw}-{mode}.csv")
    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer()
    failures = []
    start = time.perf_counter()
    try:
        with tracer.install(driver) if tracer else contextlib.nullcontext():
            records, diagnostics = driver.run(config, mesh, csv_path)
    except Exception:
        failures.append(traceback.format_exc())
    out["study_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if not failures:
        failures = driver.gate(config, records, diagnostics,
                               driver.load_reference(workload))
        out["records"] = driver.record_rows(records)
        if tracer is not None:
            out["layers"] = tracer.summary()
    out["failures"] = failures
    print(json.dumps(out))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]),
                  float(sys.argv[4]), sys.argv[5]))
