"""
dpg-lab study benchmark.

    python3 perfbench/run.py --workload lshape-p1-uniform --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Every study runs in a fresh child
process (workload.py), one at a time, so that `peak_rss_mb` is the child's
own `ru_maxrss`.  Each study is checked against reference.json.

--trace 0 runs studies until `--seconds` have passed, at least
MIN_STUDIES of them.  Study k starts from relabelling draw k of the seed,
so a run samples the sparse orderings the relabelling leads to rather than
one of them.  It reports the end-to-end metrics:
    study_s      wall time of one study, initial mesh to CSV written;
                 mean over the run's draws
    setup_s      process start to initial mesh ready (imports included);
                 median over SETUP_SAMPLES set-up-only children and every
                 study
    peak_rss_mb  ru_maxrss of the study's child process, MiB; mean over
                 the run's draws
The fill, and with it time and memory, depends on the draw in two modes
(see README.md), so a median of few draws jumps between the modes where a
mean moves by a fraction of the gap.
--trace 1 runs one untraced study, then traced studies until `--seconds`
have passed, all from draw 0, and reports the per-layer metrics of
spans.py (times as medians over the traced studies, counts required to
repeat exactly) and the tracing overhead.  Metric names and units are
those of BENCHMARK.json.

This script imports no numpy, so its own small footprint is all a child
inherits.  The last line of stdout is the JSON result; the line before it
records the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 3
MIN_STUDIES = 3
# A run starts no study it expects to end after RUN_CAP_S, even short of
# MIN_STUDIES, so that a whole benchmark session (4 + 22 runs per workload)
# stays within its hour when the host runs slow.  A child is killed after
# CHILD_LIMIT_S, inside the 180 s a run may take.
RUN_CAP_S = 50.0
CHILD_LIMIT_S = 170.0

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no dpglab source, bad arguments)."""


class Child:
    """Outcome of one workload.py process."""

    def __init__(self, workload, seed, draw, mode, timeout):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"), workload,
             str(seed), str(draw), repr(t0), mode],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
        self.wall_s = time.perf_counter() - t0
        if proc.returncode == 2:
            raise HarnessError("the checkout holds no usable dpglab source")
        try:
            self.out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.out = {}
        self.failures = self.out.get("failures", [])
        if proc.returncode != 0 and not self.failures:
            self.failures = [f"child exited with code {proc.returncode}"]
        for failure in self.failures:
            print(f"{mode} study failed: {failure}", file=sys.stderr)

    @property
    def ok(self):
        return not self.failures


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return ref[5:]


def _environment(args, env):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_settings": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **env,
    }


def _studies(args, mode, started, minimum, vary_draw):
    """Run `mode` studies until --seconds have passed since `started` and
    at least `minimum` have run; at least one, none expected to end after
    RUN_CAP_S."""
    children = []
    while True:
        elapsed = time.perf_counter() - started
        if children and (
                (elapsed >= args.seconds and len(children) >= minimum) or
                elapsed + max(c.wall_s for c in children) > RUN_CAP_S):
            return children
        draw = len(children) if vary_draw else 0
        children.append(Child(args.workload, args.seed, draw, mode,
                              CHILD_LIMIT_S - elapsed))


def _units(kind):
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(args, started):
    setups = [Child(args.workload, args.seed, 0, "setup", 60)
              for _ in range(SETUP_SAMPLES)]
    env = setups[0].out.get("env", {})
    studies = _studies(args, "study", started, MIN_STUDIES, True)
    values = {
        "study_s": _mean([c.out["study_s"] for c in studies
                          if "study_s" in c.out]),
        "setup_s": _median([c.out["setup_s"] for c in setups + studies
                            if "setup_s" in c.out]),
        "peak_rss_mb": _mean([c.out["peak_rss_mb"] for c in studies
                              if "peak_rss_mb" in c.out]),
    }
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in _units("end_to_end").items()}
    return env, studies, [], metrics


def trace(args, started):
    untraced = Child(args.workload, args.seed, 0, "study", CHILD_LIMIT_S)
    traced = _studies(args, "traced", started, 1, False)
    env = untraced.out.get("env", {})
    problems = []
    layers = [c.out["layers"] for c in traced if "layers" in c.out]
    units = _units("per_layer")
    values = {}
    for name in units:
        samples = [layer[name] for layer in layers if name in layer]
        if units[name] == "s":
            values[name] = _median(samples)
        elif samples:
            if any(s != samples[0] for s in samples):
                problems.append(f"{name} differs between traced studies: "
                                f"{samples}")
            values[name] = samples[0]
    ok_traced = [c for c in traced if c.ok]
    if untraced.ok:
        for c in ok_traced:
            if c.out["records"] != untraced.out["records"]:
                problems.append("traced records differ from untraced ones")
    values["trace.overhead_s"] = (
        _median([c.out["study_s"] for c in ok_traced]) -
        untraced.out.get("study_s", 0.0)) if ok_traced else 0.0
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    metrics = {k: {"value": values.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    return env, [untraced] + traced, problems, metrics


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "dpglab",
                                           "__init__.py")):
            raise HarnessError(f"no dpglab source under {ROOT}")
        with open(REFERENCE) as fh:
            known = json.load(fh)["workloads"]
        if args.workload not in known:
            raise HarnessError(f"unknown workload {args.workload!r}; "
                               f"choose from {sorted(known)}")
        env, studies, problems, metrics = (trace if args.trace else
                                           measure)(args, started)
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    failed = sum(not c.ok for c in studies)
    print(json.dumps({"environment": _environment(args, env),
                      "studies": [{"wall_s": c.wall_s,
                                   "study_s": c.out.get("study_s"),
                                   "failures": c.failures}
                                  for c in studies]}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(studies), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
