"""
Per-layer trace of one study, recorded from outside the library.

`Tracer.install()` replaces, for the duration of a `with` block, the public
dpglab calls the drivers make and the numpy/scipy entry points that
`dpglab.dpg` calls, with wrappers that record a span each: name, start,
end, the index of the enclosing span, and a few counts taken at the
boundary.  Spans stay in memory; `summary()` reduces them to the per-layer
metrics once the study is over.

Times are `time.perf_counter` seconds.  A span's self time is its duration
minus the durations of its direct child spans.  Byte figures (`lu_mb`,
`local_mb`) are computed from array sizes, not measured.
"""

import time
from contextlib import contextmanager

import numpy as np
import numpy.linalg
import scipy.sparse.linalg

import dpglab.adapt

MIB = float(1 << 20)
LU_BYTES_PER_NONZERO = 12      # float64 value + int32 row index

DENSE = ("numpy.linalg.cholesky", "numpy.linalg.solve")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name, self.parent, self.info = name, parent, {}
        self.start = self.end = None

    @property
    def duration(self):
        return self.end - self.start


class _FactorProxy:
    """The SuperLU object `splu` returns, with `solve` traced."""

    def __init__(self, tracer, lu):
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, "scipy.SuperLU.solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, name, before=None, after=None):
        """`fn` recording one span per call.  `before(span, args, kwargs)`
        may record counts and return replacement kwargs; `after(span, args,
        result)` may record counts and return a replacement result."""
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            if before is not None:
                kwargs = before(span, args, kwargs)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                result = after(span, args, result)
            return result
        return traced

    @contextmanager
    def install(self, driver):
        """Wrap the layer boundaries in `driver` (the benchmark's driver
        module), in `dpglab.adapt`, and in numpy/scipy."""
        targets = [
            (driver, "assemble_solve", "dpg.assemble_solve", None,
             _after_assemble),
            (driver, "postprocess_all", "postprocess.postprocess_all",
             None, None),
            (driver, "error_report", "problems.error_report", None, None),
            (driver, "refine_uniform", "mesh.refine_uniform", None, None),
            (driver, "write_csv", "study.write_csv", None, None),
            (dpglab.adapt, "assemble_solve", "dpg.assemble_solve", None,
             _after_assemble),
            (dpglab.adapt, "postprocess_all", "postprocess.postprocess_all",
             None, None),
            (dpglab.adapt, "error_report", "problems.error_report", None,
             None),
            (dpglab.adapt, "refine_marked", "mesh.refine_marked", None,
             _after_refine_marked),
            (dpglab.adapt, "mark", "adapt.mark", None, _after_mark),
            (numpy.linalg, "cholesky", DENSE[0], _before_dense, None),
            (numpy.linalg, "solve", DENSE[1], _before_dense, None),
            (scipy.sparse.linalg, "splu", "scipy.splu", None,
             self._after_splu),
            (scipy.sparse.linalg, "cg", "scipy.cg", _before_cg, None),
        ]
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, *_ in targets]
        try:
            for module, attr, name, before, after in targets:
                setattr(module, attr,
                        self.wrap(getattr(module, attr), name, before, after))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _after_splu(self, span, args, lu):
        span.info["nnz_A"] = int(args[0].nnz)
        span.info["nnz_LU"] = int(lu.nnz)
        return _FactorProxy(self, lu)

    def summary(self):
        """Per-layer metrics of the recorded study (see README.md)."""
        spans = self.spans
        children = [[] for _ in spans]
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)

        def total(name):
            return sum(s.duration for s in spans if s.name == name)

        def count(name, key):
            # a call that raised recorded no counts
            return sum(s.info.get(key, 0) for s in spans if s.name == name)

        assembles = [i for i, s in enumerate(spans)
                     if s.name == "dpg.assemble_solve"]
        dpg_inclusive = dpg_self = dense_s = 0.0
        matrices = local_bytes = 0
        attempted = direct = 0
        for i in assembles:
            kids = children[i]
            dpg_inclusive += spans[i].duration
            dpg_self += spans[i].duration - sum(k.duration for k in kids)
            dense = [k for k in kids if k.name in DENSE]
            dense_s += sum(k.duration for k in dense)
            matrices += sum(k.info["matrices"] for k in dense)
            # overwritten per call: the finest level, solved last, remains
            local_bytes = max((k.info["bytes"] for k in dense), default=0)
            names = {k.name for k in kids}
            if names & {"scipy.splu", "scipy.cg"}:
                attempted += 1
                direct += "scipy.cg" not in names
        calls = len(assembles)
        elements = count("dpg.assemble_solve", "elements")
        finest = spans[assembles[-1]].info["elements"] if assembles else 0
        nnz_a = count("scipy.splu", "nnz_A")
        nnz_lu = count("scipy.splu", "nnz_LU")
        max_lu = max((s.info.get("nnz_LU", 0) for s in spans
                      if s.name == "scipy.splu"), default=0)
        factors = sum(1 for s in spans if s.name == "scipy.splu")
        solves = sum(1 for s in spans if s.name == "scipy.SuperLU.solve")
        marked = count("mesh.refine_marked", "marked")
        return {
            "solver.factor_s": total("scipy.splu"),
            "solver.nnz_A": nnz_a,
            "solver.nnz_LU": nnz_lu,
            "solver.fill_ratio": nnz_lu / nnz_a if nnz_a else 0.0,
            "solver.lu_mb": max_lu * LU_BYTES_PER_NONZERO / MIB,
            "solver.triangular_solve_s": total("scipy.SuperLU.solve"),
            "solver.refinement_steps": solves - factors,
            "solver.cg_s": total("scipy.cg"),
            "solver.cg_iterations": count("scipy.cg", "iterations"),
            "solver.direct_share": direct / attempted if attempted else 0.0,
            "dpg.calls": calls,
            "dpg.assemble_solve_s": dpg_inclusive,
            "dpg.self_s": dpg_self,
            "dpg.self_s_per_call": dpg_self / calls if calls else 0.0,
            "dpg.dense_factor_s": dense_s,
            "dpg.dense_factorizations_per_element":
                matrices / elements if elements else 0.0,
            "dpg.local_mb": local_bytes / MIB,
            "dpg.dofs": count("dpg.assemble_solve", "dofs"),
            "mesh.refine_s": total("mesh.refine_uniform") +
                             total("mesh.refine_marked"),
            "mesh.closure_ratio":
                count("mesh.refine_marked", "bisections") / marked
                if marked else 0.0,
            "mesh.elements": finest,
            "adapt.mark_s": total("adapt.mark"),
            "adapt.marked": count("adapt.mark", "marked"),
            "postprocess.s": total("postprocess.postprocess_all"),
            "problems.error_s": total("problems.error_report"),
            "study.csv_s": total("study.write_csv"),
            "trace.spans": len(spans),
        }


def _after_assemble(span, args, solution):
    span.info["elements"] = int(args[0].num_triangles)
    span.info["dofs"] = int(solution.num_dofs)
    return solution


def _after_refine_marked(span, args, refined):
    # each bisection adds exactly one triangle
    span.info["marked"] = int(np.unique(np.asarray(args[1])).size)
    span.info["bisections"] = refined.num_triangles - args[0].num_triangles
    return refined


def _after_mark(span, args, marked):
    span.info["marked"] = int(marked.size)
    return marked


def _before_dense(span, args, kwargs):
    # element matrices come in batches; a single 2-D matrix (the Dirichlet
    # edge projection) is no element factorization
    a = np.asarray(args[0])
    span.info["matrices"] = (int(np.prod(a.shape[:-2], dtype=np.int64))
                             if a.ndim > 2 else 0)
    span.info["bytes"] = sum(int(x.nbytes) for x in args
                             if isinstance(x, np.ndarray))
    return kwargs


def _before_cg(span, args, kwargs):
    span.info["iterations"] = 0
    callback = kwargs.get("callback")

    def counting(xk):
        span.info["iterations"] += 1
        if callback is not None:
            callback(xk)

    return dict(kwargs, callback=counting)
