"""Span and counter wrappers around casokit's public functions.

Nothing under src/ changes: each wrapper is installed from here on every
casokit module that binds the wrapped function (a name imported with
`from .netcore import forward` is a separate binding in each importer),
so calls made inside the package are seen too. A span records its name,
start, end, parent span and the CLI invocation it belongs to; spans stay
in memory until the run writes them out. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped, keyed by the layer they belong to
LAYERS = {
    "cli": ("main",),
    "saliency_io": (
        "model_load", "dataset_load", "normalize_for_display", "write_pgm",
        "write_f64_tensor", "write_csv_rows",
    ),
    "interpret": (
        "run_request", "lambda1_sweep", "cafo", "caso", "smooth_cafo",
        "smooth_caso", "sparsity_ratio",
    ),
    "netcore": ("forward", "input_gradient", "local_linearization", "logit_gradient"),
    "hessian": (
        "hvp_closed_form", "hvp_finite_diff", "largest_eigenvalue", "hessian_eig",
    ),
    "solver": ("fista_solve",),
}
COUNTERS = (
    "hessian.hvp_closed_form.flops", "solver.fista.iterations",
    "solver.fista.backtracks", "saliency_io.bytes_written",
)
WRITES = ("normalize_for_display", "write_pgm", "write_f64_tensor", "write_csv_rows")
# argument position of the output path of each file-writing function
WRITE_PATH_ARG = {"write_pgm": 1, "write_f64_tensor": 0, "write_csv_rows": 0}


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.invocations = []
        self.stack = [-1]
        self.invocation = 0
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self._restore = []

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1])
            self.invocations.append(self.invocation)
            self.ends.append(math.nan)
            self.stack.append(idx)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        import casokit.cli  # noqa: F401  (loads every module the CLI uses)
        from casokit import solver

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "casokit"]
        hooks = {
            "hvp_closed_form": self._count_flops,
            "fista_solve": functools.partial(self._count_fista, solver.SolverConfig()),
        }
        for fn_name in WRITE_PATH_ARG:
            hooks[fn_name] = functools.partial(self._count_bytes, WRITE_PATH_ARG[fn_name])
        for layer, fn_names in LAYERS.items():
            home = sys.modules[f"casokit.{layer}"]
            for fn_name in fn_names:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig, hooks.get(fn_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _count_flops(self, args, kwargs, out):
        d, c = np.shape(args[0])
        self.counters["hessian.hvp_closed_form.flops"] += 4 * d * c

    def _count_fista(self, default_config, args, kwargs, out):
        """Iterations from iterations_used; backtracks from step_trace, since
        the step starts at learning_rate and only ever shrinks by
        backtrack_decay."""
        config = (args[1] if len(args) > 1 else kwargs.get("config")) or default_config
        self.counters["solver.fista.iterations"] += out.iterations_used
        steps = np.log(np.asarray((config.learning_rate,) + out.step_trace))
        shrink = -np.diff(steps) / -math.log(config.backtrack_decay)
        self.counters["solver.fista.backtracks"] += int(np.rint(shrink).sum())

    def _count_bytes(self, pos, args, kwargs, out):
        self.counters["saliency_io.bytes_written"] += os.path.getsize(args[pos])

    def arrays(self):
        names = np.asarray(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        return names, dur, dur - covered

    def write(self, path):
        """Spans as CSV: id, parent, invocation, name, start, end."""
        with open(path, "w") as fh:
            fh.write("span,parent,invocation,name,start_s,end_s\n")
            for i, row in enumerate(
                zip(self.parents, self.invocations, self.names, self.starts, self.ends)
            ):
                fh.write("%d,%d,%d,%s,%r,%r\n" % ((i,) + row))

    def layer_metrics(self, invocations, results):
        """Per-layer metrics, per CLI invocation unless named per result.

        results is the number of saliency results the invocations
        delivered, as the output checks counted them.
        """
        names, dur, self_s = self.arrays()

        def calls(name):
            return int(np.count_nonzero(names == name)) / invocations

        def total(name, values):
            return float(values[names == name].sum()) / invocations

        def layer_self(layer):
            return float(self_s[np.char.startswith(names, layer + ".")].sum()) / invocations

        writes = np.isin(names, [f"saliency_io.{w}" for w in WRITES])
        m = {
            "saliency_io.model_load.s": total("saliency_io.model_load", dur),
            "saliency_io.dataset_load.s": total("saliency_io.dataset_load", dur),
            "cli.main.self_s": total("cli.main", self_s),
            "saliency_io.write.s": float(dur[writes].sum()) / invocations,
            "saliency_io.write.calls": int(writes.sum()) / invocations,
            "interpret.results": calls("interpret.run_request") + calls("interpret.lambda1_sweep"),
            "interpret.solves_per_result": calls("solver.fista_solve") * invocations / results,
            "interpret.self_s": layer_self("interpret"),
            "netcore.forward.calls": calls("netcore.forward"),
            "netcore.forward.s": total("netcore.forward", dur),
            "netcore.forward_per_result": calls("netcore.forward") * invocations / results,
        }
        for fn in ("local_linearization", "input_gradient"):
            m[f"netcore.{fn}.calls"] = calls(f"netcore.{fn}")
            m[f"netcore.{fn}.self_s"] = total(f"netcore.{fn}", self_s)
        m["hessian.hvp_closed_form.calls"] = calls("hessian.hvp_closed_form")
        m["hessian.hvp_closed_form.s"] = total("hessian.hvp_closed_form", dur)
        m["hessian.largest_eigenvalue.calls"] = calls("hessian.largest_eigenvalue")
        m["hessian.largest_eigenvalue.self_s"] = total("hessian.largest_eigenvalue", self_s)
        m["hessian.hvp_finite_diff.calls"] = calls("hessian.hvp_finite_diff")
        m["solver.fista_solve.calls"] = calls("solver.fista_solve")
        m["solver.fista_solve.self_s"] = total("solver.fista_solve", self_s)
        for key, value in self.counters.items():
            m[key] = value / invocations
        return m
