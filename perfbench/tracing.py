"""In-memory spans around the package's layer functions.

`Tracer.install` replaces each layer function at every name a tristarter
module bound it to (``assembly.encode``, ``solver.check_solution``,
``_kernels.fd_search``, ...), so calls made inside the package are seen
without changing a file under ``src/``.  A span is (name, start, end,
parent, item, raised); spans stay in a list until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> (module, attribute).  Names are the metric prefixes; the
# kernels module is reported as "kernels" because metric names may not
# start with "_".
LAYERS = {
    "assembly.triplicate": ("tristarter.assembly", "triplicate"),
    "assembly.crt_merge": ("tristarter.assembly", "crt_merge"),
    "triplication.build_table": ("tristarter.triplication", "build_table"),
    "model.encode": ("tristarter.model", "encode"),
    "model.check_solution": ("tristarter.model", "check_solution"),
    "solver.solve": ("tristarter.solver", "solve"),
    "kernels.fd_search": ("tristarter._kernels", "fd_search"),
    "starters.verify_pairing": ("tristarter.starters", "verify_pairing"),
    "starters.hill_climb": ("tristarter.starters", "hill_climb"),
    "kernels.hill_climb_pairs": ("tristarter._kernels", "hill_climb_pairs"),
    "starters.enumerate_strong_starters": ("tristarter.starters", "enumerate_strong_starters"),
    "kernels.count_strong_starters": ("tristarter._kernels", "count_strong_starters"),
    "inverse.inverse_test": ("tristarter.inverse", "inverse_test"),
    "dimacs.export_dimacs": ("tristarter.dimacs", "export_dimacs"),
    "dimacs.to_dimacs_text": ("tristarter.dimacs", "to_dimacs_text"),
}

NAME, START, END, PARENT, ITEM, RAISED = range(6)


class Tracer:
    """Spans of the layer calls made while installed.

    Create it after the package is imported: it finds every name a
    tristarter module bound each layer function to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.item = None          # id of the item being run, set by the caller
        self._open: list[int] = []
        self._bindings: list[tuple] = []   # (module, name, original, wrapper)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tristarter" or n.startswith("tristarter."))]
        for name, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, bound, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, self.item, False]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                open_.pop()
                span[END] = clock()

        return traced

    def install(self) -> None:
        for module, bound, _, wrapper in self._bindings:
            setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, original, _ in self._bindings:
            setattr(module, bound, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "item", "raised"), span))) + "\n")

    def layer_times(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, raised count."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0}
               for name in LAYERS}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(self.spans):
            row = out[span[NAME]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child_time[i]
            row["raised"] += span[RAISED]
        return out
