"""Span tracing around anomlab's public functions, from outside the program.

Each listed function is wrapped and the wrapper is bound in place of the
original in every anomlab module that holds the function object, so calls
between modules (schwinger_detail -> d_gamma, nerve -> smith_normal_form)
show up as child spans. Spans are kept in memory and written out once, when
the run ends; a span records its name, start, end, parent span and the op
it belongs to.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

TRACED = {
    "suites": ["run_suite"],
    "fock": ["d_gamma", "schwinger_detail", "bogoliubov_implement"],
    "regdet": ["det_p", "omega_p"],
    "linalg": ["matrix_exponential"],
    "grassmann": ["detline_act", "canonical_section", "alpha_ratio"],
    "groupoid": [
        "action_groupoid",
        "axioms_check",
        "cocycle_check",
        "central_extend",
        "centrality_check",
        "validate_local_data",
        "glue_local_data",
    ],
    "nerve": ["nerve", "coboundary_matrix", "cohomology_group", "class_reducer", "cocycle_vector"],
    "snf": ["smith_normal_form"],
    "jsonio": ["groupoid_from_obj", "cover_from_obj"],
    "cli": ["main"],
}
"""The public functions the ops of the two workloads call, by module."""

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _snf_cells(args, _result):
    shape = np.shape(args[0])
    return shape[0] * shape[1]


def _nerve_cells(_args, result):
    return sum(result.size(p) for p in range(result.p_max + 1))


COUNTERS = {
    "snf.smith_normal_form": ("snf.cells", _snf_cells),
    "nerve.nerve": ("nerve.cells", _nerve_cells),
}
"""Work counts taken at a span: rows x cols per Smith normal form, cells per nerve."""

COUNT_NAMES = [name for name, _ in COUNTERS.values()]


class Tracer:
    """Records spans while `op` is not None; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.stack = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.op = None
        self._bound = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        homes = {mod: importlib.import_module(f"anomlab.{mod}") for mod in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "anomlab" or n.startswith("anomlab.")]
        for mod, fns in TRACED.items():
            home = homes[mod]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)
                            self._bound.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._bound):
            setattr(m, attr, original)
        self._bound = []

    def layer_metrics(self):
        """{name.calls, name.self_s} for every traced name, plus the work counts."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent, _op in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                self_s[p[0]] -= end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
