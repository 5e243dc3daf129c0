"""Spans around jetjac's layer functions, installed from outside the package.

install() replaces each listed function at every place it is bound: its
own module, every jetjac module that imported it by name, and the package
namespace.  Calls between modules and inside a module therefore go
through the wrapper, and nothing under src/ is edited.  The field module
is left unwrapped: its operations are too fine-grained and their time is
counted inside their callers.

A span is [name, start_ns, end_ns, parent index, query id, sizes].  Spans
are kept in memory; self time is a span's duration minus the durations of
its child spans (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = {
    "cli": ("run",),
    "poly": ("parse_poly",),
    "hasse": ("hs_components", "check_commutation"),
    "jacobian": ("jac", "jac_m"),
    "jetmatrix": ("dn_matrix", "jet_jacobian", "check_fdbd"),
    "linalg": ("eval_matrix", "rank", "poly_det", "minors", "generic_rank"),
    "jetscheme": (
        "jet_equations",
        "on_jet_scheme",
        "higher_rank_test",
        "presentation_of",
        "find_smooth_point",
        "extend_to_jet",
        "generic_cokernel_rank",
        "nobile_certificate",
    ),
}


def _terms(polys) -> int:
    return sum(len(p.terms) for p in polys)


# span name -> (bound arguments, result) -> sizes recorded on the span
SIZES = {
    "hasse.hs_components": lambda a, r: {"out_terms": _terms(r.components)},
    "jetmatrix.dn_matrix": lambda a, r: {"out_terms": _terms(r.entries), "out_cells": r.rows * r.cols},
    "linalg.eval_matrix": lambda a, r: {"in_terms": _terms(a["mx"].entries)},
    "linalg.rank": lambda a, r: {
        "in_cells": a["mx"].rows * a["mx"].cols,
        "full": int(r == min(a["mx"].rows, a["mx"].cols)),
    },
    "linalg.generic_rank": lambda a, r: {"trials": a["trials"]},
    "jetscheme.generic_cokernel_rank": lambda a, r: {
        "matches": sum(x == r.expected for x in r.samples),
        "trials": r.trials,
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.sites = 0

    def start_query(self, query_id: int):
        self.query = query_id
        self.stack.clear()  # a query cut off by its deadline leaves open spans

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if size is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = size(bound.arguments, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "jetjac" or k.startswith("jetjac.")]
        for short, names in LAYERS.items():
            home = sys.modules[f"jetjac.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.sites += 1

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive busy ns (outermost calls only, so
    recursion is not counted twice), self ns and summed sizes; plus the
    time covered by root spans and the rank calls made directly under
    generic_rank."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    stats: dict[str, dict] = {}
    root_ns = 0
    rank_in_generic = 0
    for idx, (name, start, end, parent, _, sizes) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[idx]
        if parent < 0:
            root_ns += end - start
        if not _inside(spans, parent, name):
            entry["busy_ns"] += end - start
        if name == "linalg.rank" and parent >= 0 and spans[parent][0] == "linalg.generic_rank":
            rank_in_generic += 1
        for key, value in (sizes or {}).items():
            entry[key] = entry.get(key, 0) + value
    return {"layers": stats, "root_ns": root_ns, "rank_in_generic": rank_in_generic}


def _inside(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
