"""
Span tracing from outside the program: wrappers around the public functions
of each affwgraph module, installed on every module attribute that holds the
original function, so that callers inside the package reach the wrapper.

Spans (name, start, end, parent, run id) are kept in memory and written out
when the traced pass ends.  Inclusive and self time are derived from them.
Exact counts (edges, relation instances, scanned pairs, witnesses) are taken
from each wrapped call's arguments and result, outside its span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter

from speed import SLICE_SPAN

MODULES = ("tableaux", "tworow", "verify", "wgraph", "rsk", "affperm", "regress", "fixtures", "cli")

# Helpers called once per tableau or tableau pair inside the builders and
# rules (mo alone is called millions of times by regress --max-n 10).  A span
# on each call would time the tracer rather than the layer around it.
HOT = frozenset({
    "tableaux.mo", "tableaux.pint", "tableaux.affine_descents", "tableaux.finite_descents",
    "tableaux.is_knuth_move", "tworow.first_kind_target", "tworow.second_kind_valid",
    "tworow.second_kind_target", "wgraph.dynkin_adjacent",
})


def _span_name(qualified: str) -> str:
    """Regression checks are named as in affwgraph.regress.ALL_CHECKS."""
    return qualified.replace("regress.check_", "regress.", 1)


def _graph_of(args, kwargs):
    return args[0] if args else kwargs.get("g")


def _count_build_affine(tracer, args, kwargs, g):
    tracer.counts["tworow.edges"] += len(g.weights)
    shape = args[0] if args else kwargs["shape"]
    tracer.shapes_built.add(shape.parts)


def _count_dual_equiv(tracer, args, kwargs, g):
    v = len(g.vertices)
    tracer.counts["tworow.build_dual_equiv.pairs"] += v * (v - 1) // 2
    tracer.counts["tworow.build_dual_equiv.edges"] += len(g.weights)


def _count_witnesses(tracer, args, kwargs, report):
    tracer.counts["verify.witnesses"] += len(report.witnesses)


def _count_hecke(tracer, args, kwargs, report):
    """Relation instances |I|*V + C(|I|,2)*V; hecke_holds may stop early, so only the full check counts."""
    _count_witnesses(tracer, args, kwargs, report)
    g = _graph_of(args, kwargs)
    gens = len(g.index_set)
    tracer.counts["verify.hecke.relations"] += (gens + gens * (gens - 1) // 2) * len(g.vertices)


def _count_bonding(tracer, args, kwargs, report):
    """The rule scans every vertex for each u in V_{a/b} with a, b Dynkin-adjacent."""
    _count_witnesses(tracer, args, kwargs, report)
    g = _graph_of(args, kwargs)
    gens = sorted(g.index_set)
    adjacent = tracer.modules["wgraph"].dynkin_adjacent  # in HOT, so never wrapped
    qualifying = 0
    for x, i in enumerate(gens):
        for j in gens[x + 1:]:
            if not adjacent(g, i, j):
                continue
            for tau in g.tau:
                qualifying += (i in tau) != (j in tau)
    tracer.counts["verify.bonding.pairs_scanned"] += qualifying * len(g.vertices)


_HOOKS = {
    "tworow.build_affine_graph": _count_build_affine,
    "tworow.build_dual_equiv": _count_dual_equiv,
    "verify.check_compatibility": _count_witnesses,
    "verify.check_simplicity": _count_witnesses,
    "verify.check_polygon": _count_witnesses,
    "verify.check_bonding": _count_bonding,
    "verify.check_hecke_relations": _count_hecke,
}


class Tracer:
    """Installs span wrappers on the affwgraph modules; one instance per traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.shapes_built: set = set()
        self.modules = {name: sys.modules[f"affwgraph.{name}"] for name in MODULES}
        self._patched: list = []  # (module, attribute, original)
        self._open: list[int] = []  # indices of the spans not yet ended

    def _wrap(self, name: str, fn):
        spans, open_spans, run_id = self.spans, self._open, self.run_id
        span_name = _span_name(name)
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[slot] = (span_name, start, end, parent, run_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}  # id of the original function -> its wrapper
        for mod_name, module in self.modules.items():
            for attr, value in vars(module).items():
                name = f"{mod_name}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in HOT):
                    wrappers[id(value)] = self._wrap(name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "affwgraph":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as gzip JSON lines: [name, start, end, parent, run_id]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span that is not a wrapped call, under the innermost open span."""
        self.spans.append((name, start, end, self._open[-1] if self._open else -1, self.run_id))

    def layer_times(self) -> dict[str, dict[str, float]]:
        """
        Per span name: calls, inclusive seconds (outermost spans of that name
        only, so recursion is not counted twice) and self seconds (duration
        minus the durations of direct children).  Speed-probe slices are
        removed from the inclusive time of every span around them.
        """
        child_time = [0.0] * len(self.spans)
        probe_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            if name == SLICE_SPAN:
                while parent >= 0:
                    probe_time[parent] += end - start
                    parent = self.spans[parent][3]
        table: dict[str, dict[str, float]] = {}
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            if name == SLICE_SPAN:
                continue
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[k]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["s"] += end - start - probe_time[k]
        return table
