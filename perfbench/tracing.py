"""Outside-in tracing of pdbundle's layers.

`Tracer.install()` wraps public functions of the program by rebinding each
name in every `pdbundle` module namespace that holds the original function
object, so calls between modules (and calls inside a module through its own
globals) go through the wrapper; `uninstall()` puts the originals back. The
program itself is not modified.

Every wrapped call updates per-function totals (calls, inclusive seconds,
self seconds = duration minus the time of wrapped calls inside it). Calls of
the functions in `SPANS` are also kept as spans with a parent link; the
others, called up to millions of times, are folded into their nearest
enclosing span as per-name call counts and seconds. Spans stay in memory and
are written out once, by `write()`.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) pairs wrapped in a traced run. Layers are modules.
TARGETS: List[Tuple[str, str]] = [
    ("geometry", name) for name in (
        "orient", "collinear", "on_segment", "line_through", "normalize_line",
        "line_eval", "line_intersection", "segment_midpoint", "polygon_area2",
        "polygon_centroid", "simplify_loop", "point_in_convex",
        "point_on_convex_boundary", "split_convex", "segment_line_chord")
] + [
    ("stratify", "build_stratification"), ("stratify", "intersection_trace"),
    ("stratify", "filtration_at"), ("stratify", "sample_in_cell"),
    ("complexes", "induced_indexing"),
    ("persistence", "reduce_pairs"),
    ("vineyard", "transposition_update"), ("vineyard", "composed_bijection"),
    ("vineyard", "path_vineyard"),
    ("sheaf", "build_sheaf"), ("sheaf", "propagate"),
    ("sheaf", "connected_components"), ("sheaf", "enumerate_global_sections"),
    ("sheaf", "walk_permutation"), ("sheaf", "monodromy_scan"),
    ("sheaf", "bundle_section"),
] + [
    ("serialize", name) for name in (
        "fibration_from_json", "canonical_dumps", "stratification_to_json",
        "sheaf_to_json", "sections_to_json", "monodromy_to_json",
        "vines_to_csv")
] + [("cli", "main")]

# Functions recorded as individual spans; everything else is folded.
SPANS = {
    "cli.main", "stratify.build_stratification",
    "vineyard.path_vineyard", "sheaf.build_sheaf",
    "sheaf.enumerate_global_sections", "sheaf.monodromy_scan",
    "sheaf.bundle_section",
} | {f"serialize.{name}" for m, name in TARGETS if m == "serialize"}

COUNT_METRICS = [
    "geometry.orient.calls", "geometry.split_convex.calls",
    "geometry.point_on_convex_boundary.calls",
    "stratify.intersection_trace.calls", "stratify.filtration_at.calls",
    "stratify.cells", "stratify.face_relations",
    "complexes.induced_indexing.calls", "persistence.reduce_pairs.calls",
    "vineyard.transposition_update.calls", "sheaf.morphisms",
    "sheaf.propagate.calls", "serialize.bytes_out",
]


class Tracer:
    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}   # name -> [calls, s, self_s]
        self.active: Dict[str, int] = {}            # name -> open calls
        self.extra: Dict[str, int] = {
            "stratify.cells": 0, "stratify.face_relations": 0,
            "sheaf.morphisms": 0, "sheaf.propagate.sections": 0,
            "vineyard.swaps": 0, "vineyard.reductions_in_transpositions": 0,
            "serialize.bytes_out": 0,
        }
        self.spans: List[Dict] = []
        self.op = -1
        self._stack: List[List[float]] = []         # [child seconds] per call
        self._span_stack: List[Dict] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pdbundle" or n.startswith("pdbundle.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"pdbundle.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        self.active[name] = 0
        stack, span_stack, active = self._stack, self._span_stack, self.active
        on_result = _RESULT_HOOKS.get(name)
        as_span = name in SPANS

        def wrapper(*args, **kwargs):
            frame = [0.0]
            span: Optional[Dict] = None
            if as_span:
                span = {"id": len(self.spans), "op": self.op, "name": name,
                        "parent": span_stack[-1]["id"] if span_stack else None,
                        "folded": {}}
                self.spans.append(span)
                span_stack.append(span)
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s = dur - frame[0]
                totals[0] += 1
                totals[1] += dur
                totals[2] += self_s
                if span is not None:
                    span_stack.pop()
                    span["start"], span["s"], span["self_s"] = t0, dur, self_s
                elif span_stack:
                    f = span_stack[-1]["folded"].setdefault(name, [0, 0.0, 0.0])
                    f[0] += 1
                    f[1] += dur
                    f[2] += self_s
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals[name][0])

    def seconds(self, name: str) -> float:
        return self.totals[name][1]

    def self_seconds(self, module: str) -> float:
        return sum(t[2] for n, t in self.totals.items()
                   if n.split(".")[0] == module)

    def metrics(self, overhead_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics, each a (value, unit) pair; ratios come with
        their base count as a separate count metric."""
        x = self.extra
        transpositions = self.calls("vineyard.transposition_update")
        propagations = self.calls("sheaf.propagate")

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        m: Dict[str, Tuple[float, str]] = {}
        for name in ("geometry.orient", "geometry.split_convex",
                     "geometry.point_on_convex_boundary",
                     "stratify.intersection_trace", "stratify.filtration_at",
                     "complexes.induced_indexing", "persistence.reduce_pairs",
                     "vineyard.transposition_update", "sheaf.propagate"):
            m[f"{name}.calls"] = (self.calls(name), "count")
        for name in ("stratify.build_stratification", "persistence.reduce_pairs",
                     "vineyard.composed_bijection", "vineyard.path_vineyard",
                     "sheaf.build_sheaf", "sheaf.propagate",
                     "sheaf.monodromy_scan", "sheaf.bundle_section"):
            m[f"{name}.s"] = (self.seconds(name), "s")
        for module in ("geometry", "stratify", "vineyard", "sheaf", "cli"):
            m[f"{module}.self_s"] = (self.self_seconds(module), "s")
        m["stratify.cells"] = (x["stratify.cells"], "count")
        m["stratify.face_relations"] = (x["stratify.face_relations"], "count")
        m["vineyard.reductions_per_transposition"] = (
            ratio(x["vineyard.reductions_in_transpositions"], transpositions),
            "ratio")
        m["vineyard.swap_ratio"] = (ratio(x["vineyard.swaps"], transpositions),
                                    "ratio")
        m["sheaf.morphisms"] = (x["sheaf.morphisms"], "count")
        m["sheaf.propagate.section_ratio"] = (
            ratio(x["sheaf.propagate.sections"], propagations), "ratio")
        # serialize functions do not nest, so their inclusive times add up
        m["serialize.s"] = (sum(t[1] for n, t in self.totals.items()
                                if n.startswith("serialize.")), "s")
        m["serialize.bytes_out"] = (x["serialize.bytes_out"], "bytes")
        m["tracing_overhead_s"] = (overhead_s, "s")
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"totals": self.totals, "extra": self.extra},
                                sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# -- counts read off results ---------------------------------------------------

def _on_stratification(tr: Tracer, strat) -> None:
    tr.extra["stratify.cells"] += len(strat.cells)
    tr.extra["stratify.face_relations"] += sum(len(strat.faces_of(c.id))
                                               for c in strat.cells)


def _on_sheaf(tr: Tracer, sheaf) -> None:
    tr.extra["sheaf.morphisms"] += len(sheaf.morphisms)


def _on_propagate(tr: Tracer, result) -> None:
    if type(result).__name__ == "SheafSection":
        tr.extra["sheaf.propagate.sections"] += 1


def _on_transposition(tr: Tracer, result) -> None:
    if not result[1].is_identity():
        tr.extra["vineyard.swaps"] += 1


def _on_reduction(tr: Tracer, result) -> None:
    if tr.active["vineyard.transposition_update"]:
        tr.extra["vineyard.reductions_in_transpositions"] += 1


def _on_text(tr: Tracer, text: str) -> None:
    tr.extra["serialize.bytes_out"] += len(text.encode("utf-8"))


_RESULT_HOOKS = {
    "stratify.build_stratification": _on_stratification,
    "sheaf.build_sheaf": _on_sheaf,
    "sheaf.propagate": _on_propagate,
    "vineyard.transposition_update": _on_transposition,
    "persistence.reduce_pairs": _on_reduction,
    "serialize.canonical_dumps": _on_text,
    "serialize.vines_to_csv": _on_text,
}
