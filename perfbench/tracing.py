"""Span recorder for the traced run, and the per-layer metrics it yields.

The library has no instrumentation of its own.  Instead, the traced run
replaces each public function below with a wrapper that records a span (name,
start, end, parent) around the call, patched under the name its callers look
it up by: `evalharness.count_hom` is imported by name, for instance, while
`catalogue` calls `oracle.matches` through the module.  Counts come from each
call's arguments and return value.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator

from stats import self_time

Counter = Callable[[tuple, dict, object], dict]


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None" = None
    end: float = 0.0
    error: str | None = None                  # exception type name, if it raised
    counts: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    untimed: float = 0.0                      # spent counting children's results

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self_time(self.start, self.end,
                         ((c.start, c.end) for c in self.children)) - self.untimed

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Tracer:
    """Single-threaded span stack; one tracer per traced setup-and-pass cycle."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), parent)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            if counter is not None:
                counted_from = self.clock()
                span.counts = counter(args, kwargs, result)
                if parent is not None:
                    parent.untimed += self.clock() - counted_from
            return result

        traced.__wrapped__ = fn
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


@contextmanager
def patched(tracer: Tracer, targets) -> Iterator[None]:
    """Install a traced wrapper for every (owner, attr, span, counter) target.

    A target the library no longer has is skipped; its metrics then read 0.
    """
    saved = []
    try:
        for owner, attr, name, counter in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _ceg_size(args, kwargs, ceg) -> dict:
    return {"vertices": len(ceg.vertices()), "edges": sum(1 for _ in ceg.all_edges())}


def _sketch_size(args, kwargs, result) -> dict:
    _, components = result
    return {"components": len(components),
            "edges": sum(len(c.graph.edges) for c in components)}


def _opt_rows(args, kwargs, result) -> dict:
    return {"opt_rows": sum(1 for r in result.records
                            if r.method.startswith(("optimistic", "pstar")))}


def library_targets(lib: SimpleNamespace) -> list[tuple]:
    """What the traced run patches: (owner, attribute, span name, counter)."""
    size = lambda args, kwargs, result: {"n": len(result)}  # noqa: E731
    walks = lambda args, kwargs, result: {  # noqa: E731
        "sampled": _arg(args, kwargs, 2, "p"), "completed": len(result)}
    return [
        (lib.graphstore, "load_graph", "graphstore.load_graph", None),
        (lib.cli, "parse_query", "querymodel.parse_query", None),
        (lib.catalogue, "build_catalogue", "catalogue.build_catalogue", None),
        (lib.sketch, "build_catalogue", "catalogue.build_catalogue", None),
        (lib.evalharness, "build_catalogue", "catalogue.build_catalogue", None),
        (lib.oracle, "matches", "oracle.matches", size),
        (lib.oracle, "sample_label_paths", "oracle.sample_label_paths", walks),
        (lib.oracle, "count_hom", "oracle.count_hom", None),
        (lib.evalharness, "count_hom", "oracle.count_hom", None),
        (lib.estimators, "build_optimistic", "estgraph.build_optimistic", _ceg_size),
        (lib.estimators, "enumerate_paths", "estgraph.enumerate_paths", size),
        (lib.estgraph, "build_maxdeg", "estgraph.build_maxdeg", _ceg_size),
        (lib.estgraph, "min_weight_path", "estgraph.min_weight_path", None),
        (lib.estimators, "maxdeg_moves", "estimators.maxdeg_moves", size),
        (lib.estimators, "estimate_optimistic", "estimators.estimate_optimistic", None),
        (lib.evalharness, "estimate_optimistic", "estimators.estimate_optimistic", None),
        (lib.sketch, "estimate_optimistic", "estimators.estimate_optimistic", None),
        (lib.estimators, "estimate_molp", "estimators.estimate_molp", None),
        (lib.evalharness, "estimate_molp", "estimators.estimate_molp", None),
        (lib.sketch, "estimate_molp", "estimators.estimate_molp", None),
        (lib.evalharness, "estimate_pstar", "estimators.estimate_pstar", None),
        (lib.evalharness, "estimate_with_sketch", "sketch.estimate_with_sketch", None),
        (lib.sketch, "make_sketch", "sketch.make_sketch", _sketch_size),
        (lib.evalharness, "run_workload", "evalharness.run_workload", _opt_rows),
        (lib.evalharness, "summarize", "evalharness.summarize", None),
        (lib.evalharness.RunResult, "csv_text", "evalharness.csv_text", None),
        (lib.evalharness.RunResult, "summary_json", "evalharness.summary_json", None),
    ]


# name -> unit, in report order.  Each value is the total over one traced cycle
# (one setup plus one pass), as the median over the run's traced cycles; the
# `trace.*` ones compare traced cycles with untraced ones.
PER_LAYER_UNITS: dict[str, str] = {
    "graphstore.load_s": "s",
    "querymodel.parse_s": "s",
    "catalogue.build_s": "s",
    "catalogue.builds": "count",
    "catalogue.self_s": "s",
    "catalogue.patterns": "count",
    "catalogue.canon_hit_ratio": "ratio",
    "oracle.matches_s": "s",
    "oracle.matches_calls": "count",
    "oracle.match_rows": "count",
    "oracle.walks_s": "s",
    "oracle.walks_sampled": "count",
    "oracle.walk_yield": "ratio",
    "oracle.count_s": "s",
    "oracle.count_calls": "count",
    "estgraph.build_optimistic_s": "s",
    "estgraph.ceg_vertices": "count",
    "estgraph.ceg_edges": "count",
    "estgraph.enumerate_paths_s": "s",
    "estgraph.paths": "count",
    "estgraph.build_maxdeg_s": "s",
    "estgraph.maxdeg_edges": "count",
    "estgraph.min_weight_path_s": "s",
    "estimators.molp_s": "s",
    "estimators.maxdeg_moves": "count",
    "estimators.optimistic_self_s": "s",
    "estimators.pstar_s": "s",
    "sketch.estimate_s": "s",
    "sketch.make_sketch_s": "s",
    "sketch.components": "count",
    "sketch.component_edges": "count",
    "sketch.catalogue_builds_per_row": "count",
    "sketch.plan_failures": "count",
    "evalharness.run_self_s": "s",
    "evalharness.summarize_s": "s",
    "evalharness.output_s": "s",
    "evalharness.path_cache_hit_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def module_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per module, the prefix of each span name."""
    out: dict[str, float] = {}
    for span in tracer.spans:
        module = span.name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + span.self_s
    return out


def layer_metrics(tracer: Tracer, patterns: int, canon_hit_ratio: float) -> dict[str, float]:
    """Per-layer totals of one traced cycle (one setup plus one pass)."""
    def total(name: str) -> float:
        return sum(s.duration for s in tracer.named(name))

    def own(name: str) -> float:
        return sum(s.self_s for s in tracer.named(name))

    def tally(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in tracer.named(name))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sketched = tracer.named("sketch.estimate_with_sketch")
    planned = {id(s) for s in sketched if s.error is None}
    planned_builds = sum(1 for s in tracer.named("catalogue.build_catalogue")
                         if id(s.parent) in planned)
    cached_builds = sum(1 for s in tracer.named("estgraph.build_optimistic")
                        if s.has_ancestor("evalharness.run_workload"))
    opt_rows = tally("evalharness.run_workload", "opt_rows")
    sampled = tally("oracle.sample_label_paths", "sampled")
    return {
        "graphstore.load_s": total("graphstore.load_graph"),
        "querymodel.parse_s": total("querymodel.parse_query"),
        "catalogue.build_s": total("catalogue.build_catalogue"),
        "catalogue.builds": len(tracer.named("catalogue.build_catalogue")),
        "catalogue.self_s": own("catalogue.build_catalogue"),
        "catalogue.patterns": patterns,
        "catalogue.canon_hit_ratio": canon_hit_ratio,
        "oracle.matches_s": total("oracle.matches"),
        "oracle.matches_calls": len(tracer.named("oracle.matches")),
        "oracle.match_rows": tally("oracle.matches", "n"),
        "oracle.walks_s": total("oracle.sample_label_paths"),
        "oracle.walks_sampled": sampled,
        "oracle.walk_yield": ratio(tally("oracle.sample_label_paths", "completed"), sampled),
        "oracle.count_s": total("oracle.count_hom"),
        "oracle.count_calls": len(tracer.named("oracle.count_hom")),
        "estgraph.build_optimistic_s": total("estgraph.build_optimistic"),
        "estgraph.ceg_vertices": tally("estgraph.build_optimistic", "vertices"),
        "estgraph.ceg_edges": tally("estgraph.build_optimistic", "edges"),
        "estgraph.enumerate_paths_s": total("estgraph.enumerate_paths"),
        "estgraph.paths": tally("estgraph.enumerate_paths", "n"),
        "estgraph.build_maxdeg_s": total("estgraph.build_maxdeg"),
        "estgraph.maxdeg_edges": tally("estgraph.build_maxdeg", "edges"),
        "estgraph.min_weight_path_s": total("estgraph.min_weight_path"),
        "estimators.molp_s": total("estimators.estimate_molp"),
        "estimators.maxdeg_moves": tally("estimators.maxdeg_moves", "n"),
        "estimators.optimistic_self_s": own("estimators.estimate_optimistic"),
        "estimators.pstar_s": total("estimators.estimate_pstar"),
        "sketch.estimate_s": total("sketch.estimate_with_sketch"),
        "sketch.make_sketch_s": total("sketch.make_sketch"),
        "sketch.components": tally("sketch.make_sketch", "components"),
        "sketch.component_edges": tally("sketch.make_sketch", "edges"),
        "sketch.catalogue_builds_per_row": ratio(planned_builds, len(planned)),
        "sketch.plan_failures": sum(1 for s in sketched if s.error == "SketchPlanError"),
        "evalharness.run_self_s": own("evalharness.run_workload"),
        "evalharness.summarize_s": total("evalharness.summarize"),
        "evalharness.output_s": total("evalharness.csv_text") + total("evalharness.summary_json"),
        "evalharness.path_cache_hit_ratio": 1 - cached_builds / opt_rows if opt_rows else 0.0,
    }
