"""Bound sketches: hash-partition relations on selected join attributes and
sum per-partition estimates.

The attribute set S comes from a chosen estimation-graph path: join
attributes that the path does not extend through a bound (conditioned) edge.
Each attribute gets K**(1/|S|) hash buckets; a relation hashes on the subset
of S it contains, and the query splits into K disjoint components whose true
counts add up to the original.

A component's matches of a subquery are exactly the full-graph matches whose
sketched variables hash to that component's buckets.  So, as in the original
bound sketch (Cai, Balazinska & Suciu, SIGMOD 2019), the component statistics
come from one match of each connected subquery of at most h edges on the full
graph, its rows grouped by those buckets: `catalogue.partition_catalogues`
returns one `QueryStats` of q per component, its counts and degree tables
filled in, and no component graph is built for them.  Component graphs are
split from the full graph only when read: for closing rates, which a path
with a cycle-closing edge needs, and by callers of `make_sketch`.  A
component's graph labels each edge by its query edge, `e{i}`, as does the
component's query, so the closing rates are sampled and keyed under those
tags.  Each vertex is hashed at most once per plan.

The unpartitioned plan reads the caller's catalogue when one is given (as
`run_workload` does): a catalogue lacking the query's patterns fails with
MissingStatisticError, and closing-rate plans use that catalogue's closing
rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import product
from typing import Callable

from .catalogue import (Catalogue, QueryStats, add_closing_rates, build_catalogue,
                        partition_catalogues)
from .errors import SketchPlanError
from .estgraph import BOUND, CYCLE_CLOSING, EXTENSION, PathEstimate
from .estimators import (Estimate, HeuristicChoice, estimate_molp,
                         estimate_optimistic, evaluate_optimistic_path)
from .graphstore import LabeledGraph
from .querymodel import QEdge, QueryGraph

MIX = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def _mix64(value: int, seed: int) -> int:
    x = (value * MIX + seed * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & MASK
    x ^= x >> 31
    x = (x * 0xD6E8FEB86659FD93) & MASK
    x ^= x >> 27
    return x


def bucket_of(vertex: int, buckets: int, seed: int) -> int:
    return _mix64(vertex, seed) % buckets


def join_attributes(q: QueryGraph) -> frozenset[str]:
    seen: dict[str, int] = {}
    for e in q.edges:
        for v in (e.src, e.dst):
            seen[v] = seen.get(v, 0) + 1
    return frozenset(v for v, n in seen.items() if n >= 2)


def sketch_attributes(path: PathEstimate, q: QueryGraph, ceg_kind: str) -> frozenset[str]:
    """Join attributes not extended through a bound edge.

    Start and unbound edges are unbound; projection edges extend nothing.
    """
    bound_ext: set[str] = set()
    for e in path.edges:
        if e.kind in (BOUND, EXTENSION, CYCLE_CLOSING):
            bound_ext |= e.extension_vars(q, ceg_kind)
    return join_attributes(q) - bound_ext


@dataclass(frozen=True)
class SketchComponent:
    """One of the K instances; its graph is split from the full graph when
    first read."""

    index: tuple[int, ...]
    query: QueryGraph
    split: Callable[[], LabeledGraph] = field(repr=False, compare=False)

    @cached_property
    def graph(self) -> LabeledGraph:
        return self.split()


class BucketMemo(dict):
    """vertex -> bucket_of(vertex, parts, seed), each vertex hashed once."""

    def __init__(self, parts: int, seed: int):
        super().__init__()
        self.parts, self.seed = parts, seed

    def __missing__(self, vertex: int) -> int:
        b = self[vertex] = bucket_of(vertex, self.parts, self.seed)
        return b


@dataclass
class SketchPlan:
    path: PathEstimate | None
    attrs: tuple[str, ...]          # S, sorted
    k: int
    per_attr_parts: int             # K ** (1/|S|)
    partition_assignments: dict[int, tuple[tuple[str, ...], int]]  # edge -> (PA, pieces)
    seed: int
    buckets: BucketMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.buckets = BucketMemo(self.per_attr_parts, self.seed)


def make_sketch(q: QueryGraph, g: LabeledGraph, path: PathEstimate | None, k: int,
                ceg_kind: str = "attrs", seed: int = 0,
                ) -> tuple[SketchPlan, list[SketchComponent]]:
    """Partition plan plus the K component instances (disjoint, exhaustive).

    k=1 is the identity sketch.  Otherwise k must be a perfect |S|-th power of
    an integer >= 2 and S must be non-empty.  Nothing is split until a
    component's graph is read; then each query edge's relation is split once
    into bucket cells, which every component graph concatenates.
    """
    if k == 1:
        plan = SketchPlan(path=path, attrs=(), k=1, per_attr_parts=1,
                          partition_assignments={}, seed=seed)
        return plan, [SketchComponent((), q, lambda: g)]
    if path is None:
        raise SketchPlanError("k > 1 needs a sketch path")
    attrs = sorted(sketch_attributes(path, q, ceg_kind))
    if not attrs:
        raise SketchPlanError("every join attribute is bound; sketching degenerates (use k=1)")
    parts = _integer_root(k, len(attrs))
    if parts is None or parts < 2:
        raise SketchPlanError(
            f"K={k} is not a perfect |S|-th power >= 2**|S| for |S|={len(attrs)}")

    s_set = set(attrs)
    assignments: dict[int, tuple[tuple[str, ...], int]] = {}
    for i, e in enumerate(q.edges):
        pa = tuple(v for v in attrs if v in (e.src, e.dst))
        assignments[i] = (pa, parts ** len(pa))
    plan = SketchPlan(path=path, attrs=tuple(attrs), k=k, per_attr_parts=parts,
                      partition_assignments=assignments, seed=seed)

    @cache
    def cells() -> list[dict[tuple[int | None, int | None], list[tuple[int, int, str]]]]:
        """Per query edge, edge (u, v) in the cell keyed by the buckets of its
        sketched endpoints (None where the end is not in S)."""
        out, buckets = [], plan.buckets
        for i, e in enumerate(q.edges):
            hash_src, hash_dst, tag = e.src in s_set, e.dst in s_set, f"e{i}"
            split: dict = {}
            for u, v in g.edges_with_label(e.label):
                key = (buckets[u] if hash_src else None, buckets[v] if hash_dst else None)
                split.setdefault(key, []).append((u, v, tag))
            out.append(split)
        return out

    def component_graph(sigma: dict[str, int]) -> LabeledGraph:
        edges = []
        for e, split in zip(q.edges, cells()):
            edges.extend(split.get((sigma.get(e.src), sigma.get(e.dst)), ()))
        return LabeledGraph(edges)

    comp_query = QueryGraph([QEdge(e.src, e.dst, f"e{i}") for i, e in enumerate(q.edges)])
    components = []
    for rev in product(range(parts), repeat=len(attrs)):  # first attribute varies fastest
        index = rev[::-1]
        components.append(SketchComponent(index, comp_query,
                                          partial(component_graph, dict(zip(attrs, index)))))
    return plan, components


def _integer_root(k: int, degree: int) -> int | None:
    root = round(k ** (1.0 / degree))
    for candidate in (root - 1, root, root + 1):
        if candidate >= 1 and candidate ** degree == k:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Sketched estimators
# ---------------------------------------------------------------------------

def estimate_with_sketch(q: QueryGraph, g: LabeledGraph, k: int, base: str,
                         h: int = 2, seed: int = 0, walk_budget: int | None = 1000,
                         choice: HeuristicChoice | None = None,
                         ceg_kind: str = "avg-degree",
                         starts: str = "anchored",
                         catalogue: Catalogue | QueryStats | None = None) -> Estimate:
    """Sum of per-component base estimates under a K-way bound sketch.

    base="molp": the sketch follows the unpartitioned minimum-weight path and
    each component is re-bounded from its own statistics.  base="optimistic":
    the heuristic's chosen path on the unpartitioned graph is fixed and its
    formula re-evaluated per component (min/max aggregators only).

    The unpartitioned plan reads `catalogue` (a Catalogue or a QueryStats of
    q) when given; one built from another graph or at another h raises
    ConfigError, one without q's patterns MissingStatisticError, and
    closing-rate plans use its closing rates.  Without one, a catalogue of q
    alone is built from g.  Component counts and degree tables come from
    grouped full-graph matches (`catalogue.partition_catalogues`); only a
    fixed path with a cycle-closing edge also samples closing rates on each
    component's graph.
    """
    if catalogue is None:
        catalogue = build_catalogue(g, [q], h, walk_budget=walk_budget, seed=seed)
    stats = QueryStats.of(q, catalogue)
    stats.cat.check_h(h)
    stats.cat.check_graph(g)
    fixed_path: PathEstimate | None = None
    if base == "molp":
        unsketched = estimate_molp(q, stats)
        sketch_path = unsketched.chosen_path
        sketch_ceg_kind = "attrs"
        method = f"sketch:bound:k{k}"
        if sketch_path is None:  # zero short-circuit upstream
            return Estimate.from_exact(Fraction(0), method=method,
                                       ceg_kind=unsketched.ceg_kind,
                                       considered_paths=0, chosen_path=None)
    elif base == "optimistic":
        if choice is None or choice.aggr == "avg-aggr":
            raise SketchPlanError("optimistic sketches need a min-aggr or max-aggr choice")
        unsketched = estimate_optimistic(q, stats, ceg_kind, choice, starts=starts)
        sketch_path = unsketched.chosen_path
        fixed_path = sketch_path
        sketch_ceg_kind = "edges"
        method = f"sketch:optimistic:{choice}:k{k}"
    else:
        raise ValueError(f"unknown sketch base {base!r}")

    if k > 1 and not sketch_attributes(sketch_path, q, sketch_ceg_kind):
        k = 1  # every join attribute is bound: partitioning degenerates (identity)
    plan, components = make_sketch(q, g, sketch_path, k, ceg_kind=sketch_ceg_kind, seed=seed)
    parts = partition_catalogues(g, q, h, [dict(zip(plan.attrs, c.index)) for c in components],
                                 plan.buckets)
    closing = fixed_path is not None and any(e.kind == CYCLE_CLOSING for e in fixed_path.edges)

    total = Fraction(0)
    for comp, part in zip(components, parts):
        if base == "molp":
            total += estimate_molp(q, part).exact
        else:
            if closing:  # sampled on the component's graph, so keyed by its edge tags
                add_closing_rates(part.cat, comp.graph, [comp.query], walk_budget, seed)
                part.query = comp.query  # q's index sets and variables, under the tags
            total += evaluate_optimistic_path(fixed_path, part.query, part)
    return Estimate.from_exact(total, method=method, ceg_kind=unsketched.ceg_kind,
                               considered_paths=unsketched.considered_paths,
                               chosen_path=sketch_path)
