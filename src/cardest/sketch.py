"""Bound sketches: hash-partition relations on selected join attributes and
re-evaluate an estimate on each partition.

`estimate_with_sketch` is handed an unsketched estimate and its chosen
path.  The attribute set S comes from that path: join attributes that it
does not extend through a bound (conditioned) edge.  Each attribute gets
K**(1/|S|) hash buckets; a relation hashes on the subset of S it contains,
and the query splits into K disjoint components whose true counts add up
to the original.  A bound is re-bounded on each component; any other
estimate has its path's formula re-evaluated there.  The sketch sums them.

A component's matches of a subquery are exactly the full-graph matches whose
sketched variables hash to that component's buckets.  So, as in the original
bound sketch (Cai, Balazinska & Suciu, SIGMOD 2019), the component statistics
are those of the full graph's relations restricted to one bucket per
sketched attribute.  Each label's adjacency map is split once into cells by
the buckets of its sketched ends (`BucketMemo.cell`), and everything a
component reads comes from those cells.  `partition_catalogues` makes one
`QueryStats` of q per component, handing it its counts and degree tables,
one per index set of q's statistics plan (`catalogue.StatsPlan`): each
built on the planned pattern from the cells (one edge, or two edges over
three variables) or from one full-graph match of the pattern with its rows
grouped by bucket (any other pattern).  A component's graph is built only
when read (for closing rates, which a path with a cycle-closing edge needs,
and by callers of `make_sketch`), from each query edge's cell of the same
split, not split a second time.  It labels each edge by its query edge,
`e{i}`, as does the component's query, so the closing rates are sampled and
keyed under those tags: a closing-rate plan's components read their
statistics as those of the tagged query.

A `SketchCache` holds what the sketched rows of one run share: per (bucket
count, seed), one `BucketMemo` of the graph, under which each vertex is
hashed at most once, each adjacency map split once and each component
degree table built once.  The memo keeps each table twice: its entries by
pattern position, shared by every index set of that pattern key, and, with
its count, keyed by the query masks the plan gives it.  So a row
whose tables are all kept, such as an optimistic row after its query's bound
row on the same sketch attributes, does one lookup per index set and component.
`run_workload` makes one per run; a call without one makes its own.  The
components take the h of the catalogue the estimate was made from, and
closing-rate plans use that catalogue's closing rates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress, product
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from . import oracle
from .catalogue import (Catalogue, DegreeTable, PlannedSet, QueryStats, StatsPlan,
                        _key_to_query, add_closing_rates, pattern_table, stats_plan)
from .errors import ConfigError, SketchPlanError
from .estgraph import BOUND, CYCLE_CLOSING, EXTENSION, PathEstimate
from .estimators import KIND_MAXDEG, Estimate, estimate_molp, evaluate_optimistic_path
from .graphstore import SRC, LabeledGraph
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

    Start and unbound edges are unbound.
    """
    bound_ext: set[str] = set()
    for e in path.edges:
        if e.kind in (BOUND, EXTENSION, CYCLE_CLOSING):
            bound_ext |= e.extension_vars(q, ceg_kind)
    return join_attributes(q) - bound_ext


@dataclass(frozen=True)
class SketchComponent:
    """One of the K instances; its graph is built from its cells when first
    read."""

    index: tuple[int, ...]
    query: QueryGraph
    build: Callable[[], LabeledGraph] = field(repr=False, compare=False)

    @cached_property
    def graph(self) -> LabeledGraph:
        return self.build()


class BucketMemo(dict):
    """vertex -> bucket_of(vertex, parts, seed) over `graph`, each vertex
    hashed once, with the cells of the graph's adjacency maps under these
    buckets and the component degree tables built from them, kept for every
    later sketch of the graph.  `tables` keys a table's entries by pattern
    position under (pattern key, buckets); `query_tables` keeps (count,
    table keyed by query masks) under (pattern key, buckets, each position's
    query bit), so a query whose tables are kept finds each with one lookup."""

    def __init__(self, graph: LabeledGraph, parts: int, seed: int):
        super().__init__()
        self.graph, self.parts, self.seed = graph, parts, seed
        self.splits: dict = {}
        self.tables: dict = {}
        self.query_tables: dict = {}

    def __missing__(self, vertex: int) -> int:
        b = self[vertex] = bucket_of(vertex, self.parts, self.seed)
        return b

    def cell(self, part: Mapping[str, int], e: QEdge, side: str) -> Mapping[int, list[int]]:
        """e's neighbour map at `side` in part's buckets of e's ends (an end
        that part does not name is not split on).  A neighbour list keeps,
        in order, the neighbours in the far end's bucket, and a vertex left
        without one is dropped.  Each map is split once per memo."""
        near, far = (part.get(v) for v in (e.vars() if side == SRC else e.vars()[::-1]))
        adj = self.graph.adjacency(e.label, side)
        if near is None and far is None:
            return adj
        key = e.label, side, near is not None, far is not None
        if key not in self.splits:
            self.splits[key] = _split_adjacency(adj, self, *key[2:])
        return self.splits[key].get((near, far), {})


def _split_adjacency(adj: Mapping[int, list[int]], part_of: Mapping[int, int],
                     by_near: bool, by_far: bool) -> Mapping[tuple, dict[int, list[int]]]:
    """adj's cells keyed by (near bucket, far bucket): part_of of the keyed
    vertex when `by_near` and of each neighbour when `by_far`, else None."""
    cells: defaultdict[tuple, dict[int, list[int]]] = defaultdict(dict)
    bucket = part_of.__getitem__
    for u, nbrs in adj.items():
        near = bucket(u) if by_near else None
        if not by_far:
            cells[near, None][u] = nbrs
        elif len(nbrs) == 1:
            cells[near, bucket(nbrs[0])][u] = nbrs
        else:
            fars = list(map(bucket, nbrs))
            for far in set(fars):
                cells[near, far][u] = list(compress(nbrs, map(far.__eq__, fars)))
    return cells


def _component_graph(memo: BucketMemo, q: QueryGraph, part: Mapping[str, int]) -> LabeledGraph:
    """The component in part's buckets: each query edge's SRC cell, tagged e{i}."""
    return LabeledGraph((u, v, f"e{i}") for i, e in enumerate(q.edges)
                        for u, nbrs in memo.cell(part, e, SRC).items() for v in nbrs)


class SketchCache:
    """One BucketMemo per (bucket count, seed) for the sketches of one graph."""

    def __init__(self, g: LabeledGraph):
        self.graph = g
        self._memos: dict[tuple[int, int], BucketMemo] = {}

    def check_graph(self, g: LabeledGraph) -> None:
        """Raise ConfigError unless made for `g`: its splits hold g's edges."""
        if g is not self.graph and g.sha256 != self.graph.sha256:
            raise ConfigError("sketch cache was made for a different graph")

    def buckets(self, parts: int, seed: int) -> BucketMemo:
        memo = self._memos.get((parts, seed))
        if memo is None:
            memo = self._memos[parts, seed] = BucketMemo(self.graph, parts, seed)
        return memo


@dataclass
class SketchPlan:
    """How a sketch partitions: its attributes S, K, and the bucket memo."""

    attrs: tuple[str, ...]          # S, sorted
    k: int
    per_attr_parts: int             # K ** (1/|S|)
    seed: int
    buckets: BucketMemo = field(repr=False, compare=False)


def make_sketch(q: QueryGraph, g: LabeledGraph, path: PathEstimate | None, k: int,
                ceg_kind: str = "attrs", seed: int = 0, cache: SketchCache | None = None,
                ) -> tuple[SketchPlan, list[SketchComponent]]:
    """Partition plan plus the K component instances (disjoint, exhaustive).

    S is the sketch attributes of `path` (`sketch_attributes` under
    `ceg_kind`).  k=1 is the identity sketch.  Otherwise k must be a perfect
    |S|-th power of an integer >= 2 and S must be non-empty; any other k,
    one below 1 included, raises SketchPlanError.  The plan's buckets come
    from `cache` (a fresh one when None; ConfigError when made for another
    graph).  A component's graph is built when first read, from the cells
    its statistics read (`BucketMemo.cell`).
    """
    cache = cache or SketchCache(g)
    cache.check_graph(g)
    _check_k(k)
    if k == 1:
        plan = SketchPlan(attrs=(), k=1, per_attr_parts=1, seed=seed,
                          buckets=cache.buckets(1, seed))
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

    plan = SketchPlan(attrs=tuple(attrs), k=k, per_attr_parts=parts, seed=seed,
                      buckets=cache.buckets(parts, seed))
    comp_query = QueryGraph([QEdge(e.src, e.dst, f"e{i}") for i, e in enumerate(q.edges)])
    components = []
    for rev in product(range(parts), repeat=len(attrs)):  # first attribute varies fastest
        index = rev[::-1]
        components.append(SketchComponent(index, comp_query, partial(
            _component_graph, plan.buckets, q, dict(zip(attrs, index)))))
    return plan, components


def partition_catalogues(q: QueryGraph, h: int, parts: Sequence[Mapping[str, int]],
                         memo: BucketMemo, query: QueryGraph | None = None) -> list[QueryStats]:
    """q's counts and degree tables on each part of memo.graph's matches of
    q, one QueryStats per part, without closing rates.

    Part j keeps the matches whose variables v in parts[j] (every part names
    the same variables) bind vertices x with memo[x] == parts[j][v].  Each
    index set of q's statistics plan at h gets one table per distinct group
    of those values that a part reads (an empty group: the all-zero table),
    from the kernel `build_catalogue` uses (`catalogue.pattern_table`) on the
    planned pattern: one edge, or two edges over three variables, read the
    part's cells (`BucketMemo.cell`); any other pattern is matched and its
    rows grouped, once per call and only when a table is missing.  A table's
    entries are kept in memo.tables under (pattern key, buckets by pattern
    position, None where not in the parts), and, keyed by q's masks with
    its count, in memo.query_tables under (pattern key, buckets, the plan's
    bits): a call whose tables are all kept does one lookup per index set
    and part.  Kept tables are shared: read them, never change them.  Each
    part's QueryStats reads as that of `query` when given, a query with q's
    variables and edges but other labels, such as the components' tagged one.
    """
    counts, tables = [{} for _ in parts], [{} for _ in parts]
    plan = stats_plan(q, h)
    for s, planned in plan.sets.items():
        build = None
        for part_counts, part_tables, part in zip(counts, tables, parts):
            key = planned.key, tuple(map(part.get, planned.vars)), planned.bits
            got = memo.query_tables.get(key)
            if got is None:
                build = build or _table_builder(memo, plan, planned, parts[0])
                got = memo.query_tables[key] = build(key[1])
            part_counts[s], part_tables[s] = got
    return [QueryStats(query or q, Catalogue(h=h), part_counts, part_tables)
            for part_counts, part_tables in zip(counts, tables)]


def _table_builder(memo: BucketMemo, plan: StatsPlan, planned: PlannedSet,
                   sketched_vars: Mapping[str, int],
                   ) -> Callable[[tuple], tuple[int, DegreeTable]]:
    """A function of a part's buckets by pattern position that gives the
    planned pattern's count and table on that part, keyed by the plan's
    layout of its bits, from memo.tables' entries under (key, buckets),
    which it makes and keeps when missing.  The pattern's matches, listed
    only if a table needs them, are grouped by the buckets of `sketched_vars` once."""
    pairs, read = plan.layouts[planned.bits]
    rep = _key_to_query(planned.key)   # its variable at position i is x{i}
    sketched = [i for i, v in enumerate(planned.vars) if v in sketched_vars]
    grouped = lru_cache(None)(lambda: _group_rows(oracle.matches(memo.graph, rep),
                                                  sketched, memo))

    def build(buckets: tuple) -> tuple[int, DegreeTable]:
        entries = memo.tables.get((planned.key, buckets))
        if entries is None:
            part = {v: b for v, b in zip(rep.vars, buckets) if b is not None}
            group = tuple(buckets[i] for i in sketched)
            entries = memo.tables[planned.key, buckets] = pattern_table(
                partial(memo.cell, part), rep, lambda: grouped().get(group, []))
        table = dict(zip(pairs, read(entries)))
        return table[0, sum(planned.bits)], table
    return build


def _group_rows(rows: list[tuple[int, ...]], positions: Sequence[int],
                part_of: Mapping[int, int]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """`rows` grouped by the part_of values at `positions`, in row order."""
    if not positions:
        return {(): rows}
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    row_groups = zip(*[map(part_of.__getitem__, map(itemgetter(p), rows)) for p in positions])
    for group, row in zip(row_groups, rows):
        groups.setdefault(group, []).append(row)
    return groups


def _check_k(k: int) -> None:
    if k < 1:
        raise SketchPlanError(f"K={k} is below 1 (1: no sketch)")


def _integer_root(k: int, degree: int) -> int | None:
    root = round(k ** (1.0 / degree))
    for candidate in (root - 1, root, root + 1):
        if candidate >= 1 and candidate ** degree == k:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Sketched estimates
# ---------------------------------------------------------------------------

def estimate_with_sketch(q: QueryGraph, g: LabeledGraph, k: int, estimate: Estimate,
                         catalogue: Catalogue | QueryStats, seed: int = 0,
                         walk_budget: int | None = 1000,
                         cache: SketchCache | None = None) -> Estimate:
    """`estimate`, made from `catalogue` (a Catalogue of g or a QueryStats
    of q over one), re-evaluated on each component of a K-way bound sketch
    on its chosen path, and summed.

    A bound (max-degree) is re-bounded on each component; any other
    estimate has its path's formula re-evaluated there.  The result is
    `estimate` with that sum as `exact` and method
    f"sketch:{estimate.method}:k{k}".  An estimate without a chosen path
    (avg-aggr) or a K below 1 raises SketchPlanError, a catalogue of another
    graph ConfigError.  Buckets, splits and tables come from `cache` (see
    `make_sketch`), which `run_workload` shares across its rows.
    """
    stats = QueryStats.of(q, catalogue)
    stats.cat.check_graph(g)
    path = estimate.chosen_path
    if path is None:
        raise SketchPlanError("optimistic sketches need a min-aggr or max-aggr choice")
    _check_k(k)
    method = f"sketch:{estimate.method}:k{k}"
    bound = estimate.ceg_kind == KIND_MAXDEG
    if bound and estimate.exact == 0:  # an empty pattern: every component bound is 0 too
        return replace(estimate, method=method)
    ceg_kind = "attrs" if bound else "edges"
    if k > 1 and not sketch_attributes(path, q, ceg_kind):
        k = 1  # every join attribute is bound: partitioning degenerates (identity)
    plan, components = make_sketch(q, g, path, k, ceg_kind=ceg_kind, seed=seed, cache=cache)
    closing = not bound and any(e.kind == CYCLE_CLOSING for e in path.edges)
    parts = partition_catalogues(q, stats.cat.h,
                                 [dict(zip(plan.attrs, c.index)) for c in components],
                                 plan.buckets, components[0].query if closing else None)

    total = Fraction(0)
    for comp, part in zip(components, parts):
        if bound:
            total += estimate_molp(q, part).exact
        else:
            if closing:  # sampled on the component's graph, so keyed by its edge tags
                add_closing_rates(part.cat, comp.graph, [comp.query], walk_budget, seed)
            total += evaluate_optimistic_path(path, part)
    return replace(estimate, exact=total, method=method)
