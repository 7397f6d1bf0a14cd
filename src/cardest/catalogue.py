"""Statistics store: pattern counts, max-degree statistics, cycle-closing rates.

Patterns are connected, directed, edge-labeled graphs with at most `h` edges,
keyed up to isomorphism (variable names are irrelevant).  Counts and degree
statistics are exact oracle values on the source graph; closing rates come
from sampled walks, or from exact walk counts.  A pattern's degree table holds
deg(X, Y) for every X ⊆ Y of its 3^|vars| variable-subset pairs.

`QueryStats` is how estimators read a catalogue: one query's view, which
resolves each connected index set of at most h edges, on first use, to its
count and its whole degree table under the query's own variable names, and
each (cycle, closing edge) to its closing rate.

`build_catalogue` fills the table of a one-edge pattern, and of a two-edge
pattern over three variables (every pattern with two edges except parallel
and antiparallel pairs), from the graph's per-label adjacency maps without
listing a match row.  Every other pattern, and `partition_catalogues`, lists
the pattern's distinct match rows and projects them onto each variable subset.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product
from operator import itemgetter, mul
from typing import IO, Collection, Iterable, Mapping, Sequence

from . import oracle
from .errors import (CatalogueFormatError, ConfigError, MissingStatisticError,
                     QueryValidationError)
from .graphstore import DST, SRC, LabeledGraph
from .oracle import FWD, REV, LabelStep
from .querymodel import QEdge, QueryGraph, connected_index_sets, cycles, index_pattern, subsets

FORMAT_VERSION = 1

Pattern = tuple[tuple[str, str, str], ...]  # (srcVar, dstVar, label) triples
DegreeTable = dict[tuple[tuple[str, ...], tuple[str, ...]], int]  # (X, Y) -> deg(X, Y)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def canonical_form(pattern: Pattern) -> tuple[str, tuple[tuple[str, int], ...]]:
    """Isomorphism-invariant key plus one optimal variable->index mapping.

    Minimizes the sorted edge encoding over all variable orderings; any
    automorphic mapping gives identical degree statistics, so returning a
    single optimal mapping is enough for lookups.
    """
    var_list: list[str] = []
    for s, d, _ in pattern:
        if s not in var_list:
            var_list.append(s)
        if d not in var_list:
            var_list.append(d)
    n = len(var_list)
    best_enc = None
    best_perm = None
    for perm in permutations(range(n)):
        pos = {var_list[i]: perm[i] for i in range(n)}
        enc = tuple(sorted((pos[s], pos[d], lab) for s, d, lab in pattern))
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_perm = perm
    key = json.dumps(best_enc, separators=(",", ":"))
    mapping = tuple((var_list[i], best_perm[i]) for i in range(n))
    return key, mapping


def _key_to_query(key: str) -> QueryGraph:
    """Representative query for a canonical key; its vars are x0..x{n-1}."""
    enc = json.loads(key)
    return QueryGraph([QEdge(f"x{s}", f"x{d}", lab) for s, d, lab in enc])


def _deg_entry_key(x_idx: Iterable[int], y_idx: Iterable[int]) -> str:
    """Entry key of deg(X, Y): both index sets sorted and comma-joined, e.g. "1|0,1"."""
    return "|".join(",".join(map(str, sorted(s))) for s in (x_idx, y_idx))


# ---------------------------------------------------------------------------
# Cycle-closing keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosingSpec:
    """How to sample one cycle-closing rate.

    walk: the label sequence of the cycle minus its closing edge.
    close_label: the closing edge's label.
    close_from_end: True when the closing data edge runs from the walk's last
    vertex to its first (False: first to last).
    """

    walk: tuple[LabelStep, ...]
    close_label: str
    close_from_end: bool

    @property
    def length(self) -> int:
        return len(self.walk)

    def key(self) -> str:
        prev = f"{self.walk[0][0]}{self.walk[0][1]}"
        nxt = f"{self.walk[-1][0]}{self.walk[-1][1]}"
        orient = "e>s" if self.close_from_end else "s>e"
        return json.dumps([prev, f"{self.close_label}:{orient}", nxt, self.length],
                          separators=(",", ":"))


def closing_spec(q: QueryGraph, cycle: frozenset[int], close_idx: int) -> ClosingSpec:
    """Walk specification for closing `cycle` with edge `close_idx`.

    The walk traverses the cycle minus the closing edge; of the two possible
    traversal directions the one with the lexicographically smaller token
    sequence is used, so building and lookup agree on the key.
    """
    if close_idx not in cycle:
        raise QueryValidationError("closing edge must belong to the cycle")
    close = q.edges[close_idx]
    residual = sorted(cycle - {close_idx})
    path_a = _walk_steps(q, residual, start=close.src)   # src -> ... -> dst
    path_b = _walk_steps(q, residual, start=close.dst)   # dst -> ... -> src
    # Walk from src: closing edge runs start -> end; from dst: end -> start.
    spec_a = ClosingSpec(path_a, close.label, close_from_end=False)
    spec_b = ClosingSpec(path_b, close.label, close_from_end=True)
    return min(spec_a, spec_b, key=lambda s: (s.walk, s.close_from_end))


def _walk_steps(q: QueryGraph, residual: Sequence[int], start: str) -> tuple[LabelStep, ...]:
    incidence: dict[str, list[int]] = {}
    for i in residual:
        incidence.setdefault(q.edges[i].src, []).append(i)
        incidence.setdefault(q.edges[i].dst, []).append(i)
    steps: list[LabelStep] = []
    current = start
    used: set[int] = set()
    for _ in residual:
        nxt = [i for i in incidence[current] if i not in used]
        if len(nxt) != 1:
            raise QueryValidationError("cycle edges do not form a simple path")
        i = nxt[0]
        used.add(i)
        e = q.edges[i]
        if e.src == current:
            steps.append((e.label, FWD))
            current = e.dst
        else:
            steps.append((e.label, REV))
            current = e.src
    return tuple(steps)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

@dataclass
class ClosingStat:
    samples: int
    closures: int

    @property
    def rate(self) -> Fraction:
        if self.samples == 0:
            return Fraction(0)
        return Fraction(self.closures, self.samples)


@dataclass
class Catalogue:
    h: int
    counts: dict[str, int] = field(default_factory=dict)
    deg_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    closing: dict[str, ClosingStat] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- lookups ------------------------------------------------------------

    def closing_rate(self, key: str) -> Fraction | None:
        stat = self.closing.get(key)
        return None if stat is None else stat.rate

    def footprint_bytes(self) -> int:
        """Rough serialized size of the statistics tables."""
        return len(serialize(self).encode("utf-8"))

    def graph_signature(self) -> str | None:
        return (self.meta.get("graph") or {}).get("sha256")

    def check_h(self, h: int) -> None:
        """Raise ConfigError unless built at `h`: other pattern sizes change the estimates."""
        if self.h != h:
            raise ConfigError(f"h={h} differs from the catalogue's h={self.h}")

    def check_graph(self, g: LabeledGraph) -> None:
        """Raise ConfigError unless built from `g`: other statistics void the bound."""
        if self.graph_signature() != g.sha256:
            raise ConfigError("catalogue was built from a different graph (sha256 mismatch)")


class QueryStats:
    """The statistics of one query q, resolved from a catalogue on first use.

    Each connected index set s of at most h edges has a count and a degree
    table, the table keyed by (X, Y) as sorted tuples of q's own variable
    names for every X ⊆ Y ⊆ vars(s); each (cycle, closing edge) has a closing
    rate.  A statistic the catalogue lacks, or a degree table short of its
    3^|vars| entries, raises MissingStatisticError.
    """

    def __init__(self, q: QueryGraph, cat: Catalogue):
        self.query, self.cat = q, cat
        self._counts: dict[frozenset[int], int] = {}
        self._tables: dict[frozenset[int], DegreeTable] = {}

    @classmethod
    def of(cls, q: QueryGraph, stats: Catalogue | QueryStats) -> QueryStats:
        """`stats` itself when it is a QueryStats (of q), else q's view of it."""
        return stats if isinstance(stats, QueryStats) else cls(q, stats)

    def count(self, s: frozenset[int]) -> int:
        got = self._counts.get(s)
        if got is None:
            key = canonical_form(index_pattern(self.query, s))[0]
            got = self.cat.counts.get(key)
            if got is None:
                raise MissingStatisticError(f"count for pattern {key}")
            self._counts[s] = got
        return got

    def degrees(self, s: frozenset[int]) -> DegreeTable:
        got = self._tables.get(s)
        if got is None:
            key, mapping = canonical_form(index_pattern(self.query, s))
            entries = self.cat.deg_stats.get(key)
            if entries is not None:
                got = _named_table(entries, {str(i): v for v, i in mapping})
            if got is None:
                raise MissingStatisticError(f"degree table for pattern {key}")
            self._tables[s] = got
        return got

    def closing_rate(self, cycle: frozenset[int], close_idx: int) -> tuple[Fraction, str]:
        """Sampled rate of closing `cycle` with query edge `close_idx`, and its key."""
        key = closing_spec(self.query, cycle, close_idx).key()
        rate = self.cat.closing_rate(key)
        if rate is None:
            raise MissingStatisticError(f"closing rate {key}")
        return rate, key


def _named_table(entries: Mapping[str, int], names: Mapping[str, str]) -> DegreeTable | None:
    """A stored table, its entries keyed by index, keyed by (X, Y) as sorted
    tuples of the indices' `names`; None when it has fewer than the 3^|names|
    entries of a complete table or an entry names another index."""
    if len(entries) < 3 ** len(names):
        return None
    parts: dict[str, tuple[str, ...]] = {}  # "0,2" -> its sorted variables

    def part_vars(part: str) -> tuple[str, ...]:
        got = parts.get(part)
        if got is None:
            got = parts[part] = tuple(sorted(names[i] for i in part.split(",") if i))
        return got

    table = {}
    try:
        for entry, deg in entries.items():
            x, y = entry.split("|")
            table[part_vars(x), part_vars(y)] = deg
    except (KeyError, ValueError):  # an entry key outside the pattern's indices
        return None
    return table


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_catalogue(
    g: LabeledGraph,
    workload: Sequence[QueryGraph] | None,
    h: int,
    walk_budget: int | None = 1000,
    seed: int = 0,
    exhaustive: bool = False,
    max_exhaustive_patterns: int = 200_000,
) -> Catalogue:
    """Collect statistics for every connected pattern of <= h edges that the
    workload needs (or every label/shape combination in exhaustive mode), plus
    degree statistics per pattern and closing rates for workload cycles longer
    than h.

    A one-edge pattern's table comes from its label's adjacency maps, and a
    two-edge pattern's over three variables from the neighbour lists of each
    middle vertex over its two edges; no match row is listed for either.  Two
    edges on one variable pair, and patterns of three or more edges, are
    matched and their rows projected.  The shape alone decides.

    walk_budget=None makes every closing rate exact instead of sampled: its
    samples are all walks of the key's spec, counted as the matches of the walk
    read as a path query, and its closures are the matches of that path plus
    the closing edge, i.e. the walks the closing edge closes.  Any other
    budget below 1 raises ConfigError.
    """
    if h < 2:
        raise ConfigError(f"h must be >= 2, got {h}")
    check_walk_budget(walk_budget)
    if exhaustive:
        keys = _exhaustive_pattern_keys(g, h, max_exhaustive_patterns)
    else:
        if workload is None:
            raise ConfigError("workload mode needs a workload")
        keys = {canonical_form(index_pattern(q, s))[0]
                for q in workload for s in connected_index_sets(q, h)}

    cat = Catalogue(h=h)
    for key in sorted(keys):
        rep = _key_to_query(key)
        table = _pattern_table(g, rep)
        cat.counts[key] = table[_deg_entry_key((), range(len(rep.vars)))]
        cat.deg_stats[key] = table

    if workload:
        add_closing_rates(cat, g, workload, walk_budget, seed)

    cat.meta = {
        "h": h,
        "seed": seed,
        "walk_budget": walk_budget,
        "mode": "exhaustive" if exhaustive else "workload",
        "patterns": len(cat.counts),
        "graph": {
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "labels": len(g.labels),
            "sha256": g.sha256,
        },
    }
    return cat


def check_walk_budget(walk_budget: int | None) -> None:
    """Raise ConfigError unless the budget is None (exact rates) or at least 1."""
    if walk_budget is not None and walk_budget < 1:
        raise ConfigError(f"walk budget must be >= 1 (None: exact rates), got {walk_budget}")


def _pattern_table(g: LabeledGraph, rep: QueryGraph) -> dict[str, int]:
    """deg(X, Y) of the representative on g: from the adjacency maps for one
    edge or two edges over three variables, from its match rows otherwise."""
    if len(rep.edges) == 1:
        e = rep.edges[0]
        out, inc = g.adjacency(e.label, SRC), g.adjacency(e.label, DST)
        s, d = (1 << rep.vars.index(v) for v in e.vars())
        return _table_from_masks(2, g.label_count(e.label), {
            (0, s): len(out), (s, s | d): _top(map(len, out.values())),
            (0, d): len(inc), (d, s | d): _top(map(len, inc.values()))})
    if len(rep.edges) == 2 and len(rep.vars) == 3:
        return _two_edge_table(g, rep)
    return _rows_table(rep, set(oracle.matches(g, rep)))


def _two_edge_table(g: LabeledGraph, rep: QueryGraph) -> dict[str, int]:
    """The table of a two-edge pattern a - m - c (each edge either way) from
    the neighbour lists of each middle vertex m over the two edges, A[m] and
    C[m]: its rows, (a, m, c) for a in A[m] and c in C[m], are never listed."""
    (m,) = set(rep.edges[0].vars()) & set(rep.edges[1].vars())
    adjs = [g.adjacency(e.label, SRC if e.src == m else DST) for e in rep.edges]
    ends = [1 << rep.vars.index(e.dst if e.src == m else e.src) for e in rep.edges]
    mid = 1 << rep.vars.index(m)
    ac, full = ends[0] | ends[1], ends[0] | ends[1] | mid
    mids = adjs[0].keys() & adjs[1].keys()
    lists = [[adj[v] for v in mids] for adj in adjs]
    lens = [list(map(len, side)) for side in lists]
    pairs = Counter(chain.from_iterable(map(product, *lists)))  # (a, c) -> its middles
    values = {(0, mid): len(mids), (mid, full): _top(map(mul, *lens)),
              (0, ac): len(pairs), (ac, full): _top(pairs.values())}
    for i, end in enumerate(ends):
        other = lens[1 - i]
        per_mid = Counter(chain.from_iterable(lists[i]))
        per_row = Counter(chain.from_iterable(map(list.__mul__, lists[i], other)))
        values.update({
            (0, end): len(per_mid), (end, end | mid): _top(per_mid.values()),
            (0, end | mid): sum(lens[i]), (mid, end | mid): _top(lens[i]),
            (end, ac): _top(Counter(map(itemgetter(i), pairs)).values()),
            (end, full): _top(per_row.values()), (end | mid, full): _top(other)})
    return _table_from_masks(3, sum(map(mul, *lens)), values)


def _top(values: Iterable[int]) -> int:
    return max(values, default=0)


def _table_from_masks(n: int, count: int,
                      values: Mapping[tuple[int, int], int]) -> dict[str, int]:
    """A table in `_rows_table`'s key order from `values`, deg(X, Y) keyed
    by the bitmasks of X and Y over the n variables; deg(∅, all) is `count`
    and deg(X, X) is 1 when there is a match."""
    table: dict[str, int] = {}
    full = (1 << n) - 1
    for y, xs, keys in _table_layout(n):
        y_mask = sum(1 << i for i in y)
        for x, key in zip(xs, keys):
            x_mask = sum(1 << i for i in x)
            table[key] = (min(count, 1) if x_mask == y_mask
                          else count if y_mask == full and not x_mask
                          else values[x_mask, y_mask])
    return table


def _rows_table(rep: QueryGraph, rows: Collection[tuple[int, ...]]) -> dict[str, int]:
    """deg(X, Y) for every X subseteq Y over the representative's variables,
    from its distinct match rows."""
    table: dict[str, int] = {}
    for y, xs, keys in _table_layout(len(rep.vars)):
        table.update(zip(keys, oracle.degrees(rows, y, xs)))
    return table


@lru_cache(maxsize=None)
def _table_layout(n: int) -> tuple[tuple[tuple, list[tuple], tuple[str, ...]], ...]:
    """Per Y over n variables, in table order: Y, its subsets X and their entry keys."""
    return tuple((y, xs, tuple(_deg_entry_key(x, y) for x in xs))
                 for y in subsets(range(n)) for xs in [subsets(y)])


def partition_catalogues(g: LabeledGraph, q: QueryGraph, h: int,
                         parts: Sequence[Mapping[str, int]],
                         part_of: Mapping[int, int]) -> list[QueryStats]:
    """q's counts and degree tables on each part of g's matches of q, one
    QueryStats per part, without closing rates.

    Part j keeps the rows whose variables v in parts[j] (every part names the
    same variables) bind vertices x with part_of[x] == parts[j][v] (`part_of`
    may fill itself on a miss, as `sketch.BucketMemo` does).  Each connected
    index set of at most h edges is matched once, with q's own edges, and its
    rows are grouped by those values; each group a part reads gets one degree
    table, so an index set without such a variable has one table for every
    part, and an empty group the all-zero table.
    """
    stats = [QueryStats(q, Catalogue(h=h)) for _ in parts]
    for s in connected_index_sets(q, h):
        sub = QueryGraph([q.edges[i] for i in sorted(s)])
        split = [(p, v) for p, v in enumerate(sub.vars) if v in parts[0]]
        rows = oracle.matches(g, sub)
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): rows}
        if split:
            groups = {}
            row_groups = zip(*[map(part_of.__getitem__, map(itemgetter(p), rows))
                               for p, _ in split])
            for group, row in zip(row_groups, rows):
                groups.setdefault(group, []).append(row)
        tables: dict[tuple[int, ...], tuple[int, DegreeTable]] = {}
        # each table's entries come in `_table_layout` order: key them once by names
        named = {x: tuple(sorted(sub.vars[i] for i in x)) for x in subsets(range(len(sub.vars)))}
        keys = [(named[x], named[y]) for y, xs, _ in _table_layout(len(sub.vars)) for x in xs]
        for st, part in zip(stats, parts):
            group = tuple(part[v] for _, v in split)
            got = tables.get(group)
            if got is None:
                table = dict(zip(keys, _rows_table(sub, groups.get(group, [])).values()))
                got = tables[group] = table[(), tuple(sorted(sub.vars))], table
            st._counts[s], st._tables[s] = got
    return stats


def add_closing_rates(cat: Catalogue, g: LabeledGraph, workload: Sequence[QueryGraph],
                      walk_budget: int | None, seed: int) -> None:
    """Closing rates on g for the workload's cycles longer than cat.h, as
    `build_catalogue` describes them."""
    demanded: dict[str, ClosingSpec] = {}
    for q in workload:
        for cyc in cycles(q).longer_than(cat.h):
            for close_idx in sorted(cyc):
                spec = closing_spec(q, cyc, close_idx)
                demanded.setdefault(spec.key(), spec)
    for i, key in enumerate(sorted(demanded)):
        spec = demanded[key]
        if walk_budget is None:
            walks, closed = _walk_queries(spec)
            cat.closing[key] = ClosingStat(oracle.count_hom(g, walks).value,
                                           oracle.count_hom(g, closed).value)
            continue
        closures = 0
        for walk in oracle.sample_label_paths(g, spec.walk, walk_budget, seed + i):
            a, b = (walk[-1], walk[0]) if spec.close_from_end else (walk[0], walk[-1])
            if g.has_edge(a, b, spec.close_label):
                closures += 1
        cat.closing[key] = ClosingStat(walk_budget, closures)


def _walk_queries(spec: ClosingSpec) -> tuple[QueryGraph, QueryGraph]:
    """The spec's walk as a path query over w0..w{length}, and that path plus
    the closing edge: their match counts are the walks and the closed walks."""
    path = [QEdge(f"w{i}", f"w{i + 1}", lab) if direction == FWD
            else QEdge(f"w{i + 1}", f"w{i}", lab)
            for i, (lab, direction) in enumerate(spec.walk)]
    ends = ("w0", f"w{spec.length}")
    close = QEdge(*(ends[::-1] if spec.close_from_end else ends), spec.close_label)
    return QueryGraph(path), QueryGraph(path + [close])


def _exhaustive_pattern_keys(g: LabeledGraph, h: int, cap: int) -> set[str]:
    """Canonical keys of every connected <=h-edge pattern over the graph's labels."""
    labels = list(g.labels)
    if not labels:
        return set()
    shapes = _connected_shapes(h)
    estimated = sum(len(labels) ** len(shape) for shape in shapes)
    if estimated > cap:
        raise ConfigError(
            f"exhaustive catalogue would hold ~{estimated} patterns (cap {cap}); "
            "use workload mode")
    keys: set[str] = set()
    for shape in shapes:
        keys |= _label_shape(shape, labels, 0, [])
    return keys


def _label_shape(shape, labels, i, acc) -> set[str]:
    if i == len(shape):
        pattern = tuple(sorted((f"x{s}", f"x{d}", lab)
                               for (s, d), lab in zip(shape, acc)))
        return {canonical_form(pattern)[0]}
    out: set[str] = set()
    for lab in labels:
        out |= _label_shape(shape, labels, i + 1, acc + [lab])
    return out


def _connected_shapes(h: int) -> list[tuple[tuple[int, int], ...]]:
    """Unlabeled connected directed shapes with <= h edges, deduped up to iso."""
    shapes: set[tuple[tuple[int, int], ...]] = {((0, 1),)}
    frontier = list(shapes)
    for _ in range(h - 1):
        grown: list[tuple[tuple[int, int], ...]] = []
        for shape in frontier:
            n = max(max(e) for e in shape) + 1
            candidates = set()
            for a in range(n):
                for b in list(range(n)) + [n]:
                    if a == b:
                        continue
                    for e in ((a, b), (b, a)):
                        if e in shape or max(e) > n:
                            continue
                        candidates.add(e)
            for e in candidates:
                new = tuple(sorted(shape + (e,)))
                pattern = tuple(sorted((f"x{s}", f"x{d}", "L") for s, d in new))
                canon = canonical_form(pattern)[0]
                marker = tuple(tuple(x[:2]) for x in json.loads(canon))
                if marker not in shapes:
                    shapes.add(marker)
                    grown.append(marker)
        frontier = grown
    return sorted(shapes, key=lambda s: (len(s), s))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def serialize(cat: Catalogue) -> str:
    payload = {
        "version": FORMAT_VERSION,
        "h": cat.h,
        "meta": cat.meta,
        "counts": cat.counts,
        "degStats": cat.deg_stats,
        "closingRates": {
            key: {"samples": st.samples, "closures": st.closures,
                  "rate": {"num": st.rate.numerator, "den": st.rate.denominator}}
            for key, st in cat.closing.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def save(cat: Catalogue, sink: IO[str] | str) -> None:
    text = serialize(cat)
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sink.write(text)


def load(source: IO[str] | str) -> Catalogue:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = source.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogueFormatError(f"not a catalogue file: {exc}") from None
    if not isinstance(payload, dict):
        raise CatalogueFormatError("not a catalogue file: top level is not an object")
    if payload.get("version") != FORMAT_VERSION:
        raise CatalogueFormatError(
            f"unsupported catalogue version {payload.get('version')!r}")
    try:
        cat = Catalogue(
            h=int(payload["h"]),
            counts={k: int(v) for k, v in payload["counts"].items()},
            deg_stats={k: {kk: int(vv) for kk, vv in v.items()}
                       for k, v in payload["degStats"].items()},
            closing={k: ClosingStat(int(v["samples"]), int(v["closures"]))
                     for k, v in payload["closingRates"].items()},
            meta=payload["meta"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogueFormatError(f"malformed catalogue file: {exc}") from None
    return cat
