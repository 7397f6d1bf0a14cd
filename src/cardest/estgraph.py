"""Estimation graphs: subqueries as vertices, extension rates as edge weights.

Four builds share one graph type.  Over edge subsets: the optimistic graph
(average-degree rates from pattern counts) and its cycle-closing-rate variant,
built one source vertex at a time, each deciding its own out-edges (closing
rates, merging, early cycle closing) from the connected index sets of q.  Over
attribute subsets: the max-degree graph whose minimum-weight path is the
pessimistic bound, and the cover graph induced by a per-relation attribute
cover (a sub-graph of the max-degree graph).  Attribute-subset graphs
(`AttrCeg`) are held as move tables, filled from one whole degree table per
catalogue pattern and expanded per vertex on demand; they are the only
graphs `min_weight_path` searches, zero-degree moves included.

Every rate is a statistic of an index set of q, read through one
`catalogue.QueryStats` per build: each build takes a Catalogue, which it
wraps, or a QueryStats of q, which callers share across builds.

Every bottom-to-top path yields an estimate: the exact rational product of
its rates.  Base-2 log weights are carried alongside for the additive view.
`path_summary` aggregates those estimates per hop count (max, min, sum,
count, and the DFS-first extreme paths) in one pass over the DAG;
`iter_paths` / `enumerate_paths` list them one by one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .catalogue import Catalogue, QueryStats
from .errors import ConfigError, EstimationError, PathOverflowError, QueryValidationError
from .querymodel import QueryGraph, connected_index_sets, cycles, subsets

START = "start"
EXTENSION = "extension"
PROJECTION = "projection"
CYCLE_CLOSING = "cycle-closing"
UNBOUND = "unbound"
BOUND = "bound"

MAX_ATTR_VARS = 12
DEFAULT_PATH_CAP = 10 ** 6


@dataclass(frozen=True)
class CegEdge:
    src: frozenset
    dst: frozenset
    rate: Fraction
    kind: str
    provenance: tuple

    @property
    def log_weight(self) -> float:
        if self.rate == 0:
            return float("-inf")
        return math.log2(self.rate)

    def extension_vars(self, q: QueryGraph, ceg_kind: str) -> frozenset[str]:
        if ceg_kind == "attrs":
            return frozenset(self.dst - self.src)
        return q.vars_of(self.dst) - q.vars_of(self.src)


@dataclass(frozen=True)
class PathEstimate:
    edges: tuple[CegEdge, ...]
    estimate: Fraction

    @property
    def hops(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple[frozenset, ...]:
        if not self.edges:
            return (frozenset(),)
        return (self.edges[0].src,) + tuple(e.dst for e in self.edges)

    def log_weight(self) -> float:
        return sum(e.log_weight for e in self.edges)


def _vkey(vertex: frozenset) -> tuple:
    return tuple(sorted(vertex))


class Ceg:
    """Weighted DAG-ish graph over subquery vertices, frozen after build."""

    def __init__(self, kind: str, query: QueryGraph, top: frozenset,
                 adjacency: dict[frozenset, list[CegEdge]]):
        self.kind = kind
        self.query = query
        self.top = top
        self.bottom: frozenset = frozenset()
        keys: dict[frozenset, tuple] = {}

        def order(e: CegEdge) -> tuple:  # by destination, then rate, unbound first on ties
            key = keys.get(e.dst)
            if key is None:
                key = keys[e.dst] = _vkey(e.dst)
            return (key, e.rate, e.kind != UNBOUND, e.kind, e.provenance)

        self._adj = {v: tuple(sorted(edges, key=order)) for v, edges in adjacency.items()}

    def out(self, vertex: frozenset) -> tuple[CegEdge, ...]:
        return self._adj.get(vertex, ())

    def all_edges(self) -> Iterator[CegEdge]:
        for v in sorted(self._adj, key=_vkey):
            yield from self._adj[v]

    def vertices(self) -> list[frozenset]:
        seen = set(self._adj)
        for edges in self._adj.values():
            seen.update(e.dst for e in edges)
        return sorted(seen | {self.bottom, self.top}, key=_vkey)

    def has_projection_edges(self) -> bool:
        return any(e.kind == PROJECTION for e in self.all_edges())


# ---------------------------------------------------------------------------
# Optimistic builds (edge-subset vertices)
# ---------------------------------------------------------------------------

def build_optimistic(q: QueryGraph, cat: Catalogue | QueryStats, closing: bool = False,
                     starts: str = "anchored") -> Ceg:
    """Estimation graph over connected subqueries with average-degree rates.

    Start edges leave the empty vertex with the known count of a size
    min(h, |Q|) subquery; by default only the lexicographically smallest such
    subquery anchors the graph (starts="all" admits every one).  An extension
    from S to S' conditions a size-min(h,|S'|) pattern E on its overlap with S
    and carries rate count(E)/count(E&S).

    The graph is built one source vertex at a time: the empty vertex, then
    every connected index set of at least min(h, |Q|) edges but the top.  The
    hops of a source are grouped by target.  With closing=True, a hop that
    completes a cycle longer than h takes that cycle's sampled closing rate
    instead of its count ratios, or no edge when it adds more than the
    closing edge (the single-edge route still exists).  Parallel edges that
    agree on rate and kind merge, their provenances sorted.  When some
    targets close a cycle the source lacks, only those are kept (early cycle
    closing).  A source without edges is not stored.
    """
    stats = QueryStats.of(q, cat)
    m, h = len(q), stats.cat.h
    start_size = min(h, m)
    lattice = connected_index_sets(q, m)
    patterns = [s for s in lattice if len(s) <= h]
    known = set(patterns)
    firsts = [s for s in patterns if len(s) == start_size]
    if starts == "anchored":
        firsts = firsts[:1]
    elif starts != "all":
        raise ValueError(f"starts must be 'anchored' or 'all', got {starts!r}")

    count = stats.count
    ratios: dict[tuple[frozenset, frozenset], tuple[Fraction, tuple]] = {}

    def ratio(ext: frozenset, inter: frozenset) -> tuple[Fraction, tuple]:
        got = ratios.get((ext, inter))
        if got is None:
            c_ext, c_int = count(ext), count(inter)
            got = ratios[ext, inter] = (Fraction(c_ext, c_int) if c_int else Fraction(0),
                                        ("ratio", _vkey(ext), _vkey(inter)))
        return got

    all_cycles = cycles(q).cycles
    long_cycles = [c for c in all_cycles if len(c) > h] if closing else []
    top = frozenset(range(m))
    adjacency: dict[frozenset, list[CegEdge]] = {}
    for src in [frozenset()] + [s for s in lattice if len(s) >= start_size and s != top]:
        hops: dict[frozenset, list[tuple[Fraction, tuple]]] = {}
        if src:
            kind = EXTENSION
            for ext in patterns:
                inter = ext & src
                if not inter or inter == ext or inter not in known:
                    continue
                target = src | ext
                if len(ext) == min(h, len(target)):
                    hops.setdefault(target, []).append(ratio(ext, inter))
        else:
            kind = START
            hops = {s: [(Fraction(count(s)), ("count", _vkey(s)))] for s in firsts}

        edges: dict[frozenset, list[CegEdge]] = {}
        for target, rated in hops.items():
            hop_kind = kind
            added = target - src
            closable = [c for c in long_cycles if c <= target and len(c & src) == len(c) - 1]
            if closable:  # closing rates replace the ratios; a hop adding more gets no edge
                hop_kind, rated = CYCLE_CLOSING, []
                for c in closable:
                    if c - src == added:
                        rate, key = stats.closing_rate(c, *added)
                        rated.append((rate, ("closing", key, tuple(sorted(c)))))
            merged: list[tuple[Fraction, list]] = []
            for rate, prov in rated:  # a list scan: no Fraction is hashed
                for seen, provs in merged:
                    if seen == rate:
                        provs.append(prov)
                        break
                else:
                    merged.append((rate, [prov]))
            if merged:
                edges[target] = [CegEdge(src, target, rate, hop_kind, tuple(sorted(provs)))
                                 for rate, provs in merged]
        if edges:
            fresh = [c for c in all_cycles if not c <= src]
            closers = [t for t in edges if any(c <= t for c in fresh)]
            adjacency[src] = [e for t in (closers or edges) for e in edges[t]]
    return Ceg("edges", q, top, adjacency)


# ---------------------------------------------------------------------------
# Max-degree and cover builds (attribute-subset vertices)
# ---------------------------------------------------------------------------

Move = tuple[frozenset, frozenset, int, tuple]   # (X, Y, deg, provenance)


class AttrCeg(Ceg):
    """Attribute-subset graph held as its move table.

    A move (X, Y, deg, provenance) is an edge W -> W|Y of rate deg from every
    vertex W containing X: unbound when X is empty, bound otherwise.  Vertices
    are bitmasks over the sorted variables inside; `moves` holds the table
    with X and Y as masks, `out` derives and caches a vertex's merged CegEdges
    on first use, and `min_weight_path` searches the moves directly.  Listing
    every vertex is capped at MAX_ATTR_VARS variables.
    """

    def __init__(self, query: QueryGraph, moves: Iterable[Move], projections: bool = False):
        super().__init__("attrs", query, frozenset(query.vars), {})
        self._names = tuple(sorted(query.vars))
        self._bit = {v: 1 << i for i, v in enumerate(self._names)}
        self._keys: dict[int, tuple[str, ...]] = {}
        self.moves = [(self._mask(x), self._mask(y), deg, prov) for x, y, deg, prov in moves]
        self._projections = projections

    def _mask(self, vertex: Iterable[str]) -> int:
        return sum(self._bit[v] for v in vertex)

    def _key(self, mask: int) -> tuple[str, ...]:
        got = self._keys.get(mask)
        if got is None:
            got = self._keys[mask] = tuple(v for v in self._names if mask & self._bit[v])
        return got

    def out(self, vertex: frozenset) -> tuple[CegEdge, ...]:
        got = self._adj.get(vertex)
        if got is None:
            got = self._adj[vertex] = self._edges(vertex)
        return got

    def _edges(self, vertex: frozenset, dst: frozenset | None = None) -> tuple[CegEdge, ...]:
        """Merged edges leaving `vertex` (only those into `dst`, if given) in Ceg order."""
        w, only = self._mask(vertex), None if dst is None else self._mask(dst)
        merged: dict[tuple[int, int, str], set] = {}
        for xm, ym, deg, prov in self.moves:
            if xm & w == xm and ym & ~w:
                merged.setdefault((w | ym, deg, BOUND if xm else UNBOUND), set()).add(prov)
        if self._projections:
            for v in vertex:
                merged[(w & ~self._bit[v], 1, PROJECTION)] = {("proj", v)}
        rows = sorted((self._key(dm), rate, kind != UNBOUND, kind, tuple(sorted(provs)))
                      for (dm, rate, kind), provs in merged.items()
                      if dst is None or dm == only)  # Ceg's out-edge order
        return tuple(CegEdge(vertex, frozenset(key), Fraction(rate), kind, provs)
                     for key, rate, _, kind, provs in rows)

    def vertices(self) -> list[frozenset]:
        if len(self._names) > MAX_ATTR_VARS:
            raise ConfigError(f"attribute-subset graphs are capped at {MAX_ATTR_VARS} variables")
        return [frozenset(s) for s in sorted(subsets(self._names))]

    def all_edges(self) -> Iterator[CegEdge]:
        for v in self.vertices():
            yield from self.out(v)


def maxdeg_moves(q: QueryGraph, cat: Catalogue | QueryStats) -> list[Move]:
    """(X, Y, deg, provenance) extension moves from every catalogue pattern of q,
    one degree-table lookup per pattern."""
    stats = QueryStats.of(q, cat)
    moves: list[Move] = []
    for s in connected_index_sets(q, stats.cat.h):
        indices = tuple(sorted(s))
        moves += [(frozenset(x), frozenset(y), deg, ("deg", indices, x, y))
                  for (x, y), deg in stats.degrees(s).items() if x != y]
    return moves


def build_maxdeg(q: QueryGraph, cat: Catalogue | QueryStats,
                 with_projection_edges: bool = False) -> AttrCeg:
    """Pessimistic graph: one vertex per attribute subset, max-degree rates.

    For every catalogue pattern P of q, every X subset Y over P's variables,
    and every vertex W1 containing X there is an edge W1 -> W1|Y with rate
    deg(X, Y, P).  Projection edges (weight 0, downward one attribute) are
    included only on request; they never change minimum path weights.
    """
    return AttrCeg(q, maxdeg_moves(q, cat), with_projection_edges)


def build_cover(q: QueryGraph, cat: Catalogue | QueryStats,
                cover: Sequence[tuple[int, Iterable[str]]]) -> AttrCeg:
    """Cover graph: extension edges restricted to a per-relation attribute cover.

    cover lists (query-edge index, covered variable subset) pairs whose
    subsets must union to all query variables.  Edges W1 -> W1|(Aj-Aj') with
    rate deg(Aj', Aj, R_j) exist for every Aj' subset of Aj contained in W1.
    No projection edges.  The result is a sub-graph of the max-degree graph.
    """
    covered: set[str] = set()
    normalized: list[tuple[int, tuple[str, ...]]] = []
    for edge_idx, attr_set in cover:
        attrs = tuple(sorted(set(attr_set)))
        if not set(attrs) <= set(q.edge_vars(edge_idx)):
            raise QueryValidationError(
                f"cover entry {list(attrs)} not within edge {edge_idx} vars")
        covered.update(attrs)
        normalized.append((edge_idx, attrs))
    if covered != set(q.vars):
        raise QueryValidationError("cover does not span all query variables")

    stats = QueryStats.of(q, cat)
    moves: list[Move] = []
    for edge_idx, attrs in normalized:
        table = stats.degrees(frozenset({edge_idx}))
        moves += [(frozenset(ajp), frozenset(attrs), table[ajp, attrs],
                   ("cover", edge_idx, attrs, ajp)) for ajp in subsets(attrs) if ajp != attrs]
    return AttrCeg(q, moves)


# ---------------------------------------------------------------------------
# Path enumeration and minimum-weight search
# ---------------------------------------------------------------------------

def count_paths(ceg: Ceg) -> int:
    memo: dict[frozenset, int] = {}

    def rec(v: frozenset) -> int:
        if v == ceg.top:
            return 1
        got = memo.get(v)
        if got is None:
            got = sum(rec(e.dst) for e in ceg.out(v))
            memo[v] = got
        return got

    return rec(ceg.bottom)


def iter_paths(ceg: Ceg) -> Iterator[PathEstimate]:
    """All simple bottom-to-top paths in deterministic order (DFS)."""
    if ceg.has_projection_edges():
        raise ValueError("path enumeration needs an extension-only graph")

    def walk(v: frozenset, edges: tuple[CegEdge, ...], prod: Fraction) -> Iterator[PathEstimate]:
        if v == ceg.top:
            yield PathEstimate(edges, prod)
            return
        for e in ceg.out(v):
            yield from walk(e.dst, edges + (e,), prod * e.rate)

    yield from walk(ceg.bottom, (), Fraction(1))


def enumerate_paths(ceg: Ceg, cap: int = DEFAULT_PATH_CAP) -> list[PathEstimate]:
    total = count_paths(ceg)
    if total > cap:
        raise PathOverflowError(total, cap)
    return list(iter_paths(ceg))


_MAX, _MIN, _SUM, _COUNT, _ARGMAX, _ARGMIN, _FIRST = range(7)   # HopRow slots

HopRow = list   # [max, min, sum, count, argmax, argmin, first] of one (vertex, hops)


class PathSummary:
    """Aggregates over every bottom-to-top path of a Ceg, from one memoized pass.

    For each vertex v and hop count k, `rows[v][k]` holds the exact max, min
    and sum of the rate products of the k-hop suffixes v -> top, their count,
    and the index in `ceg.out(v)` of the first out-edge reaching the max, the
    first reaching the min, and the first with any k-hop suffix at all.  These
    are the algebraic path sums of the DAG (Mohri, "Semiring frameworks and
    algorithms for shortest-distance problems", 2002) in several semirings at
    once; `iter_paths` lists the same paths one by one.
    """

    def __init__(self, ceg: Ceg, rows: dict[frozenset, dict[int, HopRow]]):
        self.ceg = ceg
        self.rows = rows
        self._bottom = rows[ceg.bottom]
        self.hop_counts: tuple[int, ...] = tuple(sorted(self._bottom))  # ascending

    def count(self, hops: int | None = None) -> int:
        """Number of paths with `hops` hops (every path when None)."""
        if hops is not None:
            return self._bottom[hops][_COUNT]
        return sum(row[_COUNT] for row in self._bottom.values())

    def total(self, hops: int | None = None) -> Fraction:
        """Sum of the path estimates with `hops` hops (every path when None)."""
        if hops is not None:
            return self._bottom[hops][_SUM]
        return sum((row[_SUM] for row in self._bottom.values()), Fraction(0))

    def extreme(self, largest: bool, hops: int | None = None) -> PathEstimate:
        """The first path in `iter_paths` order whose estimate is the max (or min)
        among the paths with `hops` hops (among every path when None)."""
        slot = _MAX if largest else _MIN
        if hops is not None:
            return self._walk(hops, slot)[1]
        values = [(row[slot], k) for k, row in self._bottom.items()]
        target = max(values)[0] if largest else min(values)[0]
        walks = [self._walk(k, slot) for value, k in values if value == target]
        return min(walks, key=lambda walk: walk[0])[1]

    def _walk(self, hops: int, slot: int) -> tuple[tuple[int, ...], PathEstimate]:
        """(out-edge indices, path) of the DFS-first `hops`-hop path whose
        estimate is the row's value in `slot` (_MAX or _MIN).

        It follows the argmax (argmin) pointers down from bottom.  After a
        zero-rate edge every suffix multiplies to 0, so it follows the
        first-suffix pointers instead.  Index tuples compare in `iter_paths`
        order.
        """
        ceg, rows = self.ceg, self.rows
        v = ceg.bottom
        value = self._bottom[hops][slot]
        pointer = _ARGMAX if slot == _MAX else _ARGMIN
        picks: list[int] = []
        edges: list[CegEdge] = []
        while hops:
            i = rows[v][hops][pointer]
            e = ceg.out(v)[i]
            picks.append(i)
            edges.append(e)
            if not e.rate:
                pointer = _FIRST
            v = e.dst
            hops -= 1
        return tuple(picks), PathEstimate(tuple(edges), value)


def path_summary(ceg: Ceg) -> PathSummary:
    """Max, min, sum and count of the bottom-to-top path estimates per hop count,
    with pointers to the DFS-first extreme paths, in one pass over the DAG.

    Agrees exactly with aggregating `iter_paths(ceg)`, without listing the
    paths: the work is one step per (edge, hop count) pair, not per path.
    """
    if ceg.has_projection_edges():
        raise ValueError("path summaries need an extension-only graph")
    one = Fraction(1)
    rows: dict[frozenset, dict[int, HopRow]] = {ceg.top: {0: [one, one, one, 1, -1, -1, -1]}}

    def visit(v: frozenset) -> dict[int, HopRow]:
        got = rows.get(v)
        if got is not None:
            return got
        got = {}
        for i, e in enumerate(ceg.out(v)):
            rate = e.rate
            for k, (mx, mn, total, n, _, _, _) in visit(e.dst).items():
                # a row built from a single suffix holds one object in its max,
                # min and sum slots, so that product is computed once
                hi = rate * mx
                lo = hi if mn is mx else rate * mn
                part = hi if total is mx else rate * total
                row = got.get(k + 1)
                if row is None:
                    got[k + 1] = [hi, lo, part, n, i, i, i]
                    continue
                if hi > row[_MAX]:
                    row[_MAX], row[_ARGMAX] = hi, i
                if lo < row[_MIN]:
                    row[_MIN], row[_ARGMIN] = lo, i
                row[_SUM] += part
                row[_COUNT] += n
        rows[v] = got
        return got

    visit(ceg.bottom)
    return PathSummary(ceg, rows)


def min_weight_path(ceg: AttrCeg) -> PathEstimate:
    """Minimum-weight bottom-to-top path of a max-degree or cover graph
    (Dijkstra on degree products, straight off its move table).

    Zero-degree moves stay in the search.  deg(X, Y) is 0 only for an empty
    pattern, whose unbound move out of bottom is then 0 too, so the first
    vertex popped after bottom has weight 0 and every path through it ends at
    weight 0: the result is a weight-0 path, found without listing the graph.
    Ties break toward the lexicographically smallest vertex sequence, then
    toward the first-listed edge, so an unbound edge beats a bound one of the
    same rate.  Degrees are integers, and so are the weights.  Any other graph
    raises ValueError.
    """
    if not isinstance(ceg, AttrCeg):
        raise ValueError("min_weight_path searches max-degree and cover graphs only")
    cheapest: dict[tuple[int, int], int] = {}
    for xm, ym, deg, _ in ceg.moves:
        cheapest[xm, ym] = min(deg, cheapest.get((xm, ym), deg))
    moves = [(xm, ym, deg) for (xm, ym), deg in cheapest.items()]
    bits = list(ceg._bit.values()) if ceg._projections else []
    key_of, goal = ceg._key, (1 << len(ceg._bit)) - 1

    def step(w: int) -> list[tuple[int, int]]:
        return [(w | ym, deg) for xm, ym, deg in moves if xm & w == xm and ym & ~w] + [
                (w & ~b, 1) for b in bits if w & b]

    counter = 0  # breaks exact heap ties before unorderable vertices
    heap: list[tuple] = [(1, (key_of(0),), counter, 0)]
    settled: set[int] = set()
    best: dict[int, int] = {}  # lowest weight pushed per vertex; a heavier push would pop too late
    while heap:
        weight, keys, _, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        settled.add(vertex)
        if vertex == goal:
            path = [frozenset(k) for k in keys]
            return PathEstimate(tuple(ceg._edges(v, w)[0] for v, w in zip(path, path[1:])),
                                Fraction(weight))
        for dst, rate in step(vertex):
            if dst in settled:
                continue
            total = weight * rate
            if best.get(dst, total) < total:
                continue
            best[dst] = total
            counter += 1
            heapq.heappush(heap, (total, keys + (key_of(dst),), counter, dst))
    raise EstimationError("top vertex unreachable; statistics missing")


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def to_dot(ceg: Ceg) -> str:
    """DOT rendering with rates and provenance on the edges."""

    def name(v: frozenset) -> str:
        if not v:
            return "{}"
        if ceg.kind == "edges":
            return "{" + ",".join(f"e{i}:{ceg.query.edges[i].label}" for i in sorted(v)) + "}"
        return "{" + ",".join(sorted(v)) + "}"

    lines = ["digraph ceg {", "  rankdir=BT;"]
    for v in ceg.vertices():
        lines.append(f'  "{name(v)}";')
    for e in ceg.all_edges():
        rate = f"{float(e.rate):g}"
        prov = ";".join(str(p) for p in e.provenance)
        lines.append(f'  "{name(e.src)}" -> "{name(e.dst)}" '
                     f'[label="{rate} [{e.kind}] {prov}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
