"""Estimation graphs: subqueries as vertices, extension rates as edge weights.

Four builds share one graph type, whose out-edges are derived per vertex on
its first read and cached, so an estimate does only the work its paths
reach; each build's derive lists them in `out` order, and nothing re-sorts
them.  Over edge subsets: the optimistic graph (average-degree rates from
pattern counts) and its cycle-closing-rate variant, whose shape (each
source's hops: closing rates, merging, early cycle closing) is planned once
per query and h, so each build reads only its rates.  Over attribute subsets:
the max-degree graph whose minimum-weight path is the pessimistic bound, and
the cover graph of a per-relation attribute cover.  Attribute-subset graphs
(`AttrCeg`) are held as move tables, one whole degree table per catalogue
pattern, which `min_weight_path` searches directly; a table's (X, Y) masks
(`QueryStats`) are already the graph's vertex bits (`QueryGraph.var_bits`).

Both kinds code a vertex one way: as a bitmask over the graph's sorted names
(query-edge indices or variable names).  The builds, `path_summary` and
`min_weight_path` run on those ints, each rate an exact (numerator,
denominator) pair in lowest terms.  Frozensets, `Fraction` rates and
`CegEdge`s are made only at the API boundary: `out`, `all_edges`,
`vertices`, `to_dot`, `PathSummary.rows` and the chosen paths.

Every rate is a statistic of an index set of q, read through one
`catalogue.QueryStats` per build, which callers may share across builds.
Both families build on q's statistics plan at h (`catalogue.StatsPlan`),
which lists the index sets, their pattern keys and the closing keys.
Every bottom-to-top path yields an estimate: the exact rational product of
its rates, with base-2 log weights alongside for the additive view.
`path_summary` aggregates them per hop count in one pass over the DAG, and
`PathSummary.closest` (the path oracle's) keeps each vertex's distinct ones in
another; `iter_paths` / `enumerate_paths` list them one by one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .catalogue import Catalogue, Memo, QueryStats, StatsPlan
from .errors import ConfigError, EstimationError, PathOverflowError, QueryValidationError
from .querymodel import QueryGraph, connected_index_sets, cycles, indices_connected, subsets

START = "start"
EXTENSION = "extension"
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


Arc = tuple[int, int, int, str, tuple]   # (dst mask, numerator, denominator, kind, provenance)


def _mask_of(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


class Ceg:
    """Weighted DAG over subquery vertices, its out-edges derived on demand.

    Vertices are bitmasks over the sorted `names`, `top` among them.
    `derive(v)` lists the arcs (dst, numerator, denominator, kind, provenance)
    leaving the mask v in `out` order: by destination key, then exact rate,
    unbound first on ties.  They are cached as listed on v's first read, never
    re-sorted, and `out(v)` hands them out as CegEdges.
    `sources` lists, as masks, every vertex `derive` may give out-edges; it is
    read once, by the first listing (`all_edges`, `vertices`), so it may be a
    lazy iterator, and a listing derives every source first.  `_keys`,
    `_sets` and `_masks` turn a mask into its key (sorted names) or frozenset
    and back, each made once.
    """

    bottom: frozenset = frozenset()

    def __init__(self, kind: str, query: QueryGraph | None, names: Iterable, top: int,
                 derive: Callable[[int], Iterable[Arc]] | None = None,
                 sources: Iterable[int] = ()):
        self.kind = kind
        self.query = query
        self._derive = derive
        self._source_iter = sources
        self._arcs: dict[int, tuple[Arc, ...]] = {}
        self._edges: dict[tuple[int, int], CegEdge] = {}   # (src mask, arc index) -> edge
        self._bit = bit = {v: 1 << i for i, v in enumerate(names)}
        self._keys = keys = Memo(lambda mask: tuple(v for v, b in bit.items() if mask & b))
        self._sets = Memo(lambda mask: frozenset(keys[mask]))
        self._masks = Memo(lambda vertex: sum(bit[v] for v in vertex))   # KeyError off the graph
        self._top = top
        self.top = self._sets[top]

    @cached_property
    def _sources(self) -> list[int]:
        return list(self._source_iter)

    def _arcs_of(self, mask: int) -> tuple[Arc, ...]:
        """The arcs leaving `mask` in `out` order, derived on its first read."""
        got = self._arcs.get(mask)
        if got is None:
            got = self._arcs[mask] = tuple(self._derived(mask))
        return got

    def _derived(self, mask: int) -> Iterable[Arc]:
        return self._derive(mask) if self._derive else ()

    def _edge(self, src: int, arc: Arc) -> CegEdge:
        dst, num, den, kind, provenance = arc
        return CegEdge(self._sets[src], self._sets[dst], Fraction(num, den), kind, provenance)

    def _edge_at(self, src: int, i: int) -> CegEdge:
        got = self._edges.get((src, i))
        if got is None:
            got = self._edges[src, i] = self._edge(src, self._arcs_of(src)[i])
        return got

    def out(self, vertex: frozenset) -> tuple[CegEdge, ...]:
        try:
            mask = self._masks[vertex]
        except KeyError:  # a name outside the graph: not one of its vertices
            return ()
        return tuple(self._edge_at(mask, i) for i in range(len(self._arcs_of(mask))))

    def all_edges(self) -> Iterator[CegEdge]:
        for v in sorted(self._sources, key=self._keys.__getitem__):
            yield from self.out(self._sets[v])

    def vertices(self) -> list[frozenset]:
        seen = {self.bottom, self.top}
        seen.update(v for e in self.all_edges() for v in (e.src, e.dst))
        return sorted(seen, key=lambda v: self._keys[self._masks[v]])


# ---------------------------------------------------------------------------
# Optimistic builds (edge-subset vertices)
# ---------------------------------------------------------------------------

class _Plan:
    """The shape of q's optimistic graph at one (h, closing, starts), from q
    and its statistics plan `stats` alone: each source's hops, planned on
    its first read (`hops_of`) in `out` order by target, each rate (a, b,
    provenance) read by a build as count(a)/count(b) (b empty for a start),
    or as the closing rate of the (cycle, closing edge) `closings` gives."""

    def __init__(self, q: QueryGraph, stats: StatsPlan, closing: bool, starts: str):
        h = stats.h
        self.start_size = size = min(h, len(q))
        self.patterns = {_mask_of(s): (s, planned.indices) for s, planned in stats.sets.items()}
        firsts = [p for p, (_, s) in self.patterns.items() if len(s) == size]
        self.firsts = firsts[:1] if starts == "anchored" else firsts
        all_cycles = {_mask_of(c): c for c in cycles(q).cycles}
        self.cycles = list(all_cycles)
        self.long_cycles = [c for c, s in all_cycles.items() if len(s) > h] if closing else []
        self.closings = {(_mask_of(c), 1 << i): (c, i, ("closing", key, tuple(sorted(c))))
                         for (c, i), (key, _) in stats.closing.items()} if closing else {}
        self.hops: dict[int, tuple] = {}
        self.reached: set[int] = set()   # known connected: no search for them
        self.ratios: dict[tuple[int, int], tuple] = {}   # one rate per (ext, inter), shared

    def hops_of(self, q: QueryGraph, src: int) -> tuple:
        """src's hops, grouped by target: none unless src is a source."""
        got = self.hops.get(src)
        if got is not None:
            return got
        m, size, patterns, long_cycles = len(q), self.start_size, self.patterns, self.long_cycles
        if src and (src == (1 << m) - 1 or src.bit_count() < size or src not in self.reached
                    and not indices_connected(q, [i for i in range(m) if src >> i & 1])):
            return ()
        hops: dict[int, list[tuple]] = {}
        if src:
            kind = EXTENSION
            for ext, (_, indices) in patterns.items():
                inter = ext & src
                if not inter or inter == ext or inter not in patterns:
                    continue
                target = src | ext
                if len(indices) == min(size, target.bit_count()):   # size = min(h, |Q|)
                    rate = self.ratios.get((ext, inter)) or self.ratios.setdefault(
                        (ext, inter), (ext, inter, ("ratio", indices, patterns[inter][1])))
                    hops.setdefault(target, []).append(rate)
        else:
            kind = START
            hops = {p: [(p, 0, ("count", patterns[p][1]))] for p in self.firsts}
        planned = []
        for target, rates in hops.items():
            hop_kind = kind
            added = target & ~src
            if added & added - 1 and any(c & target == c and (c & added).bit_count() > 1
                                         for c in long_cycles):
                continue  # it completes a long cycle by adding two or more of its edges
            closable = [c for c in long_cycles
                        if c & target == c and (c & ~src).bit_count() == 1]
            if closable:  # closing rates replace the ratios; a hop adding more gets no edge
                hop_kind = CYCLE_CLOSING
                rates = sorted([(c, added, self.closings[c, added][2])
                                for c in closable if c & ~src == added], key=lambda r: r[2])
            if rates:  # ratios are in provenance order already: patterns are sorted
                planned.append((target, hop_kind, tuple(rates)))
        self.reached.update(hops)   # every hop target is connected
        fresh = [c for c in self.cycles if c & src != c]
        planned = [hop for hop in planned if any(c & hop[0] == c for c in fresh)] or planned
        if len(planned) > 1:
            planned.sort(key=lambda hop: [i for i in range(m) if hop[0] >> i & 1])
        return self.hops.setdefault(src, tuple(planned))


def build_optimistic(q: QueryGraph, cat: Catalogue | QueryStats, closing: bool = False,
                     starts: str = "anchored") -> Ceg:
    """Estimation graph over connected subqueries with average-degree rates.

    Start edges leave the empty vertex with the known count of a size
    min(h, |Q|) subquery; by default only the lexicographically smallest such
    subquery anchors the graph (starts="all" admits every one).  An extension
    from S to S' conditions a size-min(h,|S'|) pattern E on its overlap with S
    and carries rate count(E)/count(E&S).

    The sources are the empty vertex and every connected index set of at
    least min(h, |Q|) edges but the top.  Each decides its own out-edges, on
    its first read, so an estimate derives only the sources its paths reach;
    the full lattice of sources is listed only for `all_edges` or `vertices`.
    The hops of a source are grouped by target.  With closing=True, a hop that
    completes a cycle longer than h takes that cycle's sampled closing rate
    instead of its count ratios, or no edge when it adds more than the
    closing edge (the single-edge route still exists).  Parallel edges that
    agree on rate and kind merge, their provenances sorted.  When some
    targets close a cycle the source lacks, only those are kept (early cycle
    closing).

    That shape is planned once per (h, closing, starts) from q's statistics
    plan and kept on q (`_Plan`): a build reads only rates, through
    `QueryStats`, every count of at most h edges and closing rate, so a
    missing one raises MissingStatisticError from it, not a later `out`.
    """
    if starts not in ("anchored", "all"):
        raise ValueError(f"starts must be 'anchored' or 'all', got {starts!r}")
    stats = QueryStats.of(q, cat)
    h, m = stats.cat.h, len(q)
    plan = q.ceg_plans.get((h, closing, starts)) or q.ceg_plans.setdefault(
        (h, closing, starts), _Plan(q, stats.plan, closing, starts))
    count = stats.count
    counts = {p: count(s) for p, (s, _) in plan.patterns.items()}
    counts[0] = 1   # the empty pattern's one match
    closing_rates = {pair: stats.closing_rate(c, i).as_integer_ratio()
                     for pair, (c, i, _) in plan.closings.items()}

    def sources() -> Iterator[int]:
        yield 0
        yield from (_mask_of(s) for s in connected_index_sets(q, m)
                    if plan.start_size <= len(s) < m)

    def derive(src: int) -> list[Arc]:
        arcs: list[Arc] = []
        for target, kind, rates in plan.hops_of(q, src):
            merged: dict[tuple[int, int], list] = {}
            for a, b, prov in rates:  # exact pairs in lowest terms: equal rates, equal keys
                rate = closing_rates[a, b] if kind == CYCLE_CLOSING else (
                    _reduced((counts[a], counts[b])) if counts[b] else (0, 1))
                merged.setdefault(rate, []).append(prov)
            rows = [(target, num, den, kind, tuple(provs)) for (num, den), provs in merged.items()]
            if len(rows) > 1:  # by exact rate: denominators are positive
                rows.sort(key=cmp_to_key(lambda x, y: x[1] * y[2] - y[1] * x[2]))
            arcs += rows
        return arcs

    return Ceg("edges", q, range(m), (1 << m) - 1, derive, sources())


# ---------------------------------------------------------------------------
# Max-degree and cover builds (attribute-subset vertices)
# ---------------------------------------------------------------------------

Move = tuple[int, int, int, tuple]   # (X mask, Y mask, deg, provenance)


class AttrCeg(Ceg):
    """Attribute-subset graph held as its move table.

    A move (X, Y, deg, provenance), X a proper subset of Y, is an edge W -> W|Y
    of rate deg from every vertex W containing X: unbound when X is empty,
    bound otherwise.  X and Y are masks over the graph's vertex bits,
    query.var_bits.  Listing every vertex is capped at MAX_ATTR_VARS variables.
    A vertex's arcs merge on (target, degree, kind), so sorting them by
    (target key, degree, unbound first) orders them fully, with no float pass.
    """

    def __init__(self, query: QueryGraph, moves: Iterable[Move] = ()):
        super().__init__("attrs", query, query.var_bits, (1 << len(query.vars)) - 1)
        self.moves = list(moves)

    @cached_property
    def _sources(self) -> list[int]:
        if len(self._bit) > MAX_ATTR_VARS:
            raise ConfigError(f"attribute-subset graphs are capped at {MAX_ATTR_VARS} variables")
        return list(range(self._top + 1))

    def _derived(self, w: int) -> tuple[Arc, ...]:
        """Merged arcs leaving w in `out` order."""
        merged: dict[tuple[int, int, str], set] = {}
        for xm, ym, deg, prov in self.moves:
            if xm & w == xm and ym & ~w:
                merged.setdefault((w | ym, deg, BOUND if xm else UNBOUND), set()).add(prov)
        return self._merged_arcs(merged)

    def _merged_arcs(self, merged: dict[tuple[int, int, str], set]) -> tuple[Arc, ...]:
        """Arcs from their (target, degree, kind) merge keys and provenance
        sets, in `out` order."""
        key = self._keys.__getitem__
        return tuple(sorted(((dst, deg, 1, kind, tuple(sorted(provs)))
                             for (dst, deg, kind), provs in merged.items()),
                            key=lambda a: (key(a[0]), a[1], a[3] != UNBOUND)))

    def vertices(self) -> list[frozenset]:
        return [self._sets[v] for v in sorted(self._sources, key=self._keys.__getitem__)]


def build_maxdeg(q: QueryGraph, cat: Catalogue | QueryStats) -> AttrCeg:
    """Pessimistic graph: one vertex per attribute subset, max-degree rates.

    For every catalogue pattern P of q, every X subset Y over P's variables,
    and every vertex W1 containing X there is an edge W1 -> W1|Y with rate
    deg(X, Y, P): one move per entry of P's degree table, with the
    provenance ("deg", P's edge indices, X names, Y names).

    The index sets and each mask's names come from q's statistics plan
    (`catalogue.StatsPlan`), kept on q; a build reads only degree tables
    (`QueryStats.degrees`), each checked for exactly its 3^|vars| keys.
    """
    stats = QueryStats.of(q, cat)
    names = stats.plan.names
    ceg = AttrCeg(q)
    moves = ceg.moves
    for s, planned in stats.plan.sets.items():
        indices = planned.indices
        moves += [(x, y, deg, ("deg", indices, names[x], names[y]))
                  for (x, y), deg in stats.degrees(s).items() if x != y]
    return ceg


def build_cover(q: QueryGraph, cat: Catalogue | QueryStats,
                cover: Sequence[tuple[int, Iterable[str]]]) -> AttrCeg:
    """Cover graph: extension edges restricted to a per-relation attribute cover.

    cover lists (query-edge index, covered variable subset) pairs whose
    subsets must union to all query variables.  Edges W1 -> W1|(Aj-Aj') with
    rate deg(Aj', Aj, R_j) exist for every Aj' subset of Aj contained in W1.
    The result is a sub-graph of the max-degree graph.
    """
    stats = QueryStats.of(q, cat)
    ceg = AttrCeg(q)
    mask = ceg._masks
    covered = 0
    for edge_idx, attr_set in cover:
        attrs = tuple(sorted(set(attr_set)))
        if not set(attrs) <= set(q.edge_vars(edge_idx)):
            raise QueryValidationError(
                f"cover entry {list(attrs)} not within edge {edge_idx} vars")
        table, ym = stats.degrees(frozenset({edge_idx})), mask[attrs]
        covered |= ym
        ceg.moves += [(mask[x], ym, table[mask[x], ym], ("cover", edge_idx, attrs, x))
                      for x in subsets(attrs) if x != attrs]
    if covered != ceg._top:
        raise QueryValidationError("cover does not span all query variables")
    return ceg


# ---------------------------------------------------------------------------
# Path enumeration and minimum-weight search
# ---------------------------------------------------------------------------

def iter_paths(ceg: Ceg) -> Iterator[PathEstimate]:
    """All simple bottom-to-top paths in deterministic order (DFS)."""
    yield from _walk_paths(ceg, 0, (), Fraction(1))


def _walk_paths(ceg: Ceg, v: int, edges: tuple[CegEdge, ...],
                prod: Fraction) -> Iterator[PathEstimate]:
    if v == ceg._top:
        yield PathEstimate(edges, prod)
        return
    for i, arc in enumerate(ceg._arcs_of(v)):
        e = ceg._edge_at(v, i)
        yield from _walk_paths(ceg, arc[0], edges + (e,), prod * e.rate)


def enumerate_paths(ceg: Ceg, cap: int = DEFAULT_PATH_CAP) -> list[PathEstimate]:
    total = path_summary(ceg).count()
    if total > cap:
        raise PathOverflowError(f"path enumeration needs {total} paths", total, cap)
    return list(iter_paths(ceg))


_MAX, _MIN, _SUM, _COUNT, _ARGMAX, _ARGMIN, _FIRST = range(7)   # HopRow slots

HopRow = list   # [max, min, sum, count, argmax, argmin, first] of one (vertex, hops)
Distinct = dict[tuple[int, int], tuple[int, tuple[int, int]]]   # value -> (first out-edge, rest)


class PathSummary:
    """Aggregates over every bottom-to-top path of a Ceg, from one memoized pass.

    For each vertex v and hop count k, `rows[v][k]` holds the exact max, min
    and sum of the rate products of the k-hop suffixes v -> top, each as a
    reduced (numerator, denominator) pair of ints, their count, and the index
    in `ceg.out(v)` of the first out-edge reaching the max, the first reaching
    the min, and the first with any k-hop suffix at all.  These are the
    algebraic path sums of the DAG (Mohri, "Semiring frameworks and algorithms
    for shortest-distance problems", 2002) in several semirings at once;
    `iter_paths` lists the same paths one by one.  `count`, `total` and
    `extreme` hand the values out as Fractions, made once per summary from
    bottom's rows: readers such as the 3x3 heuristics share one summary.
    The rows are kept by vertex mask; `rows` keys them by frozenset.
    `closest`, the path oracle's read, makes a pass of its own on each call.
    """

    def __init__(self, ceg: Ceg, rows: dict[int, dict[int, HopRow]]):
        self.ceg = ceg
        self._rows = rows
        self._bottom = rows[0]
        self._values = {k: tuple(Fraction(*row[slot]) for slot in (_MAX, _MIN, _SUM))
                        for k, row in self._bottom.items()}   # indexed by slot
        self.hop_counts: tuple[int, ...] = tuple(sorted(self._bottom))  # ascending
        self._paths: dict[tuple[int, int], PathEstimate] = {}

    @cached_property
    def rows(self) -> dict[frozenset, dict[int, HopRow]]:
        return {self.ceg._sets[v]: row for v, row in self._rows.items()}

    def count(self, hops: int | None = None) -> int:
        """Number of paths with `hops` hops (every path when None)."""
        if hops is not None:
            return self._bottom[hops][_COUNT]
        return sum(row[_COUNT] for row in self._bottom.values())

    def total(self, hops: int | None = None) -> Fraction:
        """Sum of the path estimates with `hops` hops (every path when None)."""
        if hops is not None:
            return self._values[hops][_SUM]
        return sum((values[_SUM] for values in self._values.values()), Fraction(0))

    def extreme(self, largest: bool, hops: int | None = None) -> PathEstimate:
        """The first path in `iter_paths` order whose estimate is the max (or min)
        among the paths with `hops` hops (among every path when None).  Each
        (hops, slot) path is made once per summary."""
        slot = _MAX if largest else _MIN
        if hops is None:
            values = [(values[slot], k) for k, values in self._values.items()]
            target = max(values)[0] if largest else min(values)[0]
            hops = min((k for value, k in values if value == target),
                       key=lambda k: self._walk(k, slot))
        got = self._paths.get((hops, slot))
        if got is None:
            ceg = self.ceg
            got = self._paths[hops, slot] = PathEstimate(
                tuple(ceg._edge_at(v, i) for v, i in self._walk(hops, slot)),
                self._values[hops][slot])
        return got

    def closest(self, key: Callable[[Fraction], object]) -> PathEstimate:
        """The first path in `iter_paths` order whose estimate is least by `key`,
        found by a second pass that keeps only the distinct estimates."""
        ceg = self.ceg
        values: dict[int, Distinct] = {ceg._top: {(1, 1): (-1, (1, 1))}}
        _distinct(ceg._arcs_of, values, 0)
        best = value = min(values[0], key=lambda value: key(Fraction(*value)))
        v, edges = 0, []
        while v != ceg._top:
            i, value = values[v][value]
            edges.append(ceg._edge_at(v, i))
            v = ceg._arcs_of(v)[i][0]
        return PathEstimate(tuple(edges), Fraction(*best))

    def _walk(self, hops: int, slot: int) -> list[tuple[int, int]]:
        """The (vertex, out-edge index) hops of the DFS-first `hops`-hop path whose
        estimate is the row's value in `slot` (_MAX or _MIN).

        It follows the argmax (argmin) pointers down from bottom.  After a
        zero-rate edge every suffix multiplies to 0, so it follows the
        first-suffix pointers instead.  Walks compare in `iter_paths` order,
        as each hop's vertex follows from the indices before it.
        """
        rows, arcs = self._rows, self.ceg._arcs_of
        v = 0
        pointer = _ARGMAX if slot == _MAX else _ARGMIN
        walk: list[tuple[int, int]] = []
        while hops:
            i = rows[v][hops][pointer]
            arc = arcs(v)[i]
            walk.append((v, i))
            if not arc[1]:
                pointer = _FIRST
            v = arc[0]
            hops -= 1
        return walk


def path_summary(ceg: Ceg) -> PathSummary:
    """Max, min, sum and count of the bottom-to-top path estimates per hop count,
    with pointers to the DFS-first extreme paths, in one pass over the DAG.

    Agrees exactly with aggregating `iter_paths(ceg)`, without listing the
    paths: the work is one step per (edge, hop count) pair, not per path.
    It derives only the vertices bottom reaches.
    """
    one = (1, 1)
    rows: dict[int, dict[int, HopRow]] = {ceg._top: {0: [one, one, one, 1, -1, -1, -1]}}
    _summarize(ceg._arcs_of, rows, 0)
    return PathSummary(ceg, rows)


def _reduced(value: tuple[int, int]) -> tuple[int, int]:
    """A (numerator, denominator) pair in lowest terms."""
    n, d = value
    g = math.gcd(n, d)
    return (n // g, d // g) if g > 1 else value


def _summarize(arcs: Callable[[int], tuple[Arc, ...]],
               rows: dict[int, dict[int, HopRow]], v: int) -> dict[int, HopRow]:
    """v's rows, after those of every vertex it reaches (a module function, so
    the recursion leaves no closure cycle holding the graph)."""
    got: dict[int, HopRow] = {}
    for i, (dst, rn, rd, _, _) in enumerate(arcs(v)):
        suffixes = rows.get(dst)
        if suffixes is None:
            suffixes = _summarize(arcs, rows, dst)
        for k, (mx, mn, total, n, _, _, _) in suffixes.items():
            # a row built from a single suffix holds one pair in its max, min
            # and sum slots, so that product is computed once
            hi = (rn * mx[0], rd * mx[1])
            lo = hi if mn is mx else (rn * mn[0], rd * mn[1])
            part = hi if total is mx else (rn * total[0], rd * total[1])
            row = got.get(k + 1)
            if row is None:
                got[k + 1] = [hi, lo, part, n, i, i, i]
                continue
            best = row[_MAX]
            if hi[0] * best[1] > best[0] * hi[1]:
                row[_MAX], row[_ARGMAX] = hi, i
            best = row[_MIN]
            if lo[0] * best[1] < best[0] * lo[1]:
                row[_MIN], row[_ARGMIN] = lo, i
            sn, sd = row[_SUM]
            row[_SUM] = ((sn + part[0], sd) if sd == part[1]
                         else (sn * part[1] + part[0] * sd, sd * part[1]))
            row[_COUNT] += n
    for row in got.values():  # each finished row is reduced once
        mx, mn, total = row[_MAX], row[_MIN], row[_SUM]
        row[_MAX] = first = _reduced(mx)
        row[_MIN] = first if mn is mx else _reduced(mn)
        row[_SUM] = first if total is mx else _reduced(total)
    rows[v] = got
    return got


def _distinct(arcs: Callable[[int], tuple[Arc, ...]], values: dict[int, Distinct],
              v: int) -> Distinct:
    """v's distinct suffix products in the order `iter_paths` first meets them,
    each with its first out-edge; PathOverflowError past DEFAULT_PATH_CAP."""
    got: Distinct = {}
    for i, (dst, rn, rd, _, _) in enumerate(arcs(v)):
        suffixes = values.get(dst)
        if suffixes is None:
            suffixes = _distinct(arcs, values, dst)
        for rest in suffixes:
            got.setdefault(_reduced((rn * rest[0], rd * rest[1])), (i, rest))
        if len(got) > DEFAULT_PATH_CAP:
            raise PathOverflowError(f"P* needs {len(got)} distinct path estimates at one vertex",
                                    len(got), DEFAULT_PATH_CAP)
    values[v] = got
    return got


def min_weight_path(ceg: AttrCeg) -> PathEstimate:
    """Minimum-weight bottom-to-top path of a max-degree or cover graph
    (Dijkstra on degree products, straight off its move table; any other
    graph raises ValueError).

    The result is the minimum (weight, vertex-key sequence) path, each hop
    taking its first edge in `out` order (unbound before bound at one rate).
    The heap holds (weight, -mask) pairs; each vertex keeps one distance and
    its tight predecessors u, with dist(u) * rate = dist(v).  Popping goes on
    until the weight passes the top's, then the path walks up from bottom,
    each step to the smallest key among the tight successors that reach the
    top.  A degree is 0 only for an empty pattern, whose
    unbound move out of bottom is then 0 too: the search then pops weight-0
    vertices, the largest mask first, and stops at the top's first pop.

    The moves are grouped by Y: for each proper submask Z of Y, a table holds
    the cheapest degree over the group's moves whose X lies in Z.  A move
    applies at w exactly when X ⊆ Y ∩ w, so a pop at w reads table[Y ∩ w]
    per Y not within w.  No move is dropped as dominated, and no degree is
    assumed monotone in X.

    A popped vertex w is not expanded when some w | {v}, popped already, is
    strictly lighter.  Two premises make that safe.  Every move that applies
    at w applies at each superset of w, leading to a superset of its target
    or to no move at all.  And every degree is an integer of at least 1
    unless the bound is 0, in which case only bottom and weight-0 vertices pop
    before the top, and none of them has a strictly lighter superset.  So
    each path on from w has a counterpart on from w | {v} that weighs no more,
    and every path through w weighs strictly more than the bound.  A skipped
    vertex is then on no lightest path, is the tight predecessor of no vertex
    on one, and ties nothing: the chosen path is the one a full search finds.
    """
    if not isinstance(ceg, AttrCeg):
        raise ValueError("min_weight_path searches max-degree and cover graphs only")
    tables = _tables_by_y(ceg.moves)
    goal = ceg._top
    dist = {0: 1}
    preds: dict[int, list[int]] = {0: []}
    heap = [(1, 0)]
    limit = math.inf   # the top's weight, once popped
    while heap:
        weight, w = heapq.heappop(heap)
        w = -w
        if weight != dist[w]:  # a lighter push of w came later
            continue
        if weight > limit:
            break
        if w == goal:  # it has no move out
            limit = weight
            if not weight:
                break
        free = ~w
        rest = goal & free
        while rest:  # skip w if some popped w | v is strictly lighter
            v = rest & -rest
            if dist.get(w | v, weight) < weight:
                break
            rest ^= v
        if rest:
            continue
        for ym, table in tables:
            if ym & free:
                deg = table.get(ym & w)
                if deg is not None:
                    dst, total = w | ym, weight * deg
                    known = dist.get(dst)
                    if known is None or total < known:
                        dist[dst] = total
                        preds[dst] = [w]
                        heapq.heappush(heap, (total, -dst))
                    elif total == known and preds[dst][-1] != w:
                        preds[dst].append(w)
    if limit == math.inf:
        raise EstimationError("top vertex unreachable; statistics missing")
    tight: dict[int, list[int]] = {}  # u -> its tight successors that reach the goal
    stack = [goal]
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in tight:
                tight[u] = []
                stack.append(u)
            tight[u].append(v)
    path = [0]
    while path[-1] != goal:
        path.append(min(tight[path[-1]], key=ceg._keys.__getitem__))
    return PathEstimate(_path_edges(ceg, path, [ym for ym, _ in tables]), Fraction(limit))


def _path_edges(ceg: AttrCeg, path: list[int], y_masks: Sequence[int]) -> tuple[CegEdge, ...]:
    """Each hop's first edge in `out` order, its arcs merged as
    `AttrCeg._derived` merges them, from one pass over the moves.  A move
    into Y makes the hop v -> w only if v | Y == w, and the path's masks grow,
    so each of the moves' distinct `y_masks` makes at most one hop."""
    hops = list(zip(path, path[1:]))
    hop_of = {ym: i for i, (v, w) in enumerate(hops) for ym in y_masks if v | ym == w}
    merged: list[dict[tuple[int, int, str], set]] = [{} for _ in hops]
    for xm, ym, deg, prov in ceg.moves:
        i = hop_of.get(ym)
        if i is not None and xm & hops[i][0] == xm:
            merged[i].setdefault((hops[i][1], deg, BOUND if xm else UNBOUND), set()).add(prov)
    return tuple(ceg._edge(v, ceg._merged_arcs(arcs)[0]) for (v, _), arcs in zip(hops, merged))


def _tables_by_y(moves: Iterable[tuple[int, int, int, tuple]]) -> list[tuple[int, dict[int, int]]]:
    """(Y, table) for each distinct Y mask of the moves: table[Z], for each
    proper submask Z of Y, is the cheapest degree of a move into Y whose X
    lies within Z; Z has no entry when no such move exists."""
    by_y: dict[int, dict[int, int]] = {}
    for xm, ym, deg, _ in moves:
        group = by_y.setdefault(ym, {})
        group[xm] = min(deg, group.get(xm, deg))
    tables = []
    for ym, group in by_y.items():
        table: dict[int, int] = {}
        for xm, deg in group.items():
            rest = s = ym ^ xm
            while s:  # every proper submask of ym that holds xm: xm | s, s ⊊ rest
                s = (s - 1) & rest
                if deg < table.get(xm | s, deg + 1):
                    table[xm | s] = deg
        tables.append((ym, table))
    return tables


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
