"""Exact answer counting and walk sampling over a frozen graph.

Counting uses join (homomorphism) semantics: distinct query variables may
bind the same data vertex.  One backtracking matcher serves both counting
(`count_hom`) and listing matches (`matches`).  Which query edge to take next
depends only on which variables are bound, never on the vertices bound to
them, so the search order is planned once per call, as in Graphflow's query
plans, rather than chosen again at every search node.  Each round of the
plan checks the edges whose endpoints are both bound, then, when counting,
folds every free variable whose remaining edges all reach bound variables
instead of branching on it, then branches on the first edge touching a bound
variable, or on the smallest relation when none is bound.  A folded variable
multiplies the count by the number of its candidates: with one such edge (a
pendant edge), the length of the bound end's adjacency list; with k >= 2, the
size of the intersection of the k lists, the extend/intersect step of
worst-case optimal joins (Ngo, Ré & Rudra, "Skew strikes back", 2013;
Graphflow, Mhedhbi & Salihoglu, VLDB 2019).  That intersection is a set of
the list of the variable bound first, made once per vertex it binds within
one call, intersected in C with the other lists; so a cycle's last variable
closes it without a search.  Listing folds nothing, since a row needs every
variable bound, so its plan, and the order of its rows, are the same as
without folds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Sequence

from .graphstore import DST, SRC, LabeledGraph, has_neighbor
from .querymodel import QueryGraph

FWD = "+"
REV = "-"

LabelStep = tuple[str, str]  # (label, FWD | REV)


@dataclass(frozen=True)
class MatchCount:
    value: int


def count_hom(g: LabeledGraph, q: QueryGraph) -> MatchCount:
    """Exact number of homomorphic matches of q in g."""
    return MatchCount(_run(g, _plan(g, q, fold=True), 0, [None] * len(q.vars), None))


def matches(g: LabeledGraph, q: QueryGraph) -> list[tuple[int, ...]]:
    """All homomorphic matches, as vertex tuples in q.vars order."""
    rows: list[tuple[int, ...]] = []
    _run(g, _plan(g, q, fold=False), 0, [None] * len(q.vars), rows)
    return rows


_CHECK, _FOLD, _MEET, _EXTEND, _SCAN = range(5)


def _plan(g: LabeledGraph, q: QueryGraph, fold: bool) -> list[tuple]:
    """The search order for q, round by round as the module docstring says,
    as a list of steps over binding slots (q.vars order).

    A step is (kind, slot a, slot b, arg): CHECK bisects binding[a]'s sorted
    list in the out-neighbour map arg for binding[b]; FOLD multiplies by the
    number of neighbours of binding[a] in the adjacency map arg; MEET
    multiplies by the size of the intersection of k >= 2 neighbour lists:
    binding[a]'s in the map arg[0] (a is bound before the other arms' slots),
    binding[b]'s in arg[1], and binding[c]'s in m for each (c, m) in arg[3],
    where arg[2] holds the set of each list of a, made once per call and
    vertex; EXTEND binds b to each neighbour of binding[a] in the map arg;
    SCAN binds (a, b) to each edge of the out-neighbour map arg, in
    `edges_with_label` order.
    """
    slot = {v: i for i, v in enumerate(q.vars)}
    rest = [(slot[e.src], slot[e.dst], e.label) for e in q.edges]
    bound: dict[int, int] = {}  # slot -> its place in binding order
    steps: list[tuple] = []
    while rest:
        edges, rest = rest, []
        for u, v, lab in edges:
            if u in bound and v in bound:
                steps.append((_CHECK, u, v, g.adjacency(lab, SRC)))
            else:
                rest.append((u, v, lab))
        if fold:
            # a free variable whose every remaining edge reaches a bound one
            # folds: its arms are those edges as (bound slot, adjacency map)
            arms: dict[int, list | None] = {}
            for u, v, lab in rest:
                for near, far, side in ((u, v, SRC), (v, u, DST)):
                    if far in bound or arms.get(far, ()) is None:
                        continue
                    if near in bound:
                        arms.setdefault(far, []).append((near, g.adjacency(lab, side)))
                    else:
                        arms[far] = None
            for b, arm in arms.items():
                if arm is None:
                    continue
                if len(arm) == 1:
                    steps.append((_FOLD, arm[0][0], b, arm[0][1]))
                else:
                    arm.sort(key=lambda e: bound[e[0]])
                    (a, first), (c, second), *more = arm
                    steps.append((_MEET, a, c, (first, second, {}, more)))
            rest = [e for e in rest if arms.get(e[0]) is None and arms.get(e[1]) is None]  # unfolded
        if not rest:
            break
        touching = [e for e in rest if e[0] in bound or e[1] in bound]
        u, v, lab = touching[0] if touching else min(rest, key=lambda e: g.label_count(e[2]))
        rest.remove((u, v, lab))
        if u in bound:
            steps.append((_EXTEND, u, v, g.adjacency(lab, SRC)))
        elif v in bound:
            steps.append((_EXTEND, v, u, g.adjacency(lab, DST)))
        else:
            steps.append((_SCAN, u, v, g.adjacency(lab, SRC)))
        for s in (u, v):
            bound.setdefault(s, len(bound))
    return steps


def _run(g: LabeledGraph, steps: list[tuple], start: int, binding: list, rows: list | None) -> int:
    """Number of completions of `binding` under steps[start:]; with `rows`,
    also append each completed binding (the plan must then fold nothing)."""
    factor = 1
    for i in range(start, len(steps)):
        kind, a, b, arg = steps[i]
        if kind == _CHECK:
            if not has_neighbor(arg.get(binding[a], ()), binding[b]):
                return 0
        elif kind == _FOLD:
            factor *= len(arg.get(binding[a], ()))
            if not factor:
                return 0
        elif kind == _MEET:
            first, second, sets, more = arg
            x = binding[a]
            common = sets.get(x)
            if common is None:
                common = sets[x] = set(first.get(x, ()))
            common = common.intersection(second.get(binding[b], ()))
            for c, adjacency in more:
                common.intersection_update(adjacency.get(binding[c], ()))
            factor *= len(common)
            if not factor:
                return 0
        else:
            total = 0
            if kind == _EXTEND:
                for w in arg.get(binding[a], ()):
                    binding[b] = w
                    total += _run(g, steps, i + 1, binding, rows)
            else:
                for binding[a] in sorted(arg):
                    for binding[b] in arg[binding[a]]:
                        total += _run(g, steps, i + 1, binding, rows)
            return factor * total
    if rows is not None:
        rows.append(tuple(binding))
    return factor


def degrees(rows: Collection[tuple[int, ...]], y_idx: Sequence[int],
            x_idxs: Sequence[Sequence[int]]) -> list[int]:
    """deg(X, Y) over the distinct match `rows` for each X in `x_idxs`.

    Indices are ascending row positions, each X within Y.  The rows are
    projected onto Y once (the full row set is its own projection) and every X
    groups that projection; all degrees are 0 without rows.
    """
    if not rows:
        return [0] * len(x_idxs)
    if len(y_idx) == len(next(iter(rows))):
        proj = rows
    else:
        proj = set(map(itemgetter(*y_idx), rows)) if y_idx else {()}
    return [len(proj) if not x
            else 1 if len(x) == len(y_idx)
            else max(Counter(map(itemgetter(*map(y_idx.index, x)), proj)).values())
            for x in x_idxs]


def _first_edges(g: LabeledGraph, step: LabelStep) -> list[tuple[int, int]]:
    """(w0, w1) pairs realizing the first step, in sorted order."""
    label, direction = step
    adj = g.adjacency(label, SRC if direction == FWD else DST)
    return [(u, v) for u in sorted(adj) for v in adj[u]]


def sample_label_paths(g: LabeledGraph, label_seq: Sequence[LabelStep],
                       p: int, seed: int) -> list[tuple[int, ...]]:
    """Sample up to p random walks realizing label_seq (with replacement).

    A walk begins on a uniformly chosen edge matching the first step and
    extends uniformly among admissible continuations; a dead end costs one
    sample and yields no walk.  Walks may revisit vertices.

    Draw rule: every choice among n items, n = 1 included, takes
    k = n.bit_length() bits from `random.Random(seed).getrandbits` and draws
    again while the value is >= n; that value is the index.  The pinned
    closing rates depend on this exact stream.  The `random` module promises
    only that `random()`'s sequence stays stable across Python versions, so
    the rule is written out here rather than left to `randrange` (which
    applies it today).
    """
    if p < 1:
        raise ValueError("sample count must be >= 1")
    if not label_seq:
        raise ValueError("label sequence must be non-empty")
    firsts = _first_edges(g, label_seq[0])
    if not firsts:
        return []
    bits = random.Random(seed).getrandbits
    n_firsts = len(firsts)
    k_firsts = n_firsts.bit_length()
    steps = [g.adjacency(label, SRC if direction == FWD else DST)
             for label, direction in label_seq[1:]]
    walks: list[tuple[int, ...]] = []
    for _ in range(p):
        i = bits(k_firsts)
        while i >= n_firsts:
            i = bits(k_firsts)
        walk = list(firsts[i])
        v = walk[1]
        for adjacency in steps:
            nbrs = adjacency.get(v)
            if nbrs is None:  # adjacency lists are never empty
                break
            n = len(nbrs)
            k = n.bit_length()
            i = bits(k)
            while i >= n:
                i = bits(k)
            v = nbrs[i]
            walk.append(v)
        else:
            walks.append(tuple(walk))
    return walks
