"""Exact answer counting and walk sampling over a frozen graph.

Counting uses join (homomorphism) semantics: distinct query variables may
bind the same data vertex.  The matcher backtracks over query edges in a
greedy connected order; query edges whose free endpoint occurs nowhere else
are folded into a degree product instead of being branched on.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Iterator, Sequence

from .errors import QueryValidationError
from .graphstore import LabeledGraph
from .querymodel import QueryGraph

FWD = "+"
REV = "-"

LabelStep = tuple[str, str]  # (label, FWD | REV)


@dataclass(frozen=True)
class MatchCount:
    value: int


def count_hom(g: LabeledGraph, q: QueryGraph) -> MatchCount:
    """Exact number of homomorphic matches of q in g."""
    edges = [(e.src, e.dst, e.label) for e in q.edges]
    return MatchCount(_count_rec(g, edges, list(range(len(edges))), {}))


def _count_rec(g: LabeledGraph, edges, remaining: list[int], binding: dict[str, int]) -> int:
    if not remaining:
        return 1

    # Edges with both endpoints bound are pure filters.
    for idx in remaining:
        u, v, lab = edges[idx]
        if u in binding and v in binding:
            if not g.has_edge(binding[u], binding[v], lab):
                return 0
            return _count_rec(g, edges, [i for i in remaining if i != idx], binding)

    # Fold pendant edges: one endpoint bound, free endpoint used nowhere else.
    factor = 1
    rest = list(remaining)
    changed = True
    while changed:
        changed = False
        occurrences: dict[str, int] = {}
        for idx in rest:
            u, v, _ = edges[idx]
            occurrences[u] = occurrences.get(u, 0) + 1
            occurrences[v] = occurrences.get(v, 0) + 1
        for idx in list(rest):
            u, v, lab = edges[idx]
            bu, bv = u in binding, v in binding
            if bu and bv:
                continue
            if bu and occurrences[v] == 1:
                factor *= len(g.out_neighbors(binding[u], lab))
            elif bv and occurrences[u] == 1:
                factor *= len(g.in_neighbors(binding[v], lab))
            else:
                continue
            if factor == 0:
                return 0
            rest.remove(idx)
            changed = True
            break
    if not rest:
        return factor

    # Branch on the first edge touching a bound variable (or the cheapest
    # relation when nothing is bound yet).
    pick = None
    for idx in rest:
        u, v, _ = edges[idx]
        if u in binding or v in binding:
            pick = idx
            break
    if pick is None:
        pick = min(rest, key=lambda i: (g.label_count(edges[i][2]), i))
    u, v, lab = edges[pick]
    rest2 = [i for i in rest if i != pick]
    total = 0
    if u in binding:
        for w in g.out_neighbors(binding[u], lab):
            binding[v] = w
            total += _count_rec(g, edges, rest2, binding)
            del binding[v]
    elif v in binding:
        for w in g.in_neighbors(binding[v], lab):
            binding[u] = w
            total += _count_rec(g, edges, rest2, binding)
            del binding[u]
    else:
        for s, d in g.edges_with_label(lab):
            binding[u], binding[v] = s, d
            total += _count_rec(g, edges, rest2, binding)
            del binding[u], binding[v]
    return factor * total


def matches(g: LabeledGraph, q: QueryGraph) -> list[tuple[int, ...]]:
    """All homomorphic matches, as vertex tuples in q.vars order."""
    edges = [(e.src, e.dst, e.label) for e in q.edges]
    out: list[tuple[int, ...]] = []
    _enumerate_rec(g, edges, list(range(len(edges))), {}, q.vars, out)
    return out


def _enumerate_rec(g, edges, remaining, binding, var_order, out) -> None:
    if not remaining:
        out.append(tuple(binding[v] for v in var_order))
        return
    pick = None
    for idx in remaining:
        u, v, _ = edges[idx]
        if u in binding and v in binding:
            if not g.has_edge(binding[u], binding[v], edges[idx][2]):
                return
            _enumerate_rec(g, edges, [i for i in remaining if i != idx], binding, var_order, out)
            return
        if pick is None and (u in binding or v in binding):
            pick = idx
    if pick is None:
        pick = min(remaining, key=lambda i: (g.label_count(edges[i][2]), i))
    u, v, lab = edges[pick]
    rest = [i for i in remaining if i != pick]
    if u in binding:
        for w in g.out_neighbors(binding[u], lab):
            binding[v] = w
            _enumerate_rec(g, edges, rest, binding, var_order, out)
            del binding[v]
    elif v in binding:
        for w in g.in_neighbors(binding[v], lab):
            binding[u] = w
            _enumerate_rec(g, edges, rest, binding, var_order, out)
            del binding[u]
    else:
        for s, d in g.edges_with_label(lab):
            binding[u], binding[v] = s, d
            _enumerate_rec(g, edges, rest, binding, var_order, out)
            del binding[u], binding[v]


def group_degree(g: LabeledGraph, q: QueryGraph, x_vars: Sequence[str], y_vars: Sequence[str]) -> int:
    """deg(X, Y, Q): max over X-bindings of the number of distinct Y-bindings.

    With X empty this is the size of the projection of the match set onto Y.
    Returns 0 when q has no matches.
    """
    xs = frozenset(x_vars)
    ys = frozenset(y_vars)
    if not xs <= ys:
        raise QueryValidationError("X must be a subset of Y")
    if not ys <= set(q.vars):
        raise QueryValidationError("Y must be a subset of the query variables")
    x_idx = [i for i, v in enumerate(q.vars) if v in xs]
    y_idx = [i for i, v in enumerate(q.vars) if v in ys]
    return degrees(set(matches(g, q)), y_idx, [x_idx])[0]


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


def _step_neighbors(g: LabeledGraph, vertex: int, step: LabelStep) -> list[int]:
    label, direction = step
    if direction == FWD:
        return g.out_neighbors(vertex, label)
    return g.in_neighbors(vertex, label)


def _first_edges(g: LabeledGraph, step: LabelStep) -> list[tuple[int, int]]:
    """(w0, w1) pairs realizing the first step."""
    label, direction = step
    pairs = list(g.edges_with_label(label))
    if direction == FWD:
        return pairs
    return sorted((d, s) for s, d in pairs)


def sample_label_paths(g: LabeledGraph, label_seq: Sequence[LabelStep],
                       p: int, seed: int) -> list[tuple[int, ...]]:
    """Sample up to p random walks realizing label_seq (with replacement).

    A walk starts on a uniformly chosen edge matching the first step and
    extends uniformly among admissible continuations; a dead end costs one
    sample and yields no walk.  Walks may revisit vertices.
    """
    if p < 1:
        raise ValueError("sample count must be >= 1")
    if not label_seq:
        raise ValueError("label sequence must be non-empty")
    rng = random.Random(seed)
    starts = _first_edges(g, label_seq[0])
    if not starts:
        return []
    walks: list[tuple[int, ...]] = []
    for _ in range(p):
        w0, w1 = starts[rng.randrange(len(starts))]
        walk = [w0, w1]
        dead = False
        for step in label_seq[1:]:
            nbrs = _step_neighbors(g, walk[-1], step)
            if not nbrs:
                dead = True
                break
            walk.append(nbrs[rng.randrange(len(nbrs))])
        if not dead:
            walks.append(tuple(walk))
    return walks


def enumerate_label_paths(g: LabeledGraph, label_seq: Sequence[LabelStep]) -> Iterator[tuple[int, ...]]:
    """Every walk realizing label_seq (exhaustive counterpart of sampling)."""
    if not label_seq:
        return
    stack: list[tuple[int, ...]] = [(w0, w1) for w0, w1 in _first_edges(g, label_seq[0])]
    for prefix in stack:
        yield from _extend_walk(g, label_seq, prefix)


def _extend_walk(g, label_seq, prefix) -> Iterator[tuple[int, ...]]:
    depth = len(prefix) - 1
    if depth == len(label_seq):
        yield prefix
        return
    for w in _step_neighbors(g, prefix[-1], label_seq[depth]):
        yield from _extend_walk(g, label_seq, prefix + (w,))
