"""Independent brute-force oracles used to check the library implementations.

Everything here deliberately avoids the library's algorithms: joins are
nested loops in query order with no indexes, subset enumeration filters the
power set, isomorphism tries every bijection.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, permutations, product

from cardest.errors import QueryValidationError
from cardest.graphstore import LabeledGraph
from cardest.querymodel import QueryGraph


def nested_loop_matches(g: LabeledGraph, q: QueryGraph) -> list[tuple[int, ...]]:
    edges = [(e.src, e.dst, e.label) for e in q.edges]
    rels = [sorted(g.edges_with_label(lab)) for _, _, lab in edges]
    out: list[tuple[int, ...]] = []

    def rec(i: int, binding: dict[str, int]):
        if i == len(edges):
            out.append(tuple(binding[v] for v in q.vars))
            return
        u, v, _ = edges[i]
        for s, d in rels[i]:
            if binding.get(u, s) != s or binding.get(v, d) != d:
                continue
            nxt = dict(binding)
            nxt[u] = s
            nxt[v] = d
            rec(i + 1, nxt)

    rec(0, {})
    return out


def nested_loop_count(g: LabeledGraph, q: QueryGraph) -> int:
    return len(nested_loop_matches(g, q))


def group_degree(g: LabeledGraph, q: QueryGraph, x_vars, y_vars) -> int:
    """deg(X, Y, Q): max over X-bindings of the number of distinct Y-bindings
    among the nested-loop matches; 0 without matches.  X must be a subset of
    Y, and Y of q's variables (QueryValidationError)."""
    if not set(x_vars) <= set(y_vars) <= set(q.vars):
        raise QueryValidationError("need X within Y within the query variables")
    x_idx = [i for i, v in enumerate(q.vars) if v in set(x_vars)]
    y_idx = [i for i, v in enumerate(q.vars) if v in set(y_vars)]
    buckets: dict[tuple, set] = {}
    for row in nested_loop_matches(g, q):
        buckets.setdefault(tuple(row[i] for i in x_idx), set()).add(
            tuple(row[i] for i in y_idx))
    return max((len(v) for v in buckets.values()), default=0)


def brute_deg_table(g: LabeledGraph, q: QueryGraph) -> dict[str, int]:
    """Every deg(X, Y) of a catalogue representative (variables x0..x{n-1}),
    keyed as the catalogue keys it: "X|Y" with xi written as i."""
    n = len(q.vars)
    idx = [c for k in range(n + 1) for c in combinations(range(n), k)]
    return {f"{','.join(map(str, x))}|{','.join(map(str, y))}":
            group_degree(g, q, [f"x{i}" for i in x], [f"x{i}" for i in y])
            for y in idx for x in idx if set(x) <= set(y)}


def brute_connected_subsets(q: QueryGraph, max_edges: int) -> set[frozenset[int]]:
    m = len(q.edges)
    adj = q.edge_adjacency()
    out: set[frozenset[int]] = set()
    for mask in range(1, 1 << m):
        sub = [i for i in range(m) if mask & (1 << i)]
        if len(sub) > max_edges:
            continue
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            for j in adj[stack.pop()]:
                if j in sub and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == len(sub):
            out.add(frozenset(sub))
    return out


def brute_cycles(q: QueryGraph) -> set[frozenset[int]]:
    """Edge subsets that are simple cycles: connected, every vertex degree 2."""
    m = len(q.edges)
    out: set[frozenset[int]] = set()
    for mask in range(1, 1 << m):
        sub = [i for i in range(m) if mask & (1 << i)]
        degree: dict[str, int] = {}
        for i in sub:
            degree[q.edges[i].src] = degree.get(q.edges[i].src, 0) + 1
            degree[q.edges[i].dst] = degree.get(q.edges[i].dst, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        if frozenset(sub) in brute_connected_subsets_of(q, sub):
            out.add(frozenset(sub))
    return out


def brute_connected_subsets_of(q: QueryGraph, sub: list[int]) -> set[frozenset[int]]:
    adj = q.edge_adjacency()
    seen = {sub[0]}
    stack = [sub[0]]
    while stack:
        for j in adj[stack.pop()]:
            if j in sub and j not in seen:
                seen.add(j)
                stack.append(j)
    return {frozenset(sub)} if len(seen) == len(sub) else set()


def brute_isomorphic(p1, p2) -> bool:
    """Directed edge-labeled isomorphism by trying every vertex bijection."""
    v1 = sorted({v for e in p1 for v in e[:2]})
    v2 = sorted({v for e in p2 for v in e[:2]})
    if len(v1) != len(v2) or len(p1) != len(p2):
        return False
    s1 = set(p1)
    for perm in permutations(v2):
        mapping = dict(zip(v1, perm))
        if {(mapping[s], mapping[d], lab) for s, d, lab in p1} == \
           {(e[0], e[1], e[2]) for e in p2} and len(s1) == len(p1):
            return True
    return False


def dfs_path_count(ceg) -> int:
    """Path count by plain recursion (no memoization, unlike the library)."""

    def rec(v) -> int:
        if v == ceg.top:
            return 1
        return sum(rec(e.dst) for e in ceg.out(v))

    return rec(ceg.bottom)


def dag_min_product(ceg):
    """Minimum over all bottom-to-top path products, by memoized DP.

    Same quantity as min(p.estimate for p in iter_paths(ceg)) but independent
    of the library's Dijkstra; usable when literal enumeration is infeasible.
    """
    from fractions import Fraction

    memo: dict = {}

    def rec(v):
        if v == ceg.top:
            return Fraction(1)
        if v in memo:
            return memo[v]
        best = None
        for e in ceg.out(v):
            tail = rec(e.dst)
            if tail is None:
                continue
            candidate = e.rate * tail
            if best is None or candidate < best:
                best = candidate
        memo[v] = best
        return best

    return rec(ceg.bottom)


def dag_min_path(ceg) -> tuple:
    """The edges of the least bottom-to-top path by (weight, vertex-key
    sequence), a vertex's key being its sorted names, each hop on its first
    edge in `out` order, by memoized DP over `ceg.out()`.

    A suffix's best continuation is the same whatever leads into it only when
    every weight is positive, so the result holds for positive bounds only.
    """
    from fractions import Fraction

    memo: dict = {}

    def rec(v):  # (weight, key sequence, edges) of v's best suffix; None: top unreachable
        if v == ceg.top:
            return Fraction(1), (), ()
        if v not in memo:
            best = None
            for e in ceg.out(v):
                tail = rec(e.dst)
                if tail is None:
                    continue
                candidate = (e.rate * tail[0], (tuple(sorted(e.dst)),) + tail[1], (e,) + tail[2])
                if best is None or candidate[:2] < best[:2]:
                    best = candidate
            memo[v] = best
        return memo[v]

    return rec(ceg.bottom)[2]


def projection_molp(q: QueryGraph, stats) -> int:
    """The lightest bottom-to-top degree product over every attribute subset
    of q, by a Dijkstra of its own, with projection edges.

    Vertices are all 2^|vars| masks of the degree tables' bits, the top
    being the union of every table's Y.  From each vertex W there is an
    extension edge W -> W|Y of rate deg(X, Y) for every entry X ⊊ Y of a
    pattern's table (`stats.degrees`) with X within W, and a rate-1
    projection edge to W minus each of its variables.  An improved vertex is
    pushed again whenever its weight drops, so degree-0 entries need no
    special case.
    """
    moves = [(x, y, deg) for s in brute_connected_subsets(q, stats.cat.h)
             for (x, y), deg in stats.degrees(s).items() if x != y]
    top = 0
    for _, y, _ in moves:
        top |= y
    variables = [b for b in (1 << i for i in range(top.bit_length())) if top & b]
    dist = {0: 1}
    heap = [(1, 0)]
    while heap:
        weight, w = heapq.heappop(heap)
        if weight > dist[w]:
            continue
        steps = [(w | y, weight * deg) for x, y, deg in moves if x & w == x and y & ~w]
        steps += [(w & ~b, weight) for b in variables if w & b]
        for v, total in steps:
            if total < dist.get(v, total + 1):
                dist[v] = total
                heapq.heappush(heap, (total, v))
    return dist[top]


def molp_certificate(q: QueryGraph, cat) -> int:
    """The MOLP bound of q over `cat`, proved the LP optimum in exact integers,
    with no solver; AssertionError when the proof fails.

    The moves are the entries X ⊊ Y of the degree tables of q's connected
    index sets of at most h edges (`QueryStats.degrees`), shared with no
    search of the library.  dist(W), the least degree product of an
    extension path from ∅ to W, comes from a DP over the masks in increasing
    order, as a move only adds bits; s(W) is the least dist(W') over the
    supersets W' of W.  Then log2 s is a feasible LP point: s(∅) = 1,
    s(W - a) ≤ s(W) by construction, and s(W ∪ Y) ≤ s(W) · deg(X, Y) for
    every entry and every W ⊇ X, all checked here.  Its objective, log2
    s(V) = log2 dist(V), is the weight of a path to V, which caps the LP's
    maximum, so dist(V), returned, is the optimum.  A zero optimum has no
    log, and fails the check s(∅) = 1.
    """
    from cardest.catalogue import QueryStats

    stats = QueryStats(q, cat)
    by_x: dict[int, list[tuple[int, int]]] = {}
    for s in brute_connected_subsets(q, cat.h):
        for (x, y), deg in stats.degrees(s).items():
            if x != y:
                by_x.setdefault(x, []).append((y, deg))
    top = (1 << len(q.vars)) - 1
    dist: list = [None] * (top + 1)
    dist[0] = 1
    for w, here in enumerate(dist):
        if here is None:
            continue
        for x, moves in by_x.items():
            if x & w == x:
                for y, deg in moves:
                    known = dist[w | y]
                    if w | y != w and (known is None or here * deg < known):
                        dist[w | y] = here * deg
    assert dist[top] is not None, "top unreachable"
    least = list(dist)
    for w in range(top, -1, -1):
        for b in (1 << i for i in range(len(q.vars))):
            above = least[w | b]
            if above is not None and (least[w] is None or above < least[w]):
                least[w] = above
    assert least[0] == 1, f"s(∅) = {least[0]}"
    for w, here in enumerate(least):
        for x, moves in by_x.items():
            if x & w == x:
                for y, deg in moves:
                    assert least[w | y] <= here * deg, (w, x, y, deg)
    return dist[top]


def brute_label_walks(g: LabeledGraph, label_seq) -> list[tuple[int, ...]]:
    """All walks realizing the (label, direction) sequence, by recursion."""
    from cardest.oracle import FWD

    def step(vertex, spec):
        lab, direction = spec
        return g.out_neighbors(vertex, lab) if direction == FWD else g.in_neighbors(vertex, lab)

    firsts = []
    lab, direction = label_seq[0]
    for s, d in g.edges_with_label(lab):
        firsts.append((s, d) if direction == FWD else (d, s))
    walks = []

    def rec(prefix):
        i = len(prefix) - 1
        if i == len(label_seq):
            walks.append(tuple(prefix))
            return
        for w in step(prefix[-1], label_seq[i]):
            rec(prefix + [w])

    for w0, w1 in sorted(firsts):
        rec([w0, w1])
    return walks


def randrange_label_walks(g: LabeledGraph, label_seq, p: int, seed: int) -> list[tuple[int, ...]]:
    """`sample_label_paths`'s walks drawn with `random.Random.randrange`:
    a uniform first edge (pairs sorted as (w0, w1)), then a uniform neighbour
    per step from `out_neighbors` / `in_neighbors`; a dead end yields no walk."""
    from cardest.oracle import FWD

    rng = random.Random(seed)
    lab, direction = label_seq[0]
    firsts = sorted((s, d) if direction == FWD else (d, s) for s, d in g.edges_with_label(lab))
    if not firsts:
        return []
    walks = []
    for _ in range(p):
        walk = list(firsts[rng.randrange(len(firsts))])
        for lab, direction in label_seq[1:]:
            nbrs = (g.out_neighbors(walk[-1], lab) if direction == FWD
                    else g.in_neighbors(walk[-1], lab))
            if not nbrs:
                break
            walk.append(nbrs[rng.randrange(len(nbrs))])
        else:
            walks.append(tuple(walk))
    return walks


def filtered_sketch_components(g: LabeledGraph, q: QueryGraph, attrs, parts: int, seed: int):
    """(index, edge set) per sketch component, by rescanning every relation per
    component and hashing every sketched endpoint again each time.

    Index order: the first attribute's bucket varies fastest.
    """
    from cardest.sketch import bucket_of

    out = []
    for rev in product(range(parts), repeat=len(attrs)):
        index = tuple(reversed(rev))
        sigma = dict(zip(attrs, index))
        edges = set()
        for i, e in enumerate(q.edges):
            for u, v in g.edges_with_label(e.label):
                if e.src in sigma and bucket_of(u, parts, seed) != sigma[e.src]:
                    continue
                if e.dst in sigma and bucket_of(v, parts, seed) != sigma[e.dst]:
                    continue
                edges.add((u, v, f"e{i}"))
        out.append((index, frozenset(edges)))
    return out
