"""Conjunctive queries over binary relations, viewed as labeled query graphs.

Queries are parsed from an arrow notation (one edge per line, `a1 -A-> a2`),
validated to be connected, and kept immutable.  Subqueries are connected
subsets of query-edge indices; two query edges are adjacent iff they share a
variable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import QueryParseError, QueryValidationError
from .graphstore import LabeledGraph, RankedEdges

TEMPLATE_LABEL = "?"
MAX_EMBED_DRAWS = 10_000  # random embeddings an edge-at-a-time instantiation tries


@dataclass(frozen=True)
class QEdge:
    src: str
    dst: str
    label: str

    def vars(self) -> tuple[str, str]:
        return (self.src, self.dst)


class QueryGraph:
    """Connected conjunctive query with a stable edge order."""

    def __init__(self, qedges: Sequence[QEdge], allow_template: bool = False):
        if not qedges:
            raise QueryValidationError("query needs at least one edge")
        seen_vars: list[str] = []
        for e in qedges:
            if e.src == e.dst:
                raise QueryValidationError(f"self-loop query edge {e.src} -{e.label}-> {e.dst}")
            if not allow_template and e.label == TEMPLATE_LABEL:
                raise QueryValidationError("unassigned '?' label outside a template")
            for v in (e.src, e.dst):
                if v not in seen_vars:
                    seen_vars.append(v)
        triples = [(e.src, e.dst, e.label) for e in qedges]
        if not allow_template and len(set(triples)) != len(triples):
            raise QueryValidationError("duplicate identical query edge")
        self.edges: tuple[QEdge, ...] = tuple(qedges)
        self.vars: tuple[str, ...] = tuple(seen_vars)
        if not indices_connected(self, range(len(self.edges))):
            raise QueryValidationError("query graph is disconnected")

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"QueryGraph({len(self.vars)} vars, {len(self.edges)} edges)"

    def edge_vars(self, index: int) -> tuple[str, str]:
        return self.edges[index].vars()

    def vars_of(self, indices: Iterable[int]) -> frozenset[str]:
        out: set[str] = set()
        for i in indices:
            out.add(self.edges[i].src)
            out.add(self.edges[i].dst)
        return frozenset(out)

    @cached_property
    def var_bits(self) -> dict[str, int]:
        """Each variable's bit in the masks of degree tables and attribute-subset
        graphs, in sorted name order."""
        return {v: 1 << i for i, v in enumerate(sorted(self.vars))}

    @cached_property
    def ceg_plans(self) -> dict:
        """Plans of this query, which read no catalogue and keep no statistic:
        its statistics plan under ("stats", h) (`catalogue.stats_plan`), which
        the max-degree graph reads as it is, and an optimistic graph's under
        (h, closing, starts)."""
        return {}

    def edge_adjacency(self) -> tuple[frozenset[int], ...]:
        """adjacency over edge indices: i ~ j iff the edges share a variable."""
        return self._edge_adjacency

    @cached_property
    def _edge_adjacency(self) -> tuple[frozenset[int], ...]:
        by_var: dict[str, list[int]] = {}
        for i, e in enumerate(self.edges):
            by_var.setdefault(e.src, []).append(i)
            by_var.setdefault(e.dst, []).append(i)
        adj: list[set[int]] = [set() for _ in self.edges]
        for members in by_var.values():
            for i in members:
                for j in members:
                    if i != j:
                        adj[i].add(j)
        return tuple(frozenset(a) for a in adj)

    def with_labels(self, labels: Sequence[str]) -> "QueryGraph":
        if len(labels) != len(self.edges):
            raise QueryValidationError("label list length mismatch")
        return QueryGraph([QEdge(e.src, e.dst, lab) for e, lab in zip(self.edges, labels)])

    def to_text(self) -> str:
        return "".join(f"{e.src} -{e.label}-> {e.dst}\n" for e in self.edges)


@dataclass(frozen=True)
class CycleSet:
    cycles: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def longer_than(self, h: int) -> tuple[frozenset[int], ...]:
        return tuple(c for c in self.cycles if len(c) > h)


def index_pattern(q: QueryGraph, indices: Iterable[int]) -> tuple[tuple[str, str, str], ...]:
    """Sorted (src, dst, label) triples of q's edges at `indices`; no
    connectivity check, for index sets already grown connected."""
    return tuple(sorted((q.edges[i].src, q.edges[i].dst, q.edges[i].label) for i in indices))


def indices_connected(q: QueryGraph, indices: Iterable[int]) -> bool:
    """Whether the edges of q at `indices` (valid edge indices) form one non-empty component."""
    idx = set(indices)
    if not idx:
        return False
    adj = q.edge_adjacency()
    start = min(idx)
    seen = {start}
    stack = [start]
    while stack:
        for j in adj[stack.pop()]:
            if j in idx and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen == idx


def parse_query(text: str | Iterable[str], allow_template: bool = False) -> QueryGraph:
    """Parse arrow notation, one `aX -LABEL-> aY` edge per line."""
    lines = text.splitlines() if isinstance(text, str) else list(text)
    qedges: list[QEdge] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            left, rest = line.split("-", 1)
            label, right = rest.rsplit("->", 1)
        except ValueError:
            raise QueryParseError(f"expected `aX -LABEL-> aY`, got {line!r}", line_no) from None
        src, label, dst = left.strip(), label.strip(), right.strip()
        if not src or not label or not dst or " " in label:
            raise QueryParseError(f"expected `aX -LABEL-> aY`, got {line!r}", line_no)
        qedges.append(QEdge(src, dst, label))
    return QueryGraph(qedges, allow_template=allow_template)


def parse_query_file(path: str, allow_template: bool = False) -> QueryGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_query(handle.read(), allow_template=allow_template)


def subsets(items: Iterable) -> list[tuple]:
    """Every subset of `items` as a tuple in input order, sorted by (size, tuple)."""
    out: list[tuple] = [()]
    for item in items:
        out += [s + (item,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def connected_index_sets(q: QueryGraph, max_edges: int) -> list[frozenset[int]]:
    """All connected edge-index sets of size <= max_edges, grown one edge at a time.

    Deterministic order: lexicographic on sorted index tuples.
    """
    if max_edges < 1:
        raise QueryValidationError("max_edges must be >= 1")
    adj = q.edge_adjacency()
    level: set[frozenset[int]] = {frozenset({i}) for i in range(len(q.edges))}
    found: set[frozenset[int]] = set(level)
    for _ in range(2, max_edges + 1):
        grown: set[frozenset[int]] = set()
        for s in level:
            reachable: set[int] = set()
            for i in s:
                reachable |= adj[i]
            for j in reachable - s:
                grown.add(s | {j})
        grown -= found
        if not grown:
            break
        found |= grown
        level = grown
    return sorted(found, key=lambda s: tuple(sorted(s)))


def cycles(q: QueryGraph) -> CycleSet:
    """All simple cycles of the undirected query multigraph, as edge-index sets.

    Each cycle is anchored at its minimum edge index and recovered by a DFS
    over simple paths, so every cycle is produced exactly once.
    """
    incidence: dict[str, list[tuple[int, str]]] = {v: [] for v in q.vars}
    for i, e in enumerate(q.edges):
        incidence[e.src].append((i, e.dst))
        incidence[e.dst].append((i, e.src))
    found: set[frozenset[int]] = set()

    def dfs(anchor: int, home: str, current: str, visited: frozenset[str], used: tuple[int, ...]):
        for idx, other in incidence[current]:
            if idx <= anchor or idx in used:
                continue
            if other == home:
                found.add(frozenset(used + (idx,)))
            elif other not in visited:
                dfs(anchor, home, other, visited | {other}, used + (idx,))

    for anchor, e in enumerate(q.edges):
        dfs(anchor, e.src, e.dst, frozenset({e.dst}), (anchor,))
    ordered = sorted(found, key=lambda c: (len(c), tuple(sorted(c))))
    return CycleSet(tuple(ordered))


def instantiate_template(
    template: QueryGraph,
    g: LabeledGraph,
    seed: int,
    mode: str = "uniform-labels",
    time_limit: float = 30.0,
    attempts: int = 100,
) -> QueryGraph | None:
    """Turn a template (labels `?`) into a non-empty concrete query instance.

    uniform-labels: each unassigned edge gets a label uniformly at random,
    retried until the instance has at least one match or the attempt budget
    runs out.  edge-at-a-time: grows a random embedding in the data graph and
    labels each `?` edge with the matched data edge's label (non-empty by
    construction; a fixed label limits its edge's matches to that label),
    drawing at most MAX_EMBED_DRAWS embeddings, so the result depends on the
    seed alone; `time_limit` (seconds) is only a safety stop checked before
    each draw.  Returns None on failure.
    """
    from .oracle import count_hom

    rng = random.Random(seed)
    if mode == "uniform-labels":
        labels = list(g.labels)
        if not labels:
            return None
        for _ in range(attempts):
            chosen = [e.label if e.label != TEMPLATE_LABEL else rng.choice(labels)
                      for e in template.edges]
            try:
                candidate = template.with_labels(chosen)
            except QueryValidationError:
                continue
            if count_hom(g, candidate).value > 0:
                return candidate
        return None
    if mode == "edge-at-a-time":
        return _embed_template(template, g, rng, time_limit)
    raise ValueError(f"unknown instantiation mode {mode!r}")


def _embed_template(template: QueryGraph, g: LabeledGraph,
                    rng: random.Random, time_limit: float) -> QueryGraph | None:
    # a `?` edge may match any label, a fixed one only its own; an edge with
    # neither end bound yet is drawn by index over its labels' triples
    labels_of = [g.labels if e.label == TEMPLATE_LABEL else (e.label,) for e in template.edges]
    firsts = {lab: RankedEdges(g, None if lab == TEMPLATE_LABEL else lab)
              for lab in {e.label for e in template.edges}}
    if not all(firsts.values()):
        return None
    adj = template.edge_adjacency()
    deadline = time.monotonic() + time_limit
    m = len(template.edges)
    for _ in range(MAX_EMBED_DRAWS):
        if time.monotonic() >= deadline:
            return None
        binding: dict[str, int] = {}
        labels = [TEMPLATE_LABEL] * m
        for idx in _random_connected_order(adj, rng, m):
            e = template.edges[idx]
            su, sv = binding.get(e.src), binding.get(e.dst)
            if su is None and sv is None:
                first = firsts[e.label]
                binding[e.src], binding[e.dst], labels[idx] = first[rng.randrange(len(first))]
                continue
            if su is not None and sv is not None:
                cand = [(lab, sv) for lab in labels_of[idx] if g.has_edge(su, sv, lab)]
            elif su is not None:
                cand = [(lab, w) for lab in labels_of[idx] for w in g.out_neighbors(su, lab)]
            else:
                cand = [(lab, w) for lab in labels_of[idx] for w in g.in_neighbors(sv, lab)]
            if not cand:
                break
            labels[idx], w = cand[rng.randrange(len(cand))]
            binding[e.src if su is None else e.dst] = w
        else:
            try:
                return template.with_labels(labels)
            except QueryValidationError:
                pass  # duplicate edge after labeling; resample
    return None


def _random_connected_order(adj: Sequence[frozenset[int]], rng: random.Random, m: int) -> list[int]:
    first = rng.randrange(m)
    order = [first]
    present = {first}
    while len(order) < m:
        frontier = sorted({j for i in present for j in adj[i]} - present)
        nxt = frontier[rng.randrange(len(frontier))]
        order.append(nxt)
        present.add(nxt)
    return order
