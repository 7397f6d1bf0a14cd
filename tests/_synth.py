"""Synthetic graphs and workloads for property and acceptance tests."""

from __future__ import annotations

import random

from cardest.graphstore import LabeledGraph
from cardest.querymodel import (QEdge, QueryGraph, connected_index_sets,
                                instantiate_template)

DEFAULT_LABELS = ["A", "B", "C", "D", "E", "F", "G", "H"]


def random_graph(n_vertices: int, n_edges: int, n_labels: int, seed: int,
                 plant_cycles: int = 0) -> LabeledGraph:
    rng = random.Random(seed)
    labels = DEFAULT_LABELS[:n_labels]
    edges: set[tuple[int, int, str]] = set()
    for _ in range(plant_cycles):
        length = rng.randint(3, 6)
        ring = rng.sample(range(n_vertices), length)
        for i in range(length):
            edges.add((ring[i], ring[(i + 1) % length],
                       labels[rng.randrange(n_labels)]))
    guard = 0
    while len(edges) < n_edges and guard < 50 * n_edges:
        guard += 1
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v:
            continue
        edges.add((u, v, labels[rng.randrange(n_labels)]))
    return LabeledGraph(edges)


# ---------------------------------------------------------------------------
# Query templates (labels '?')
# ---------------------------------------------------------------------------

def path_template(k: int) -> QueryGraph:
    return QueryGraph([QEdge(f"a{i}", f"a{i+1}", "?") for i in range(k)],
                      allow_template=True)


def star_template(k: int, out: bool = True) -> QueryGraph:
    edges = [QEdge("a0", f"a{i+1}", "?") if out else QEdge(f"a{i+1}", "a0", "?")
             for i in range(k)]
    return QueryGraph(edges, allow_template=True)


def tree_template(k: int, seed: int, max_branch: int = 3) -> QueryGraph:
    rng = random.Random(seed)
    edges: list[QEdge] = []
    out_degree = {0: 0}
    for i in range(1, k + 1):
        candidates = [v for v, d in out_degree.items() if d < max_branch]
        parent = candidates[rng.randrange(len(candidates))]
        if rng.random() < 0.5:
            edges.append(QEdge(f"a{parent}", f"a{i}", "?"))
        else:
            edges.append(QEdge(f"a{i}", f"a{parent}", "?"))
        out_degree[parent] = out_degree.get(parent, 0) + 1
        out_degree[i] = 0
    return QueryGraph(edges, allow_template=True)


def cycle_template(k: int) -> QueryGraph:
    edges = [QEdge(f"a{i}", f"a{(i+1) % k}", "?") for i in range(k)]
    return QueryGraph(edges, allow_template=True)


def cycle_tail_template(k: int, tail: int) -> QueryGraph:
    edges = [QEdge(f"a{i}", f"a{(i+1) % k}", "?") for i in range(k)]
    edges += [QEdge(f"a{k + i - 1}" if i > 0 else "a0", f"a{k+i}", "?")
              for i in range(tail)]
    return QueryGraph(edges, allow_template=True)


def anchored_path_bound(template: QueryGraph, h: int) -> int:
    """Upper bound on anchored optimistic path counts (parallel edges unmerged)."""
    m = len(template.edges)
    subs = connected_index_sets(template, m)
    sub_set = set(subs)
    start_size = min(h, m)
    start = min((s for s in subs if len(s) == start_size), key=lambda s: tuple(sorted(s)))
    ext_patterns = [s for s in subs if len(s) <= h]
    top = frozenset(range(m))
    counts = {start: 1}
    for s in sorted(subs, key=lambda s: (len(s), tuple(sorted(s)))):
        if s not in counts or s == top:
            continue
        for ext in ext_patterns:
            diff = ext - s
            inter = ext & s
            if not diff or not inter:
                continue
            target = s | diff
            if target not in sub_set or inter not in sub_set:
                continue
            if len(ext) != min(h, len(target)):
                continue
            counts[target] = counts.get(target, 0) + counts[s]
    return counts.get(top, 0)


TEMPLATE_POOL = [
    # (name, template, cyclic)
    ("path3", path_template(3), False),
    ("path4", path_template(4), False),
    ("path5", path_template(5), False),
    ("path6", path_template(6), False),
    ("path8", path_template(8), False),
    ("star3", star_template(3), False),
    ("star4", star_template(4, out=False), False),
    ("tree5", tree_template(5, seed=11), False),
    ("tree6", tree_template(6, seed=23), False),
    ("tree7", tree_template(7, seed=37), False),
    ("triangle", cycle_template(3), True),
    ("square", cycle_template(4), True),
    ("pentagon", cycle_template(5), True),
    ("hexagon", cycle_template(6), True),
    ("square-tail2", cycle_tail_template(4, 2), True),
    ("triangle-tail3", cycle_tail_template(3, 3), True),
]


def make_instances(seed: int, n_graphs: int, per_graph: int,
                   vertices=(50, 120), edges=(120, 350), labels=(5, 8),
                   path_bound: int = 20000, h: int = 2):
    """(graph, [(id, template-name, query)]) pairs with non-empty instances.

    Acyclic templates get uniform random labels (retried until non-empty);
    cyclic templates are matched edge-at-a-time against planted cycles so the
    workload keeps a healthy cyclic share.
    """
    rng = random.Random(seed)
    pool = [(name, tpl, cyc) for name, tpl, cyc in TEMPLATE_POOL
            if anchored_path_bound(tpl, h) <= path_bound]
    out = []
    for gi in range(n_graphs):
        g = random_graph(rng.randint(*vertices), rng.randint(*edges),
                         rng.randint(*labels), seed=seed * 1000 + gi,
                         plant_cycles=18)
        queries = []
        tries = 0
        while len(queries) < per_graph and tries < per_graph * 30:
            tries += 1
            name, tpl, cyc = pool[rng.randrange(len(pool))]
            if cyc:
                inst = instantiate_template(tpl, g, seed=rng.randrange(1 << 30),
                                            mode="edge-at-a-time")
            else:
                inst = instantiate_template(tpl, g, seed=rng.randrange(1 << 30),
                                            mode="uniform-labels", attempts=40)
            if inst is not None:
                queries.append((f"g{gi:02d}q{len(queries):03d}", name, inst))
        out.append((g, queries))
    return out


# ---------------------------------------------------------------------------
# Correlated graph with planted stars and 4-cycles
# ---------------------------------------------------------------------------

def correlated_graph(seed: int, target_edges: int = 12000) -> LabeledGraph:
    rng = random.Random(seed)
    edges: set[tuple[int, int, str]] = set()
    next_vertex = 0

    def fresh() -> int:
        nonlocal next_vertex
        next_vertex += 1
        return next_vertex - 1

    hubs = [fresh() for _ in range(220)]
    star_labels = ("S1", "S2", "S3")
    for hub in hubs:
        for lab in star_labels:
            for _ in range(rng.randint(2, 9)):
                edges.add((hub, fresh(), lab))

    cycle_labels = ("C1", "C2", "C3", "C4")
    ring = [fresh() for _ in range(400)]
    for _ in range(900):
        vs = [ring[rng.randrange(len(ring))] for _ in range(4)]
        if len(set(vs)) < 4:
            continue
        closing = rng.random() < 0.45
        edges.add((vs[0], vs[1], "C1"))
        edges.add((vs[1], vs[2], "C2"))
        edges.add((vs[2], vs[3], "C3"))
        if closing:
            edges.add((vs[3], vs[0], "C4"))

    background = [f"B{i}" for i in range(1, 11)]
    pool = hubs + ring + [fresh() for _ in range(800)]
    guard = 0
    while len(edges) < target_edges and guard < 40 * target_edges:
        guard += 1
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        if u != v:
            edges.add((u, v, background[rng.randrange(len(background))]))
    return LabeledGraph(edges)
