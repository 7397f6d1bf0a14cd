"""Seeded inputs for the benchmark: one correlated graph and three workloads.

Everything here depends on the seed alone.  Nothing reads the clock, and
nothing imports the library, so edits to the library or to its test helpers
cannot move the inputs.  The seed draws the graph and the concrete labels of
each query; the query shapes and the role of each label (background, star or
cycle) are the same for every seed, so a workload does nearly the same work
whatever the seed.  The outputs are plain text in the library's own formats:
`src dst label` edge lines, and workload blocks of `aX -LABEL-> aY` lines with
`# id:` / `# template:` headers.
"""

from __future__ import annotations

import hashlib
import random

Template = tuple[tuple[str, str], ...]   # (srcVar, dstVar) per query edge
Edge = tuple[int, int, str]


# ---------------------------------------------------------------------------
# The graph: planted out-stars, planted 4-cycles, uniform background edges
# ---------------------------------------------------------------------------

def correlated_graph(seed: int, target_edges: int = 12000) -> list[Edge]:
    """Sorted edge list; at seed 5 it has 5,063 vertices and 17 labels."""
    rng = random.Random(seed)
    edges: set[Edge] = set()
    next_vertex = 0

    def fresh() -> int:
        nonlocal next_vertex
        next_vertex += 1
        return next_vertex - 1

    hubs = [fresh() for _ in range(220)]
    for hub in hubs:
        for lab in ("S1", "S2", "S3"):
            for _ in range(rng.randint(2, 9)):
                edges.add((hub, fresh(), lab))

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
    return sorted(edges)


def graph_text(edges: list[Edge]) -> str:
    return "".join(f"{s} {d} {lab}\n" for s, d, lab in edges)


# ---------------------------------------------------------------------------
# Query shapes (unlabelled templates)
# ---------------------------------------------------------------------------

def path_template(k: int) -> Template:
    return tuple((f"a{i}", f"a{i + 1}") for i in range(k))


def star_template(k: int, out: bool = True) -> Template:
    return tuple(("a0", f"a{i + 1}") if out else (f"a{i + 1}", "a0") for i in range(k))


def tree_template(k: int, seed: int, max_branch: int = 3) -> Template:
    """Random tree with k edges; each edge points away from or toward its parent."""
    rng = random.Random(seed)
    edges: list[tuple[str, str]] = []
    out_degree = {0: 0}
    for i in range(1, k + 1):
        candidates = [v for v, d in out_degree.items() if d < max_branch]
        parent = candidates[rng.randrange(len(candidates))]
        if rng.random() < 0.5:
            edges.append((f"a{parent}", f"a{i}"))
        else:
            edges.append((f"a{i}", f"a{parent}"))
        out_degree[parent] = out_degree.get(parent, 0) + 1
        out_degree[i] = 0
    return tuple(edges)


def cycle_template(k: int) -> Template:
    return tuple((f"a{i}", f"a{(i + 1) % k}") for i in range(k))


def cycle_tail_template(k: int, tail: int) -> Template:
    edges = list(cycle_template(k))
    edges += [(f"a{k + i - 1}" if i > 0 else "a0", f"a{k + i}") for i in range(tail)]
    return tuple(edges)


TEMPLATES: dict[str, Template] = {
    "path4": path_template(4),
    "star4": star_template(4, out=False),
    "tree5": tree_template(5, seed=11),
    "cycle4": cycle_template(4),
    "cycle5": cycle_template(5),
    "star5": star_template(5),
    "star6": star_template(6),
    "tree7": tree_template(7, seed=23),
    "tree8": tree_template(8, seed=23),
    "hexagon": cycle_template(6),
    "square-tail2": cycle_tail_template(4, 2),
}

# workload name -> (template, count) in generation order
WORKLOAD_MIX: dict[str, tuple[tuple[str, int], ...]] = {
    "eval-h2": (("path4", 6), ("star4", 6), ("tree5", 6), ("cycle4", 6), ("cycle5", 6)),
    "estimate-warm": (("star5", 6), ("star6", 6), ("tree7", 6), ("tree8", 6),
                      ("hexagon", 6), ("square-tail2", 6)),
    "sketch-k4": (("path4", 3), ("star4", 3), ("tree5", 3), ("cycle4", 3)),
}


# ---------------------------------------------------------------------------
# Labelling templates: a reference plan, renamed per seed
# ---------------------------------------------------------------------------

REFERENCE_SEED = 5
RELABEL_ATTEMPTS = 2000
# labels that play the same role in the graph: background and star labels
EXCHANGEABLE = (tuple(f"B{i}" for i in range(1, 11)), ("S1", "S2", "S3"))


class EmbeddingError(RuntimeError):
    """The attempt budget ran out before a template embedded."""


class _Adjacency:
    def __init__(self, edges: list[Edge]):
        self.edges = edges
        self.out: dict[int, list[tuple[str, int]]] = {}
        self.inc: dict[int, list[tuple[str, int]]] = {}
        self.between: dict[tuple[int, int], list[str]] = {}
        self.by_label: dict[str, list[tuple[int, int]]] = {}
        for s, d, lab in edges:              # edges are sorted, so lists are too
            self.by_label.setdefault(lab, []).append((s, d))
            self.out.setdefault(s, []).append((lab, d))
            self.inc.setdefault(d, []).append((lab, s))
            self.between.setdefault((s, d), []).append(lab)


def _connected_order(template: Template, rng: random.Random) -> list[int]:
    m = len(template)
    order = [rng.randrange(m)]
    bound = set(template[order[0]])
    while len(order) < m:
        frontier = [i for i in range(m) if i not in order
                    and (template[i][0] in bound or template[i][1] in bound)]
        pick = frontier[rng.randrange(len(frontier))]
        order.append(pick)
        bound.update(template[pick])
    return order


def embed(template: Template, adj: _Adjacency, rng: random.Random,
          attempts: int = 200_000) -> list[str]:
    """Labels of one random embedding of `template`, so the query is non-empty.

    Each attempt grows an embedding edge by edge along the template's
    directions; a dead end costs one attempt.  The budget is a count, never a
    deadline, so a slow machine gets the same labels as a fast one.
    """
    for _ in range(attempts):
        binding: dict[str, int] = {}
        labels: list[str | None] = [None] * len(template)
        for idx in _connected_order(template, rng):
            u, v = template[idx]
            bu, bv = binding.get(u), binding.get(v)
            if bu is None and bv is None:
                s, d, lab = adj.edges[rng.randrange(len(adj.edges))]
                binding[u], binding[v] = s, d
                labels[idx] = lab
                continue
            if bu is not None and bv is not None:
                options = adj.between.get((bu, bv), [])
                if not options:
                    break
                labels[idx] = options[rng.randrange(len(options))]
                continue
            if bu is not None:
                options = adj.out.get(bu, [])
                free = v
            else:
                options = adj.inc.get(bv, [])
                free = u
            if not options:
                break
            lab, w = options[rng.randrange(len(options))]
            binding[free] = w
            labels[idx] = lab
        else:
            return labels
    raise EmbeddingError(f"no embedding of {template} in {attempts} attempts")


def _has_match(template: Template, labels: list[str], adj: _Adjacency) -> bool:
    """Whether the labelled template has at least one homomorphic match."""
    order = _connected_order(template, random.Random(0))

    def extend(depth: int, binding: dict[str, int]) -> bool:
        if depth == len(order):
            return True
        u, v = template[order[depth]]
        lab = labels[order[depth]]
        bu, bv = binding.get(u), binding.get(v)
        if bu is not None and bv is not None:
            return lab in adj.between.get((bu, bv), ()) and extend(depth + 1, binding)
        if bu is None and bv is None:
            pairs = adj.by_label.get(lab, [])
        elif bu is not None:
            pairs = [(bu, d) for el, d in adj.out.get(bu, ()) if el == lab]
        else:
            pairs = [(s, bv) for el, s in adj.inc.get(bv, ()) if el == lab]
        for s, d in pairs:
            if extend(depth + 1, {**binding, u: s, v: d}):
                return True
        return False

    return extend(0, {})


def uniform_labels(template: Template, adj: _Adjacency, rng: random.Random,
                   attempts: int = 100_000) -> list[str]:
    """Uniformly drawn labels, redrawn until the query has a match."""
    alphabet = sorted({lab for _, _, lab in adj.edges})
    for _ in range(attempts):
        labels = [alphabet[rng.randrange(len(alphabet))] for _ in template]
        if _has_match(template, labels, adj):
            return labels
    raise EmbeddingError(f"no non-empty labelling of {template} in {attempts} attempts")


def _is_cyclic(template: Template) -> bool:
    return len({v for edge in template for v in edge}) <= len(template)


def _sample(template: Template, adj: _Adjacency, rng: random.Random) -> list[str]:
    """Acyclic templates get uniform labels; cyclic ones are embedded, because
    uniform labels almost never close a cycle."""
    return (embed if _is_cyclic(template) else uniform_labels)(template, adj, rng)


def _reference_plan(name: str) -> list[tuple[str, Template, list[str]]]:
    """(template name, template, labels) of every query, sampled once on the
    graph of REFERENCE_SEED; the same for every benchmark seed."""
    rng = random.Random(f"{name}/reference")
    adj = _Adjacency(correlated_graph(REFERENCE_SEED))
    return [(tname, TEMPLATES[tname], _sample(TEMPLATES[tname], adj, rng))
            for tname, count in WORKLOAD_MIX[name] for _ in range(count)]


def _relabel(labels: list[str], rng: random.Random) -> list[str]:
    mapping: dict[str, str] = {}
    for group in EXCHANGEABLE:
        shuffled = list(group)
        rng.shuffle(shuffled)
        mapping.update(zip(group, shuffled))
    return [mapping.get(lab, lab) for lab in labels]


def workload_text(name: str, edges: list[Edge], seed: int) -> str:
    """Workload file text for `name` on the graph `edges` of `seed`.

    Every seed gets the same query shapes with the same label roles: the
    reference plan's labels, with the exchangeable ones (B*, S*) renamed by a
    seeded permutation, redrawn until the query has a match on this graph.
    Keeping the roles fixed keeps the work of a workload nearly the same from
    seed to seed, while the graph and the concrete labels change.  A query
    that no renaming makes non-empty is sampled afresh on this graph.
    """
    rng = random.Random(f"{name}/{seed}")
    adj = _Adjacency(edges)
    blocks: list[str] = [f"# workload: {name}\n# seed: {seed}\n"]
    made: dict[str, int] = {}
    for tname, template, reference in _reference_plan(name):
        i = made[tname] = made.get(tname, -1) + 1
        for _ in range(RELABEL_ATTEMPTS):
            labels = _relabel(reference, rng)
            if _has_match(template, labels, adj):
                break
        else:
            labels = _sample(template, adj, rng)
        lines = [f"# id: {tname}_{i:02d}", f"# template: {tname}"]
        lines += [f"{u} -{lab}-> {v}" for (u, v), lab in zip(template, labels)]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
