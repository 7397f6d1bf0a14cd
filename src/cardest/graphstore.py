"""Edge-labeled directed graphs viewed as a set of binary relations.

A graph is loaded once from an edge-list stream, fully indexed, and then
treated as immutable.  Every edge label doubles as a binary relation whose
tuples are the (src, dst) pairs carrying that label.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import IO, Iterable, Iterator

from .errors import GraphParseError

SRC = "src"
DST = "dst"


class LabeledGraph:
    """Immutable edge-labeled directed graph with per-label adjacency indexes."""

    def __init__(self, edges: Iterable[tuple[int, int, str]]):
        edge_set: set[tuple[int, int, str]] = set(edges)
        vertices: set[int] = set()
        out_index: dict[str, dict[int, list[int]]] = {}
        in_index: dict[str, dict[int, list[int]]] = {}
        for src, dst, label in edge_set:
            vertices.add(src)
            vertices.add(dst)
            out_index.setdefault(label, {}).setdefault(src, []).append(dst)
            in_index.setdefault(label, {}).setdefault(dst, []).append(src)
        for index in (out_index, in_index):
            for adjacency in index.values():
                for neighbors in adjacency.values():
                    neighbors.sort()
        self.edges = frozenset(edge_set)
        self.vertices = frozenset(vertices)
        self.labels = tuple(sorted(out_index))
        self._out = out_index
        self._in = in_index
        self._label_counts = {
            label: sum(len(v) for v in out_index[label].values()) for label in self.labels
        }

    def __repr__(self) -> str:
        return f"LabeledGraph(|V|={len(self.vertices)}, |E|={len(self.edges)}, labels={len(self.labels)})"

    def out_neighbors(self, vertex: int, label: str) -> list[int]:
        return self._out.get(label, {}).get(vertex, [])

    def in_neighbors(self, vertex: int, label: str) -> list[int]:
        return self._in.get(label, {}).get(vertex, [])

    def adjacency(self, label: str, position: str) -> dict[int, list[int]]:
        """Sorted neighbours over `label` keyed by the vertex at `position`:
        out-neighbours by src (SRC), in-neighbours by dst (DST).  Read-only."""
        return (self._out if position == SRC else self._in).get(label, {})

    def has_edge(self, src: int, dst: int, label: str) -> bool:
        return (src, dst, label) in self.edges

    def label_count(self, label: str) -> int:
        return self._label_counts.get(label, 0)

    def edges_with_label(self, label: str) -> Iterator[tuple[int, int]]:
        for src in sorted(self._out.get(label, {})):
            for dst in self._out[label][src]:
                yield (src, dst)

    def sorted_edges(self) -> list[tuple[int, int, str]]:
        return sorted(self.edges)

    @cached_property
    def sha256(self) -> str:
        """Digest of the canonical edge-list text (`dump_graph`), computed once."""
        return hashlib.sha256(dump_graph(self).encode("utf-8")).hexdigest()


def load_graph(source: IO[str] | Iterable[str]) -> LabeledGraph:
    """Parse an edge-list stream: one `src dst label` triple per line.

    Blank lines and `#` comment lines are ignored; duplicate triples collapse
    to one edge.  Vertex ids must be non-negative integers.
    """
    edges = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError(f"expected `src dst label`, got {line!r}", line_no)
        src_txt, dst_txt, label = parts
        try:
            src = int(src_txt)
            dst = int(dst_txt)
        except ValueError:
            raise GraphParseError(f"vertex ids must be integers, got {line!r}", line_no) from None
        if src < 0 or dst < 0:
            raise GraphParseError(f"vertex ids must be non-negative, got {line!r}", line_no)
        edges.append((src, dst, label))
    return LabeledGraph(edges)


def load_graph_file(path: str) -> LabeledGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return load_graph(handle)


def dump_graph(graph: LabeledGraph) -> str:
    """Serialize a graph back to edge-list text (sorted, hence canonical)."""
    return "".join(f"{s} {d} {label}\n" for s, d, label in graph.sorted_edges())

