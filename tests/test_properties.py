"""Properties on small random graphs and connected queries, with the truth from
the nested-loop join in `oracles`, never from the library's matcher."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cardest.catalogue import (QueryStats, _rows_table, _key_to_query,  # noqa: E402
                               build_catalogue)
from cardest.errors import SketchPlanError  # noqa: E402
from cardest.estgraph import build_cover, build_maxdeg, iter_paths, min_weight_path  # noqa: E402
from cardest.estimators import estimate_molp  # noqa: E402
from cardest.graphstore import LabeledGraph  # noqa: E402
from cardest.oracle import count_hom, matches  # noqa: E402
from cardest.querymodel import (QEdge, QueryGraph, connected_index_sets,  # noqa: E402
                                parse_query)
from cardest.sketch import make_sketch, partition_catalogues  # noqa: E402

from oracles import brute_deg_table, nested_loop_count, nested_loop_matches  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
GRAPH_LABELS = "AB"
QUERY_LABELS = "ABABZ"   # one edge in five labelled Z, which labels no data edge


@st.composite
def graphs(draw, max_vertices: int = 6, min_edges: int = 0, max_edges: int = 14) -> LabeledGraph:
    """Edges over A and B; self-loops and both directions allowed."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    return LabeledGraph(draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(GRAPH_LABELS)),
                                      min_size=min_edges, max_size=max_edges)))


@st.composite
def queries(draw, max_edges: int = 6, labels: str = QUERY_LABELS) -> QueryGraph:
    """A connected query grown edge by edge: each edge leaves a variable already
    used, towards a new variable (pendant edges) or an old one (cycles, and two
    edges on one variable pair), in either direction."""
    edges: list[QEdge] = []
    n_vars = 1
    for _ in range(draw(st.integers(1, max_edges))):
        u = draw(st.integers(0, n_vars - 1))
        v = draw(st.integers(0, n_vars))
        if v == u:
            v = n_vars
        n_vars = max(n_vars, v + 1)
        src, dst = (u, v) if draw(st.booleans()) else (v, u)
        edge = QEdge(f"v{src}", f"v{dst}", draw(st.sampled_from(labels)))
        if edge not in edges:
            edges.append(edge)
    return QueryGraph(edges)


TRIANGLE_WITH_PARALLEL = LabeledGraph([(0, 1, "A"), (1, 2, "B"), (2, 0, "A"), (1, 0, "B"),
                                       (0, 0, "A"), (2, 2, "B"), (1, 3, "A")])
# every ordered pair of distinct vertices of four over A, the increasing ones
# over B, and a self-loop: most queries over A and B have matches here
DENSE = LabeledGraph([(u, v, "A") for u in range(4) for v in range(4) if u != v]
                     + [(u, v, "B") for u in range(4) for v in range(u + 1, 4)]
                     + [(2, 2, "A")])


@SETTINGS
@given(g=graphs(min_edges=6, max_edges=18), q=queries())
@example(g=TRIANGLE_WITH_PARALLEL, q=parse_query("a -A-> b\nb -B-> c\nc -A-> a"))
@example(g=TRIANGLE_WITH_PARALLEL, q=parse_query("a -A-> b\nb -B-> a\nb -A-> c\nb -B-> d"))
@example(g=TRIANGLE_WITH_PARALLEL, q=parse_query("a -A-> b\na -B-> b\nb -A-> c"))
@example(g=TRIANGLE_WITH_PARALLEL, q=parse_query("a -A-> b\nb -Z-> c\nc -A-> d"))
# B is the smaller relation of DENSE, so the counting plan scans the first
# edge labelled B; then the last variable folds into the intersection of:
# two bound neighbours' lists (d, on a 4-cycle)
@example(g=DENSE, q=parse_query("a -A-> b\nb -B-> c\nc -A-> d\nd -B-> a"))
# three (d, on a 4-cycle with the chord b -> d)
@example(g=DENSE, q=parse_query("a -B-> b\nb -A-> c\nc -A-> d\nd -A-> a\nb -A-> d"))
# three (a, on K4 minus the edge c - d)
@example(g=DENSE, q=parse_query("b -B-> c\nb -A-> d\na -A-> b\na -A-> c\na -A-> d"))
# three, two of them labels on one variable pair that close the cycle (c)
@example(g=DENSE, q=parse_query("a -B-> b\nb -A-> c\nc -A-> a\nc -B-> a"))
# three, two of them an antiparallel pair (c)
@example(g=DENSE, q=parse_query("a -B-> b\nb -A-> c\nc -A-> a\na -A-> c"))
def test_matcher_equals_nested_loop_join(g, q):
    assert count_hom(g, q).value == nested_loop_count(g, q)
    assert sorted(matches(g, q)) == sorted(nested_loop_matches(g, q))


@SETTINGS
@given(g=graphs(), q=queries())
# a same-label path whose ends bind one vertex on the 2-cycle 0 -> 1 -> 0
@example(g=LabeledGraph([(0, 1, "A"), (1, 0, "A"), (1, 2, "A")]),
         q=parse_query("a -A-> m\nm -A-> c"))
# a middle vertex with a self-loop, so a and m bind one vertex
@example(g=LabeledGraph([(0, 0, "A"), (2, 0, "A"), (0, 1, "B")]),
         q=parse_query("a -A-> m\nm -B-> c"))
# no data edge is labelled Z: the all-zero table
@example(g=TRIANGLE_WITH_PARALLEL, q=parse_query("a -A-> b\nb -Z-> c"))
def test_catalogue_tables_equal_nested_loop_tables(g, q):
    cat = build_catalogue(g, [q], 2, walk_budget=10)
    for key, table in cat.deg_stats.items():
        rep = _key_to_query(key)
        assert table == brute_deg_table(g, rep)
        assert list(table) == list(_rows_table(rep, set(matches(g, rep))))
        assert cat.counts[key] == nested_loop_count(g, rep)


@settings(SETTINGS, max_examples=100)
@given(g=graphs(min_edges=6), q=queries(max_edges=5), h=st.integers(2, 3))
def test_molp_bound_is_at_least_the_truth(g, q, h):
    cat = build_catalogue(g, [q], h, walk_budget=10)
    assert estimate_molp(q, cat).exact >= nested_loop_count(g, q)


@settings(SETTINGS, max_examples=100)
@given(g=graphs(min_edges=6), q=queries(max_edges=5, labels=GRAPH_LABELS), data=st.data())
def test_bound_path_is_the_first_lightest_smallest_path_in_enumeration(g, q, data):
    # the path a sketch partitions on: min_weight_path must return the same
    # edges as enumeration, not only the same weight; on the max-degree graph,
    # and on a cover graph when the drawn cover spans q
    assume(len(q.vars) <= 4)
    cat = build_catalogue(g, [q], 2, walk_budget=10)
    ceg = build_maxdeg(q, cat)
    assume(all(deg for _, _, deg, _ in ceg.moves))   # every pattern has matches
    cover = [(i, data.draw(st.sampled_from([e.vars(), (e.src,), (e.dst,)])))
             for i, e in enumerate(q.edges)]
    cegs = [ceg]
    if {v for _, attrs in cover for v in attrs} == set(q.vars):
        cegs.append(build_cover(q, cat, cover))
    for graph in cegs:
        want = min(iter_paths(graph), key=lambda p: (p.estimate,
                                                     [tuple(sorted(v)) for v in p.vertices()]))
        assert min_weight_path(graph).edges == want.edges


@settings(SETTINGS, max_examples=100)
@given(g=graphs(max_vertices=8, min_edges=10, max_edges=30),
       q=queries(max_edges=5, labels=GRAPH_LABELS))
def test_sketch_components_sum_to_the_truth(g, q):
    path = estimate_molp(q, build_catalogue(g, [q], 2, walk_budget=10)).chosen_path
    try:
        _, components = make_sketch(q, g, path, k=4)
    except SketchPlanError:
        return
    assert sum(nested_loop_count(c.graph, c.query) for c in components) \
        == nested_loop_count(g, q)


@settings(SETTINGS, max_examples=100)
@given(g=graphs(max_vertices=8, min_edges=10, max_edges=30),
       q=queries(max_edges=5, labels=GRAPH_LABELS), k=st.sampled_from([4, 9]),
       seed=st.integers(0, 7), h=st.sampled_from([2, 3]))
def test_grouped_statistics_equal_component_catalogues(g, q, k, seed, h):
    # h=2 reads only split adjacency maps (bar antiparallel pairs); h=3 also
    # groups the match rows of three-edge index sets
    path = estimate_molp(q, build_catalogue(g, [q], h, walk_budget=10)).chosen_path
    try:
        plan, components = make_sketch(q, g, path, k=k, seed=seed)
    except SketchPlanError:
        return
    grouped = partition_catalogues(q, h, [dict(zip(plan.attrs, c.index)) for c in components],
                                   plan.buckets)
    for comp, got in zip(components, grouped):
        want = QueryStats(comp.query, build_catalogue(comp.graph, [comp.query], h, walk_budget=10))
        for s in connected_index_sets(q, h):
            assert (got.count(s), got.degrees(s)) == (want.count(s), want.degrees(s))
