from __future__ import annotations

import gc
import hashlib
import io
import os
import random
import tracemalloc
from collections.abc import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardest.errors import GraphParseError
from cardest.graphstore import (DST, SRC, LabeledGraph, RankedEdges, dump_graph, load_graph,
                                load_graph_file)
from cardest.oracle import _CHECK, _plan, count_hom, matches
from cardest.querymodel import parse_query

import gen
from _synth import random_graph
from conftest import FIXTURES, fixture_path
from oracles import nested_loop_count, nested_loop_matches


def test_empty_stream():
    g = load_graph(io.StringIO(""))
    assert len(g.vertices) == 0
    assert len(g.edges) == 0


def test_duplicate_triples_collapse():
    g = load_graph(io.StringIO("1 2 A\n1 2 A\n"))
    assert len(g.edges) == 1
    assert len(g.vertices) == 2


def test_comments_and_whitespace():
    g = load_graph(io.StringIO("# header\n\n 3\t17  E \n"))
    assert g.has_edge(3, 17, "E")


def test_malformed_line_names_line_number():
    with pytest.raises(GraphParseError) as err:
        load_graph(io.StringIO("1 2 A\n1 2\n"))
    assert "line 2" in str(err.value)


def test_negative_vertex_rejected():
    with pytest.raises(GraphParseError):
        load_graph(io.StringIO("-1 2 A\n"))


def test_string_vertex_rejected():
    with pytest.raises(GraphParseError):
        load_graph(io.StringIO("x y A\n"))


def _max_degree(g, label: str, position: str) -> int:
    return max(map(len, g.adjacency(label, position).values()), default=0)


def test_per_label_sizes_match_line_scan():
    lines = ["1 2 A", "2 3 A", "3 4 B", "4 5 B", "5 6 B", "1 2 A",  # dup
             "6 7 C", "7 8 C", "8 9 C", "9 1 C"]
    g = load_graph(io.StringIO("\n".join(lines)))
    expected: dict[str, set] = {}
    for line in lines:
        s, d, lab = line.split()
        expected.setdefault(lab, set()).add((int(s), int(d)))
    for lab, tuples in expected.items():
        assert g.label_count(lab) == len(tuples)
        assert set(g.edges_with_label(lab)) == tuples


def test_relation_absent_label_empty():
    g = load_graph(io.StringIO("1 2 A\n"))
    assert g.label_count("Z") == 0
    assert list(g.edges_with_label("Z")) == []
    assert g.adjacency("Z", SRC) == {} and g.adjacency("Z", DST) == {}


def test_relation_sizes_sum_to_edge_count():
    g = random_graph(40, 150, 5, seed=3)
    assert sum(g.label_count(lab) for lab in g.labels) == len(g.edges)


def test_max_degree_identity_relation():
    g = load_graph(io.StringIO("".join(f"{i} {i} I\n" for i in range(1, 9))))
    assert _max_degree(g, "I", SRC) == 1
    assert _max_degree(g, "I", DST) == 1


def test_max_degree_star():
    g = load_graph(io.StringIO("".join(f"0 {i} S\n" for i in range(1, 6))))
    assert _max_degree(g, "S", SRC) == 5
    assert _max_degree(g, "S", DST) == 1


def test_max_degree_empty_relation():
    g = load_graph(io.StringIO("1 2 A\n"))
    assert _max_degree(g, "Z", SRC) == 0


def test_max_degree_matches_group_by_oracle():
    for trial in range(20):
        g = random_graph(15, 60, 3, seed=trial)
        for lab in g.labels:
            by_src: dict[int, list[int]] = {}
            by_dst: dict[int, list[int]] = {}
            for s, d in g.edges_with_label(lab):
                by_src.setdefault(s, []).append(d)
                by_dst.setdefault(d, []).append(s)
            assert g.adjacency(lab, SRC) == {s: sorted(ds) for s, ds in by_src.items()}
            assert g.adjacency(lab, DST) == {d: sorted(ss) for d, ss in by_dst.items()}
            assert _max_degree(g, lab, SRC) == max(map(len, by_src.values()))
            assert _max_degree(g, lab, DST) == max(map(len, by_dst.values()))


def test_pigeonhole_projection_bound():
    for trial in range(10):
        g = random_graph(20, 80, 4, seed=100 + trial)
        for lab in g.labels:
            pairs = list(g.edges_with_label(lab))
            srcs = {s for s, _ in pairs}
            dsts = {d for _, d in pairs}
            assert len(srcs) * _max_degree(g, lab, SRC) >= g.label_count(lab)
            assert len(dsts) * _max_degree(g, lab, DST) >= g.label_count(lab)


def test_load_is_idempotent_on_own_dump():
    g = random_graph(25, 90, 4, seed=11)
    text = dump_graph(g)
    g2 = load_graph(io.StringIO(text))
    assert g2.edges == g.edges
    assert dump_graph(g2) == text


def test_graph_digest_is_the_dump_digest_computed_once():
    g = random_graph(25, 90, 4, seed=12)
    assert "sha256" not in vars(g)
    assert g.sha256 == hashlib.sha256(dump_graph(g).encode("utf-8")).hexdigest()
    assert vars(g)["sha256"] == g.sha256   # cached on the immutable graph
    assert load_graph(io.StringIO(dump_graph(g))).sha256 == g.sha256


def test_bad_line_after_good_lines_names_its_line():
    lines = ["1 2 A", "3 4 B", "# comment", "", "5 x C", "6 7 A"]
    with pytest.raises(GraphParseError) as err:
        load_graph(iter(lines))
    assert err.value.line_no == 5 and "line 5" in str(err.value)


def test_ranked_edges_index_the_canonical_order():
    graphs = [load_graph_file(fixture_path(name)) for name in sorted(os.listdir(FIXTURES))
              if name.endswith(".edges")] + [random_graph(60, 400, 4, seed=3), LabeledGraph([])]
    for g in graphs:
        for label in (None, *g.labels, "Z"):
            ranked = RankedEdges(g, label)
            assert [ranked[i] for i in range(len(ranked))] == \
                [t for t in g.sorted_edges() if label in (None, t[2])]
            for i in (-1, len(ranked)):
                with pytest.raises(IndexError):
                    ranked[i]


def test_edges_is_a_read_only_set_view():
    g = load_graph(io.StringIO("1 2 A\n2 1 A\n1 2 B\n1 2 A\n"))
    assert isinstance(g.edges, Set) and not isinstance(g.edges, frozenset)
    with pytest.raises(TypeError):
        hash(g.edges)
    assert g.edges == {(1, 2, "A"), (2, 1, "A"), (1, 2, "B")}
    assert g.edges - {(1, 2, "B")} == frozenset({(1, 2, "A"), (2, 1, "A")})
    assert not hasattr(g.edges, "add")


def test_hub_membership_and_counts_through_a_check_step():
    hub, spokes = 7, range(1_000, 21_000, 2)   # 10,000 even neighbours
    rng = random.Random(3)
    probes = rng.sample(range(990, 21_010), 60)
    triples = [(hub, v, "H") for v in spokes] + [(hub, v, "A") for v in probes]
    triples += [(v, hub, "H") for v in probes[:10]] + [(8, 1_000, "H"), (8, 1_000, "A")]
    g = LabeledGraph(triples)
    present = set(spokes)
    assert len(g.out_neighbors(hub, "H")) == 10_000
    for v in list(probes) + [998, 999, 1_000, 1_001, 20_998, 20_999, 21_000, -1]:
        assert ((hub, v, "H") in g.edges) == g.has_edge(hub, v, "H") == (v in present)
    q = parse_query("a -A-> b\na -H-> b\n")
    assert any(step[0] == _CHECK and step[3] is g.adjacency("H", SRC)
               for step in _plan(g, q, fold=True))
    want = nested_loop_matches(g, q)
    assert sorted(matches(g, q)) == sorted(want)
    assert count_hom(g, q).value == nested_loop_count(g, q) == len(want)
    assert len(want) == sum(1 for v in probes if v in present) + 1


def test_load_memory_per_edge():
    """The store holds each edge once: about 180 B per edge retained after
    the load and 190 B at its peak, where a frozenset of triples beside the
    maps took about 395 and 492."""
    lines = dump_graph(LabeledGraph(gen.correlated_graph(1))).splitlines()
    gc.collect()
    tracemalloc.start()
    try:
        g = load_graph(lines)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = len(g.edges)
    assert edges == 12_000
    assert retained / edges <= 250, retained / edges
    assert peak / edges <= 275, peak / edges


vertex_ids = st.integers(0, 5) | st.integers(255, 260) | st.just(10**12)


@st.composite
def triple_lists(draw) -> list[tuple[int, int, str]]:
    """Triples over a few labels, with duplicates and antiparallel pairs."""
    triples = draw(st.lists(st.tuples(vertex_ids, vertex_ids, st.sampled_from("ABC")), max_size=24))
    if triples:
        triples += draw(st.lists(st.sampled_from(triples), max_size=6))
        triples += [(d, s, lab) for s, d, lab in draw(st.lists(st.sampled_from(triples), max_size=6))]
    return draw(st.permutations(triples))


MALFORMED = [(), (1,), (1, 2), (1, 2, "A", 0), "A", 3, None, ("1", 2, "A"), (1, "2", "A"),
             (1.0, 2, "A"), (1, 2.0, "A"), (True, 2, "A"), (1, 2, 5), (1, 2, None), ((1,), 2, "A")]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(triples=triple_lists(), probes=st.lists(st.tuples(vertex_ids, vertex_ids,
                                                          st.sampled_from("ABCZ")), max_size=12))
def test_store_matches_a_triple_set(triples, probes):
    ref = frozenset(triples)
    text = "".join(f"{s} {d} {lab}\n" for s, d, lab in sorted(ref))
    for g in (LabeledGraph(triples), load_graph(f"{s} {d} {lab}" for s, d, lab in triples)):
        assert set(g.edges) == ref and len(g.edges) == len(ref) and g.edges == ref
        for key in probes + list(ref) + MALFORMED:
            assert (key in g.edges) == (key in ref), key
        for s, d, lab in probes:
            assert g.has_edge(s, d, lab) == ((s, d, lab) in ref)
        assert g.sorted_edges() == sorted(ref)
        assert dump_graph(g) == text
        assert g.sha256 == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert g.vertices == {v for s, d, _ in ref for v in (s, d)}
        assert g.labels == tuple(sorted({lab for _, _, lab in ref}))
        for lab in "ABCZ":
            out, into = g.adjacency(lab, SRC), g.adjacency(lab, DST)
            for neighbors in (*out.values(), *into.values()):
                assert neighbors == sorted(set(neighbors))
            pairs = {(s, d) for s, d, other in ref if other == lab}
            assert {(s, d) for s, ds in out.items() for d in ds} == pairs
            assert {(s, d) for d, ss in into.items() for s in ss} == pairs
            assert g.label_count(lab) == len(pairs)
