from __future__ import annotations

import time

import pytest

from cardest import querymodel
from cardest.errors import QueryValidationError
from cardest.graphstore import LabeledGraph
from cardest.oracle import count_hom
from cardest.querymodel import (QEdge, QueryGraph, connected_index_sets,
                                cycles, instantiate_template, parse_query)

from _synth import cycle_template, random_graph, star_template, tree_template
from oracles import brute_connected_subsets, brute_cycles


def test_parse_single_edge():
    q = parse_query("a1 -A-> a2")
    assert len(q) == 1
    assert q.vars == ("a1", "a2")


def test_parse_q5f(q5f):
    assert len(q5f.vars) == 6
    assert len(q5f.edges) == 5
    assert q5f.edges[0] == QEdge("a1", "a2", "A")
    assert q5f.edges[4] == QEdge("a3", "a6", "E")


def test_parse_disconnected_rejected():
    with pytest.raises(QueryValidationError):
        parse_query("a1 -A-> a2\na3 -B-> a4")


def test_parse_duplicate_edge_rejected():
    with pytest.raises(QueryValidationError):
        parse_query("a1 -A-> a2\na1 -A-> a2")


def test_parse_self_loop_rejected():
    with pytest.raises(QueryValidationError):
        parse_query("a1 -A-> a1")


def test_parse_comments_ok():
    q = parse_query("# cmt\na1 -A-> a2\n")
    assert len(q) == 1


def test_connected_index_sets_single_edge():
    q = parse_query("a1 -A-> a2")
    assert len(connected_index_sets(q, 1)) == 1


def test_connected_index_sets_triangle_pairs():
    q = parse_query("a1 -A-> a2\na2 -B-> a3\na3 -C-> a1")
    subs = connected_index_sets(q, 2)
    assert len(subs) == 6  # 3 single edges + 3 wedges


def test_connected_index_sets_match_brute_force(q5f):
    for max_edges in range(1, 6):
        got = set(connected_index_sets(q5f, max_edges))
        assert got == brute_connected_subsets(q5f, max_edges)


def test_connected_index_sets_random_queries_match_brute():
    for seed in range(12):
        g = random_graph(30, 80, 4, seed=seed)
        tpl = tree_template(5, seed=seed)
        inst = instantiate_template(tpl, g, seed=seed, attempts=30)
        if inst is None:
            continue
        got = set(connected_index_sets(inst, 5))
        assert got == brute_connected_subsets(inst, 5)


def test_connected_index_sets_deterministic_order(q5f):
    keys = [tuple(sorted(s)) for s in connected_index_sets(q5f, 5)]
    assert keys == sorted(keys)


def test_subquery_closed_under_extension(q5f):
    max_edges = 4
    subs = set(connected_index_sets(q5f, max_edges))
    for s in subs:
        if len(s) < max_edges:
            assert any(s < t and len(t) == len(s) + 1 for t in subs)


def test_cycles_tree_empty(q5f):
    assert len(cycles(q5f)) == 0


def test_cycles_square():
    q = parse_query("a1 -A-> a2\na2 -B-> a3\na3 -C-> a4\na4 -D-> a1")
    cs = cycles(q)
    assert len(cs) == 1
    assert tuple(len(c) for c in cs.cycles) == (4,)


def test_cycles_k4_seven_simple_cycles():
    q = parse_query("\n".join([
        "a1 -A-> a2", "a1 -B-> a3", "a1 -C-> a4",
        "a2 -D-> a3", "a2 -E-> a4", "a3 -F-> a4"]))
    cs = cycles(q)
    assert len(cs) == 7
    assert sorted(len(c) for c in cs.cycles) == [3, 3, 3, 3, 4, 4, 4]
    assert {frozenset(c) for c in cs.cycles} == brute_cycles(q)


def test_cycles_parallel_edges_two_cycle():
    q = QueryGraph([QEdge("a1", "a2", "A"), QEdge("a1", "a2", "B")])
    cs = cycles(q)
    assert len(cs) == 1
    assert tuple(len(c) for c in cs.cycles) == (2,)
    assert {frozenset(c) for c in cs.cycles} == brute_cycles(q)


def test_cycles_eight_edge_query_matches_brute():
    # K4 plus a 2-edge tail: 8 edges, still the 7 K4 cycles
    q = parse_query("\n".join([
        "a1 -A-> a2", "a1 -B-> a3", "a1 -C-> a4",
        "a2 -D-> a3", "a2 -E-> a4", "a3 -F-> a4",
        "a4 -G-> a5", "a5 -H-> a6"]))
    assert {frozenset(c) for c in cycles(q).cycles} == brute_cycles(q)
    assert len(cycles(q)) == 7


def test_cycles_match_brute_on_random_cyclic():
    from _synth import cycle_tail_template
    for seed in range(8):
        g = random_graph(25, 100, 4, seed=200 + seed)
        inst = instantiate_template(cycle_tail_template(4, 2), g, seed=seed,
                                    mode="edge-at-a-time", time_limit=5.0)
        if inst is None:
            continue
        assert {frozenset(c) for c in cycles(inst).cycles} == brute_cycles(inst)


def test_instantiate_single_label_graph():
    g = random_graph(20, 50, 1, seed=5)
    inst = instantiate_template(star_template(2), g, seed=1)
    if inst is not None:
        assert all(e.label == "A" for e in inst.edges)
        assert count_hom(g, inst).value > 0


def test_instantiate_deterministic():
    g = random_graph(40, 150, 4, seed=9)
    tpl = tree_template(4, seed=2)
    a = instantiate_template(tpl, g, seed=77)
    b = instantiate_template(tpl, g, seed=77)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.to_text() == b.to_text()


def test_instantiate_uniform_labels_nonempty_oracle():
    g = random_graph(35, 140, 3, seed=13)
    tpl = tree_template(3, seed=4)
    made = 0
    for seed in range(60):
        inst = instantiate_template(tpl, g, seed=seed, attempts=25)
        if inst is None:
            continue
        made += 1
        assert count_hom(g, inst).value >= 1
    assert made > 0


def test_instantiate_edge_at_a_time_nonempty():
    g = random_graph(30, 120, 5, seed=21)
    tpl = tree_template(5, seed=6)
    for seed in range(10):
        inst = instantiate_template(tpl, g, seed=seed, mode="edge-at-a-time",
                                    time_limit=5.0)
        if inst is not None:
            assert count_hom(g, inst).value >= 1


def test_edge_at_a_time_search_ends_by_draw_cap_on_a_stopped_clock(monkeypatch):
    # a path graph has no triangle, so only the draw cap can end this search
    g = LabeledGraph([(i, i + 1, "A") for i in range(20)])
    draws = []
    real_order = querymodel._random_connected_order
    monkeypatch.setattr(querymodel, "_random_connected_order",
                        lambda *a: draws.append(1) or real_order(*a))
    monkeypatch.setattr(time, "monotonic", lambda: 0.0)
    assert instantiate_template(cycle_template(3), g, seed=1, mode="edge-at-a-time") is None
    assert len(draws) == querymodel.MAX_EMBED_DRAWS
