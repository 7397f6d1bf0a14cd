from __future__ import annotations

import math
import random
from itertools import product

import pytest

from cardest.errors import QueryValidationError
from cardest.graphstore import LabeledGraph
from cardest.oracle import FWD, REV, count_hom, degrees, matches, sample_label_paths
from cardest.querymodel import QEdge, QueryGraph, instantiate_template, parse_query

from _synth import random_graph, tree_template, cycle_template
from conftest import TRIANGLE, identity_triangle
from oracles import group_degree, nested_loop_count, nested_loop_matches, randrange_label_walks

def test_single_edge_count_is_relation_size():
    g = random_graph(20, 70, 3, seed=1)
    q = parse_query("a1 -A-> a2")
    assert count_hom(g, q).value == g.label_count("A")


def test_triangle_on_identity_dataset():
    g = identity_triangle(17)
    assert count_hom(g, TRIANGLE).value == 17


def test_count_matches_nested_loop_on_randoms():
    checked = 0
    for seed in range(25):
        g = random_graph(25, 90, 4, seed=300 + seed)
        tpl = tree_template(4, seed=seed)
        q = instantiate_template(tpl, g, seed=seed, attempts=20)
        if q is None:
            continue
        checked += 1
        assert count_hom(g, q).value == nested_loop_count(g, q)
    assert checked >= 10


def test_count_matches_nested_loop_cyclic():
    for seed in range(10):
        g = random_graph(18, 80, 3, seed=400 + seed)
        q = instantiate_template(cycle_template(4), g, seed=seed,
                                 mode="edge-at-a-time", time_limit=5.0)
        if q is None:
            continue
        assert count_hom(g, q).value == nested_loop_count(g, q)


def test_count_matches_nested_loop_on_planted_cycles():
    # the counting plan folds a cycle's last variable into the intersection of
    # its two bound neighbours' lists, so every cycle query takes that route
    nonzero = 0
    for seed in range(3):
        g = random_graph(12, 30, 2, seed=600 + seed, plant_cycles=6)
        for k in (4, 5):
            for labels in product("AB", repeat=k):
                q = QueryGraph([QEdge(f"a{i}", f"a{(i + 1) % k}", lab)
                                for i, lab in enumerate(labels)])
                count = count_hom(g, q).value
                assert count == nested_loop_count(g, q)
                nonzero += count > 0
    assert nonzero > 0


def test_count_monotone_when_adding_edge_over_bound_vars():
    for seed in range(8):
        g = random_graph(20, 90, 3, seed=500 + seed)
        base = instantiate_template(cycle_template(3), g, seed=seed,
                                    mode="edge-at-a-time", time_limit=5.0)
        if base is None:
            continue
        for lab in g.labels:
            bigger = QueryGraph(list(base.edges) + [QEdge("a0", "a2", lab)])
            assert count_hom(g, bigger).value <= count_hom(g, base).value


def test_matches_agree_with_nested_loop():
    g = random_graph(15, 60, 3, seed=42)
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    assert sorted(matches(g, q)) == sorted(nested_loop_matches(g, q))


def test_group_degree_x_equals_y():
    g = random_graph(20, 60, 3, seed=2)
    q = parse_query("a1 -A-> a2")
    if count_hom(g, q).value >= 1:
        assert group_degree(g, q, ["a1"], ["a1"]) == 1
        assert group_degree(g, q, [], []) == 1


def test_group_degree_empty_x_full_y_single_edge():
    g = random_graph(20, 60, 3, seed=3)
    q = parse_query("a1 -A-> a2")
    assert group_degree(g, q, [], ["a1", "a2"]) == g.label_count("A")


def test_group_degree_empty_x_equals_count_on_all_vars():
    for seed in range(6):
        g = random_graph(18, 70, 3, seed=600 + seed)
        q = instantiate_template(tree_template(3, seed=seed), g, seed=seed, attempts=20)
        if q is None:
            continue
        assert group_degree(g, q, [], list(q.vars)) == count_hom(g, q).value


def test_group_degree_wedge_matches_brute():
    # the library's grouping of its matcher's rows against the nested-loop reference
    for seed in range(10):
        g = random_graph(15, 70, 3, seed=700 + seed)
        q = parse_query("a1 -A-> a2\na2 -B-> a3")
        rows = set(matches(g, q))
        assert degrees(rows, [0, 1, 2], [[1]]) == [group_degree(g, q, ["a2"], q.vars)]
        assert degrees(rows, [0, 2], [[]]) == [group_degree(g, q, [], ["a1", "a3"])]


def test_group_degree_validates_subsets():
    g = random_graph(10, 30, 2, seed=4)
    q = parse_query("a1 -A-> a2")
    with pytest.raises(QueryValidationError):
        group_degree(g, q, ["a1"], ["a2"])
    with pytest.raises(QueryValidationError):
        group_degree(g, q, ["zz"], ["zz"])


def test_group_degree_no_matches_is_zero():
    g = LabeledGraph([(1, 2, "A")])
    q = parse_query("a1 -Z-> a2")
    assert group_degree(g, q, [], ["a1"]) == 0


# ---------------------------------------------------------------------------
# Walk sampling
# ---------------------------------------------------------------------------

def test_walks_length_one_are_edges():
    g = random_graph(15, 50, 2, seed=5)
    walks = sample_label_paths(g, [("A", FWD)], p=200, seed=0)
    edge_set = set(g.edges_with_label("A"))
    assert walks
    for w in walks:
        assert len(w) == 2
        assert (w[0], w[1]) in edge_set


def test_walks_deterministic():
    g = random_graph(30, 120, 3, seed=6)
    seq = [("A", FWD), ("B", REV), ("C", FWD)]
    a = sample_label_paths(g, seq, p=500, seed=123)
    b = sample_label_paths(g, seq, p=500, seed=123)
    assert a == b


def test_walks_respect_directions():
    g = LabeledGraph([(1, 2, "A"), (3, 2, "B"), (3, 4, "C")])
    walks = sample_label_paths(g, [("A", FWD), ("B", REV), ("C", FWD)], p=50, seed=1)
    assert set(walks) == {(1, 2, 3, 4)}


def test_walks_equal_the_randrange_reference_walk_for_walk():
    # hub n (1..9) has n B-successors and n C-predecessors; the A-edge 0 -> 99
    # ends every walk that steps on from 99, and A- from a hub is one-element
    hubs = range(1, 10)
    g = LabeledGraph([(0, n, "A") for n in hubs] + [(0, 99, "A")]
                     + [(n, 100 * n + j, "B") for n in hubs for j in range(n)]
                     + [(100 * n + j, n, "C") for n in hubs for j in range(n)])
    seqs = [[("A", FWD), ("B", FWD)], [("A", FWD), ("C", REV)], [("A", REV), ("A", FWD), ("B", FWD)],
            [("B", REV), ("A", REV), ("A", FWD), ("C", REV)], [("C", FWD)]]
    for seed, seq in enumerate(seqs):
        walks = sample_label_paths(g, seq, p=300, seed=seed)
        assert walks == randrange_label_walks(g, seq, 300, seed)
        assert 0 < len(walks) < 300 or len(seq) == 1
    for seed in range(20):
        rng = random.Random(seed)
        g = random_graph(15, 60, 3, seed=900 + seed)
        seq = [(rng.choice("ABC"), rng.choice((FWD, REV))) for _ in range(rng.randint(1, 4))]
        assert sample_label_paths(g, seq, p=200, seed=seed) == randrange_label_walks(g, seq, 200, seed)


def test_walk_frequencies_match_generation_law():
    # Fixture with exactly 2 complete walks for A+ then B+:
    #   edge (0,1) -> walk (0,1,2); edge (3,4) -> walk (3,4,5)
    # plus a dead-end A-edge (6,7).  Law: uniform over the 3 A-edges, then
    # uniform over continuations (unique here), so each walk has p=1/3 and
    # dead ends eat the remaining 1/3.
    g = LabeledGraph([(0, 1, "A"), (1, 2, "B"), (3, 4, "A"), (4, 5, "B"), (6, 7, "A")])
    n = 100_000
    walks = sample_label_paths(g, [("A", FWD), ("B", FWD)], p=n, seed=99)
    law = {(0, 1, 2): 1 / 3, (3, 4, 5): 1 / 3}
    counts: dict[tuple, int] = {}
    for w in walks:
        counts[w] = counts.get(w, 0) + 1
    assert set(counts) == set(law)
    for walk, p in law.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[walk] - n * p) <= 3 * sigma
