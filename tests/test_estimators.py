from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cardest.catalogue import build_catalogue
from cardest.errors import ConfigError
from cardest.estgraph import MAX_ATTR_VARS, build_maxdeg, enumerate_paths, min_weight_path
from cardest.estimators import (ALL_CHOICES, HeuristicChoice, KIND_AVG,
                                KIND_CLOSING, estimate_molp,
                                estimate_optimistic, estimate_pstar,
                                optimistic_ceg)
from cardest.oracle import count_hom
from cardest.querymodel import instantiate_template, parse_query

from _synth import random_graph, tree_template
from conftest import TRIANGLE, identity_triangle
from oracles import dag_min_product, group_degree

def test_heuristic_choice_validation():
    assert len(ALL_CHOICES) == 9
    with pytest.raises(ValueError):
        HeuristicChoice("mid-hop", "max-aggr")
    with pytest.raises(ValueError):
        HeuristicChoice("max-hop", "geo-aggr")


def test_single_edge_every_choice_gives_relation_size():
    g = random_graph(20, 66, 2, seed=1)
    q = parse_query("a1 -A-> a2")
    cat = build_catalogue(g, [q], 2)
    for choice in ALL_CHOICES:
        est = estimate_optimistic(q, cat, KIND_AVG, choice)
        assert est.exact == g.label_count("A")
    bound = estimate_molp(q, cat)
    assert bound.exact == g.label_count("A")


def test_f1_three_path_is_six_for_every_choice(f1_graph, q3p):
    cat = build_catalogue(f1_graph, [q3p], 2)
    for choice in ALL_CHOICES:
        est = estimate_optimistic(q3p, cat, KIND_AVG, choice)
        assert est.exact == 6
        assert est.considered_paths == 1


def test_fork_aggregator_ordering(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    assert len(enumerate_paths(optimistic_ceg(q5f, cat))) == 36
    by_choice = {c: estimate_optimistic(q5f, cat, KIND_AVG, c) for c in ALL_CHOICES}
    for hop in ("max-hop", "min-hop", "all-hops"):
        lo = by_choice[HeuristicChoice(hop, "min-aggr")].exact
        mid = by_choice[HeuristicChoice(hop, "avg-aggr")].exact
        hi = by_choice[HeuristicChoice(hop, "max-aggr")].exact
        assert lo <= mid <= hi
    assert by_choice[HeuristicChoice("all-hops", "max-aggr")].exact >= \
        by_choice[HeuristicChoice("max-hop", "max-aggr")].exact
    assert by_choice[HeuristicChoice("all-hops", "min-aggr")].exact <= \
        by_choice[HeuristicChoice("min-hop", "min-aggr")].exact


def test_pstar_exact_hit_gives_qerror_one(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    est = estimate_pstar(q5f, cat, KIND_AVG, true_count=56)  # 56 is a path value
    assert est.exact == 56


def test_pstar_dominates_every_heuristic(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    truth = count_hom(fork_graph, q5f).value
    paths = enumerate_paths(optimistic_ceg(q5f, cat))
    star = estimate_pstar(q5f, cat, KIND_AVG, truth)
    # P* is the best single path, so it beats the path-valued heuristics
    # anywhere.  avg-aggr is a mean, which can beat every path when the truth
    # lies strictly between the averaged estimates; with the truth at or above
    # every path estimate the mean is no closer than the largest path.
    assert truth >= max(p.estimate for p in paths)

    def qe(value: Fraction) -> Fraction:
        return max(Fraction(truth) / value, value / Fraction(truth))

    for choice in ALL_CHOICES:
        est = estimate_optimistic(q5f, cat, KIND_AVG, choice)
        assert qe(star.exact) <= qe(est.exact)


def test_pstar_tie_breaks_to_smaller_estimate():
    g = identity_triangle(10)
    # two-path situation with symmetric q-errors is hard to stage naturally;
    # check the tie rule on equal estimates instead: unique-path graphs.
    q = parse_query("a1 -R-> a2")
    cat = build_catalogue(g, [q], 2)
    est = estimate_pstar(q, cat, KIND_AVG, true_count=10)
    assert est.exact == 10


def test_molp_equals_min_weight_over_built_graph(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    est = estimate_molp(q5f, cat)
    assert est.exact == 96
    assert est.exact == dag_min_product(build_maxdeg(q5f, cat))
    assert est.chosen_path is not None
    assert est.chosen_path.estimate == est.exact


def test_molp_identity_triangle_safe_but_cyclic_cover_unsafe():
    n = 100
    g = identity_triangle(n)
    cat = build_catalogue(g, [TRIANGLE], 2)
    truth = count_hom(g, TRIANGLE).value
    assert truth == n
    bound = estimate_molp(TRIANGLE, cat)
    assert bound.exact >= n
    # the cyclic cover formula deg(a|b) * deg(b|c) * deg(c|a) collapses to 1
    d_ab = group_degree(g, TRIANGLE, ["b"], ["a", "b"])
    d_bc = group_degree(g, TRIANGLE, ["c"], ["b", "c"])
    d_ca = group_degree(g, TRIANGLE, ["a"], ["c", "a"])
    assert d_ab * d_bc * d_ca == 1 < n


def test_molp_safe_on_random_instances():
    rng = random.Random(7)
    checked = 0
    for seed in range(12):
        g = random_graph(30, 130, 4, seed=1200 + seed)
        q = instantiate_template(tree_template(4, seed=seed), g,
                                 seed=rng.randrange(1 << 20), attempts=25)
        if q is None:
            continue
        checked += 1
        cat = build_catalogue(g, [q], 2)
        assert estimate_molp(q, cat).exact >= count_hom(g, q).value
    assert checked >= 5


def test_molp_needs_no_variable_cap():
    g = random_graph(40, 160, 2, seed=1400)
    q = parse_query("\n".join(f"a{i} -{'AB'[i % 2]}-> a{i + 1}" for i in range(12)))
    assert len(q.vars) == MAX_ATTR_VARS + 1
    cat = build_catalogue(g, [q], 2)
    assert estimate_molp(q, cat).exact >= count_hom(g, q).value
    with pytest.raises(ConfigError):
        list(build_maxdeg(q, cat).all_edges())


def test_molp_zero_relation_short_circuit():
    from cardest.graphstore import LabeledGraph
    g = LabeledGraph([(1, 2, "A"), (3, 4, "B")])
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat = build_catalogue(g, [q], 2)
    assert estimate_molp(q, cat).exact == 0
    assert estimate_molp(q, cat).chosen_path == min_weight_path(build_maxdeg(q, cat))


def test_estimates_deterministic(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    for choice in ALL_CHOICES:
        a = estimate_optimistic(q5f, cat, KIND_AVG, choice)
        b = estimate_optimistic(q5f, cat, KIND_AVG, choice)
        assert a.exact == b.exact and a.value == b.value
    assert estimate_molp(q5f, cat).exact == estimate_molp(q5f, cat).exact


def test_closing_kind_requires_rates(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    est = estimate_optimistic(q5f, cat, KIND_CLOSING, HeuristicChoice("max-hop", "max-aggr"))
    assert est.exact is not None  # no >h cycles: identical to avg-degree kind
