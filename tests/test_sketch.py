from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cardest import oracle, sketch
from cardest.catalogue import QueryStats, build_catalogue, canonical_form, partition_catalogues
from cardest.errors import ConfigError, SketchPlanError
from cardest.estgraph import BOUND, UNBOUND, CegEdge, PathEstimate
from cardest.estimators import HeuristicChoice, KIND_AVG, estimate_molp, estimate_optimistic
from cardest.evalharness import WorkloadItem, expand_methods, run_workload
from cardest.oracle import count_hom
from cardest.querymodel import (connected_index_sets, index_pattern, instantiate_template,
                                parse_query)
from cardest.sketch import (bucket_of, estimate_with_sketch, join_attributes,
                            make_sketch, sketch_attributes)

from _synth import cycle_template, random_graph, tree_template
from oracles import filtered_sketch_components


def _attr_path(steps) -> PathEstimate:
    """steps: (dst_var_set, kind, rate) from the empty set upward."""
    edges = []
    current: frozenset = frozenset()
    prod = Fraction(1)
    for dst, kind, rate in steps:
        rate = Fraction(rate)
        edges.append(CegEdge(current, frozenset(dst), rate, kind, (("t",),)))
        prod *= rate
        current = frozenset(dst)
    return PathEstimate(tuple(edges), prod)


def test_join_attributes_of_fork(q5f):
    assert join_attributes(q5f) == frozenset({"a2", "a3"})


def test_sketch_attrs_path_p1(q5f):
    # start |B|, then bound extensions a4, a1, a6, a5
    p1 = _attr_path([
        ({"a2", "a3"}, UNBOUND, 2),
        ({"a2", "a3", "a4"}, BOUND, 2),
        ({"a1", "a2", "a3", "a4"}, BOUND, 3),
        ({"a1", "a2", "a3", "a4", "a6"}, BOUND, 4),
        ({"a1", "a2", "a3", "a4", "a5", "a6"}, BOUND, 3),
    ])
    assert sketch_attributes(p1, q5f, "attrs") == frozenset({"a2", "a3"})


def test_sketch_attrs_path_p2(q5f):
    # start |A|, then bound extensions a3, a4, a5, a6
    p2 = _attr_path([
        ({"a1", "a2"}, UNBOUND, 4),
        ({"a1", "a2", "a3"}, BOUND, 1),
        ({"a1", "a2", "a3", "a4"}, BOUND, 2),
        ({"a1", "a2", "a3", "a4", "a5"}, BOUND, 3),
        ({"a1", "a2", "a3", "a4", "a5", "a6"}, BOUND, 4),
    ])
    assert sketch_attributes(p2, q5f, "attrs") == frozenset({"a2"})


def _p1(q5f):
    return _attr_path([
        ({"a2", "a3"}, UNBOUND, 2),
        ({"a2", "a3", "a4"}, BOUND, 2),
        ({"a1", "a2", "a3", "a4"}, BOUND, 3),
        ({"a1", "a2", "a3", "a4", "a6"}, BOUND, 4),
        ({"a1", "a2", "a3", "a4", "a5", "a6"}, BOUND, 3),
    ])


def test_piece_counts_s2_k4(fork_graph, q5f):
    plan, components = make_sketch(q5f, fork_graph, _p1(q5f), k=4, ceg_kind="attrs")
    assert plan.attrs == ("a2", "a3")
    assert plan.per_attr_parts == 2
    assert len(components) == 4
    # A carries one sketch attribute -> 2 pieces; B carries both -> 4 pieces
    assert plan.partition_assignments[0] == (("a2",), 2)
    assert plan.partition_assignments[1] == (("a2", "a3"), 4)
    for i in (2, 3, 4):
        assert plan.partition_assignments[i] == (("a3",), 2)


def test_k1_identity(fork_graph, q5f):
    plan, components = make_sketch(q5f, fork_graph, None, k=1)
    assert plan.k == 1
    assert len(components) == 1
    assert components[0].graph is fork_graph
    assert components[0].query is q5f


def test_incompatible_k_rejected(fork_graph, q5f):
    with pytest.raises(SketchPlanError):
        make_sketch(q5f, fork_graph, _p1(q5f), k=8, ceg_kind="attrs")  # 8**(1/2) not integral


def test_component_counts_sum_to_total(fork_graph, q5f):
    total = count_hom(fork_graph, q5f).value
    for k in (4, 16):
        _, components = make_sketch(q5f, fork_graph, _p1(q5f), k=k, ceg_kind="attrs")
        assert sum(count_hom(c.graph, c.query).value for c in components) == total


def test_component_counts_sum_on_random_instances():
    rng = random.Random(3)
    checked = 0
    for seed in range(10):
        g = random_graph(30, 140, 4, seed=1300 + seed)
        q = instantiate_template(tree_template(4, seed=seed), g,
                                 seed=rng.randrange(1 << 20), attempts=25)
        if q is None:
            continue
        cat = build_catalogue(g, [q], 2)
        molp = estimate_molp(q, cat)
        try:
            _, components = make_sketch(q, g, molp.chosen_path, k=4, ceg_kind="attrs")
        except SketchPlanError:
            continue
        checked += 1
        assert sum(count_hom(c.graph, c.query).value for c in components) \
            == count_hom(g, q).value
    assert checked >= 3


def test_make_sketch_default_kind_reads_molp_paths():
    g = random_graph(30, 140, 4, seed=1300)
    q = parse_query("a1 -C-> a0\na1 -B-> a2\na2 -D-> a3\na4 -A-> a2")
    path = estimate_molp(q, build_catalogue(g, [q], 2)).chosen_path
    plan, components = make_sketch(q, g, path, 4)
    assert plan.attrs == ("a2",)
    assert sum(count_hom(c.graph, c.query).value for c in components) == \
        count_hom(g, q).value


def test_sketched_molp_between_truth_and_unsketched(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    unsketched = estimate_molp(q5f, cat).exact
    truth = count_hom(fork_graph, q5f).value
    for k in (4, 16):
        sketched = estimate_with_sketch(q5f, fork_graph, k, "molp").exact
        assert truth <= sketched <= unsketched


def test_sketched_molp_k1_equals_base(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    assert estimate_with_sketch(q5f, fork_graph, 1, "molp").exact == \
        estimate_molp(q5f, cat).exact


def test_sketched_optimistic_k1_equals_base(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    choice = HeuristicChoice("max-hop", "max-aggr")
    assert estimate_with_sketch(q5f, fork_graph, 1, "optimistic", choice=choice,
                                ceg_kind=KIND_AVG).exact == \
        estimate_optimistic(q5f, cat, KIND_AVG, choice).exact


def test_sketched_optimistic_runs_partitioned(fork_graph, q5f):
    choice = HeuristicChoice("max-hop", "max-aggr")
    est = estimate_with_sketch(q5f, fork_graph, 4, "optimistic", choice=choice,
                               ceg_kind=KIND_AVG)
    assert est.exact is not None
    assert est.exact >= 0


def test_sketched_optimistic_avg_rejected(fork_graph, q5f):
    with pytest.raises(SketchPlanError):
        estimate_with_sketch(q5f, fork_graph, 4, "optimistic",
                             choice=HeuristicChoice("all-hops", "avg-aggr"),
                             ceg_kind=KIND_AVG)


def test_empty_sketch_set_falls_back_to_identity():
    g = random_graph(20, 60, 2, seed=5)
    q = parse_query("a1 -A-> a2")  # no join attributes at all
    est = estimate_with_sketch(q, g, 4, "molp")
    cat = build_catalogue(g, [q], 2)
    assert est.exact == estimate_molp(q, cat).exact


def test_hash_determinism(fork_graph, q5f):
    a = make_sketch(q5f, fork_graph, _p1(q5f), k=4, ceg_kind="attrs", seed=7)
    b = make_sketch(q5f, fork_graph, _p1(q5f), k=4, ceg_kind="attrs", seed=7)
    for ca, cb in zip(a[1], b[1]):
        assert ca.graph.edges == cb.graph.edges
    assert bucket_of(12345, 4, seed=7) == bucket_of(12345, 4, seed=7)
    spread = {bucket_of(v, 4, seed=7) for v in range(200)}
    assert spread == {0, 1, 2, 3}


@pytest.fixture(scope="module")
def sketch_runs():
    """Seeded random graphs, each with tree and cycle instances and the
    catalogue of all its instances (as a workload run holds it)."""
    runs = []
    for seed in range(4):
        g = random_graph(30, 140, 4, seed=1400 + seed, plant_cycles=6)
        templates = (tree_template(4, seed=seed), cycle_template(3), cycle_template(4))
        queries = [q for j, t in enumerate(templates)
                   if (q := instantiate_template(t, g, seed=10 * seed + j, attempts=25))]
        runs.append((g, queries, build_catalogue(g, queries, 2)))
    return runs


def _sketched(q, g, k, base, **kwargs):
    try:
        return estimate_with_sketch(q, g, k, base, **kwargs).exact
    except SketchPlanError:
        return SketchPlanError


def test_sketched_values_same_with_run_catalogue(sketch_runs):
    choices = (HeuristicChoice("max-hop", "max-aggr"), HeuristicChoice("min-hop", "min-aggr"))
    sandwiched = 0
    for g, queries, cat in sketch_runs:
        for q in queries:
            truth = count_hom(g, q).value
            unsketched = estimate_molp(q, cat).exact
            for k in (4, 16):
                reused = _sketched(q, g, k, "molp", catalogue=cat)
                assert reused == _sketched(q, g, k, "molp")
                if reused is not SketchPlanError:
                    assert truth <= reused <= unsketched
                    sandwiched += 1
                for choice in choices:
                    assert _sketched(q, g, k, "optimistic", choice=choice,
                                     ceg_kind=KIND_AVG, catalogue=cat) == \
                        _sketched(q, g, k, "optimistic", choice=choice, ceg_kind=KIND_AVG)
    assert sandwiched >= 12


def test_sketched_run_reads_its_catalogue(sketch_runs, monkeypatch):
    g, queries, cat = sketch_runs[0]
    full_graph_builds = []
    original = sketch.build_catalogue

    def counting(graph, *args, **kwargs):
        if graph is g:
            full_graph_builds.append(args)
        return original(graph, *args, **kwargs)

    monkeypatch.setattr(sketch, "build_catalogue", counting)
    estimate_with_sketch(queries[0], g, 4, "molp")
    assert len(full_graph_builds) == 1   # without a catalogue the row builds its own
    full_graph_builds.clear()
    methods = expand_methods(["bound", "optimistic:avg:max-hop:max-aggr"])
    result = run_workload(g, [WorkloadItem(f"q{i}", "", q) for i, q in enumerate(queries)],
                          methods, sketch_k=4, catalogue=cat)
    assert sum(r.error is None for r in result.records) >= 4
    assert full_graph_builds == []


def test_sketch_rejects_catalogue_at_other_h(f1_graph, q3p):
    cat = build_catalogue(f1_graph, [q3p], 2)
    with pytest.raises(ConfigError):
        estimate_with_sketch(q3p, f1_graph, 4, "molp", h=3, catalogue=cat)


def _p2() -> PathEstimate:
    return _attr_path([
        ({"a1", "a2"}, UNBOUND, 4),
        ({"a1", "a2", "a3"}, BOUND, 1),
        ({"a1", "a2", "a3", "a4"}, BOUND, 2),
        ({"a1", "a2", "a3", "a4", "a5"}, BOUND, 3),
        ({"a1", "a2", "a3", "a4", "a5", "a6"}, BOUND, 4),
    ])


def _sketch_cases(fork_graph, q5f, sketch_runs) -> list:
    """(graph, query, path): q5f on the fork fixture with two hand-built paths,
    and each tree and cycle instance of `sketch_runs` with its molp path."""
    cases = [(fork_graph, q5f, _p1(q5f)), (fork_graph, q5f, _p2())]
    for g, queries, cat in sketch_runs:
        cases += [(g, q, estimate_molp(q, cat).chosen_path) for q in queries]
    return cases


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("k", [4, 9, 16])
def test_components_match_per_component_filter(fork_graph, q5f, sketch_runs, k, seed):
    checked = 0
    for g, q, path in _sketch_cases(fork_graph, q5f, sketch_runs):
        try:
            plan, components = make_sketch(q, g, path, k, seed=seed)
        except SketchPlanError:
            continue
        checked += 1
        assert [(c.index, c.graph.edges) for c in components] == \
            filtered_sketch_components(g, q, plan.attrs, plan.per_attr_parts, seed)
        assert all([(e.src, e.dst, e.label) for e in c.query.edges] ==
                   [(e.src, e.dst, f"e{i}") for i, e in enumerate(q.edges)]
                   for c in components)
    assert checked >= 10


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("k", [4, 9, 16])
def test_grouped_statistics_equal_component_catalogues(fork_graph, q5f, sketch_runs, k, seed):
    checked = unsketched_subqueries = empty_groups = shared_patterns = 0
    for g, q, path in _sketch_cases(fork_graph, q5f, sketch_runs):
        try:
            plan, components = make_sketch(q, g, path, k, seed=seed)
        except SketchPlanError:
            continue
        checked += 1
        index_sets = connected_index_sets(q, 2)
        unsketched_subqueries += sum(not q.vars_of(s) & set(plan.attrs) for s in index_sets)
        # two index sets of one canonical pattern still get their own statistics
        shared_patterns += len({canonical_form(index_pattern(q, s))[0]
                                for s in index_sets}) < len(index_sets)
        grouped = partition_catalogues(g, q, 2, [dict(zip(plan.attrs, c.index))
                                                 for c in components], plan.buckets)
        for comp, got in zip(components, grouped):
            want = QueryStats(comp.query, build_catalogue(comp.graph, [comp.query], 2))
            for s in index_sets:
                assert got.count(s) == want.count(s)
                assert got.degrees(s) == want.degrees(s)
                empty_groups += got.count(s) == 0
    assert checked >= 10
    assert unsketched_subqueries > 0
    assert empty_groups > 0
    assert shared_patterns > 0


def test_molp_and_avg_degree_sketches_build_no_graph_and_sample_no_walk(sketch_runs,
                                                                        monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called by a molp or avg-degree sketch")

    monkeypatch.setattr(oracle, "sample_label_paths", forbidden)
    monkeypatch.setattr(sketch, "LabeledGraph", forbidden)
    methods = [("molp", None), ("optimistic", HeuristicChoice("max-hop", "max-aggr")),
               ("optimistic", HeuristicChoice("min-hop", "min-aggr"))]
    sketched = {base: 0 for base, _ in methods}
    for g, queries, cat in sketch_runs:
        for q in queries:
            for base, choice in methods:
                value = _sketched(q, g, 4, base, choice=choice, ceg_kind=KIND_AVG,
                                  catalogue=cat)
                sketched[base] += value is not SketchPlanError
    assert sketched["molp"] >= 8
    assert sketched["optimistic"] >= 8
