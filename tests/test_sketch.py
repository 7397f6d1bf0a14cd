from __future__ import annotations

import random
from collections import Counter

import pytest

from cardest import estimators, evalharness, oracle, sketch
from cardest.catalogue import QueryStats, build_catalogue, canonical_form
from cardest.errors import ConfigError, SketchPlanError
from cardest.estgraph import BOUND, UNBOUND, PathEstimate
from cardest.estimators import HeuristicChoice, KIND_AVG, estimate_molp, estimate_optimistic
from cardest.graphstore import LabeledGraph
from cardest.evalharness import WorkloadItem, expand_methods, run_workload
from cardest.oracle import count_hom
from cardest.querymodel import (connected_index_sets, index_pattern, instantiate_template,
                                parse_query)
from cardest.sketch import (SketchCache, bucket_of, estimate_with_sketch, join_attributes,
                            make_sketch, partition_catalogues, sketch_attributes)

from _synth import cycle_template, random_graph, tree_template
from conftest import step_path
from oracles import filtered_sketch_components


def test_join_attributes_of_fork(q5f):
    assert join_attributes(q5f) == frozenset({"a2", "a3"})


def test_sketch_attrs_path_p1(q5f):
    # start |B|, then bound extensions a4, a1, a6, a5
    assert sketch_attributes(_p1(q5f), q5f, "attrs") == frozenset({"a2", "a3"})


def test_sketch_attrs_path_p2(q5f):
    # start |A|, then bound extensions a3, a4, a5, a6
    assert sketch_attributes(_p2(), q5f, "attrs") == frozenset({"a2"})


def _p1(q5f):
    return step_path([
        ({"a2", "a3"}, UNBOUND, 2),
        ({"a2", "a3", "a4"}, BOUND, 2),
        ({"a1", "a2", "a3", "a4"}, BOUND, 3),
        ({"a1", "a2", "a3", "a4", "a6"}, BOUND, 4),
        ({"a1", "a2", "a3", "a4", "a5", "a6"}, BOUND, 3),
    ])


def _p2() -> PathEstimate:
    return step_path([
        ({"a1", "a2"}, UNBOUND, 4),
        ({"a1", "a2", "a3"}, BOUND, 1),
        ({"a1", "a2", "a3", "a4"}, BOUND, 2),
        ({"a1", "a2", "a3", "a4", "a5"}, BOUND, 3),
        ({"a1", "a2", "a3", "a4", "a5", "a6"}, BOUND, 4),
    ])


def test_piece_counts_s2_k4(fork_graph, q5f):
    plan, components = make_sketch(q5f, fork_graph, _p1(q5f), k=4, ceg_kind="attrs")
    assert plan.attrs == ("a2", "a3")
    assert plan.per_attr_parts == 2
    assert len(components) == 4
    # A carries one sketch attribute -> 2 pieces; B carries both -> 4 pieces
    ends = [tuple(v for v in plan.attrs if v in e.vars()) for e in q5f.edges]
    assert ends == [("a2",), ("a2", "a3"), ("a3",), ("a3",), ("a3",)]
    for i, e in enumerate(q5f.edges):
        pieces: dict = {}
        for c in components:
            piece = {(u, v) for u, v, tag in c.graph.edges if tag == f"e{i}"}
            buckets = dict(zip(plan.attrs, c.index))
            assert pieces.setdefault(tuple(buckets[v] for v in ends[i]), piece) == piece
        assert len(pieces) == 2 ** len(ends[i])
        assert set().union(*pieces.values()) == set(fork_graph.edges_with_label(e.label))


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
        sketched = _sketched(q5f, fork_graph, k, "molp", cat)
        assert truth <= sketched <= unsketched


def test_sketched_molp_k1_equals_base(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    assert estimate_with_sketch(q5f, fork_graph, 1, estimate_molp(q5f, cat), cat).exact == \
        estimate_molp(q5f, cat).exact


def test_sketched_optimistic_k1_equals_base(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    choice = HeuristicChoice("max-hop", "max-aggr")
    base = estimate_optimistic(q5f, cat, KIND_AVG, choice)
    assert estimate_with_sketch(q5f, fork_graph, 1, base, cat).exact == base.exact


def test_sketched_optimistic_runs_partitioned(fork_graph, q5f):
    choice = HeuristicChoice("max-hop", "max-aggr")
    cat = build_catalogue(fork_graph, [q5f], 2)
    est = estimate_with_sketch(q5f, fork_graph, 4, estimate_optimistic(q5f, cat, KIND_AVG, choice),
                               cat)
    assert est.exact is not None
    assert est.exact >= 0


def test_sketched_optimistic_avg_rejected(fork_graph, q5f):
    cat = build_catalogue(fork_graph, [q5f], 2)
    avg = estimate_optimistic(q5f, cat, KIND_AVG, HeuristicChoice("all-hops", "avg-aggr"))
    with pytest.raises(SketchPlanError, match="need a min-aggr or max-aggr choice"):
        estimate_with_sketch(q5f, fork_graph, 4, avg, cat)


def test_empty_sketch_set_falls_back_to_identity():
    g = random_graph(20, 60, 2, seed=5)
    q = parse_query("a1 -A-> a2")  # no join attributes at all
    cat = build_catalogue(g, [q], 2)
    est = estimate_with_sketch(q, g, 4, estimate_molp(q, cat), cat)
    assert est.exact == estimate_molp(q, cat).exact


def test_sketched_bound_of_an_empty_query_is_zero():
    # no A edge meets a B edge, though each label has edges; the 4-cycle's
    # sketch, which needs K = 2**4 or more, is never planned
    g = LabeledGraph([(1, 2, "A"), (3, 4, "B"), (2, 5, "A"), (6, 3, "B")])
    for text in ("a1 -A-> a2\na2 -B-> a3", "a1 -A-> a2\na2 -B-> a3\na3 -A-> a4\na4 -B-> a1"):
        q = parse_query(text)
        assert count_hom(g, q).value == 0
        cat = build_catalogue(g, [q], 2)
        for k in (4, 8, 16):
            assert _sketched(q, g, k, "molp", cat) == 0
        (row,) = run_workload(g, [q], expand_methods(["bound"]), sketch_k=4).records
        assert (row.sketch_k, row.estimate_exact, row.error) == \
            (4, 0, evalharness.ZERO_TRUE_COUNT)


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


def _unsketched(q, cat, base, choice=None, ceg_kind=KIND_AVG):
    """What a sketch of `base` re-evaluates: the bound, or heuristic `choice`."""
    return estimate_molp(q, cat) if base == "molp" else \
        estimate_optimistic(q, cat, ceg_kind, choice)


def _sketched(q, g, k, base, cat, choice=None, ceg_kind=KIND_AVG, **kwargs):
    try:
        return estimate_with_sketch(q, g, k, _unsketched(q, cat, base, choice, ceg_kind), cat,
                                    **kwargs).exact
    except SketchPlanError:
        return SketchPlanError


def test_sketched_values_same_with_run_catalogue(sketch_runs):
    # the run's catalogue, of every query, gives the values of one of q alone
    choices = (HeuristicChoice("max-hop", "max-aggr"), HeuristicChoice("min-hop", "min-aggr"))
    sandwiched = 0
    for g, queries, cat in sketch_runs:
        for q in queries:
            own = build_catalogue(g, [q], 2)
            truth = count_hom(g, q).value
            unsketched = estimate_molp(q, cat).exact
            for k in (4, 16):
                reused = _sketched(q, g, k, "molp", cat)
                assert reused == _sketched(q, g, k, "molp", own)
                if reused is not SketchPlanError:
                    assert truth <= reused <= unsketched
                    sandwiched += 1
                for choice in choices:
                    assert _sketched(q, g, k, "optimistic", cat, choice=choice,
                                     ceg_kind=KIND_AVG) == \
                        _sketched(q, g, k, "optimistic", own, choice=choice, ceg_kind=KIND_AVG)
    assert sandwiched >= 12


def test_sketched_run_reads_its_catalogue(sketch_runs, monkeypatch):
    g, queries, cat = sketch_runs[0]
    full_graph_builds = []
    original = evalharness.build_catalogue

    def counting(graph, *args, **kwargs):
        if graph is g:
            full_graph_builds.append(args)
        return original(graph, *args, **kwargs)

    monkeypatch.setattr(evalharness, "build_catalogue", counting)
    methods = expand_methods(["bound", "optimistic:avg:max-hop:max-aggr"])
    result = run_workload(g, [WorkloadItem(f"q{i}", "", q) for i, q in enumerate(queries)],
                          methods, sketch_k=4, catalogue=cat)
    assert sum(r.error is None for r in result.records) >= 4
    assert full_graph_builds == []


SKETCHED_METHODS = ("bound", "optimistic:avg:max-hop:max-aggr", "optimistic:avg:min-hop:min-aggr",
                    "optimistic:closing:max-hop:max-aggr")


@pytest.mark.parametrize("k", [4, 16])
def test_run_rows_equal_sketches_each_with_a_fresh_cache(sketch_runs, k):
    methods = expand_methods(list(SKETCHED_METHODS))
    sketched = 0
    for g, queries, cat in sketch_runs:
        result = run_workload(g, queries, methods, sketch_k=k, catalogue=cat)
        got = [r.estimate_exact if r.error is None else r.error.split(":")[0]
               for r in result.records]
        want = [_sketched(q, g, k, "molp" if m.name == "bound" else "optimistic", cat,
                          choice=m.choice, ceg_kind=m.ceg_kind)
                for q in queries for m in methods]
        assert got == ["SketchPlanError" if w is SketchPlanError else w for w in want]
        sketched += sum(w is not SketchPlanError for w in want)
    assert sketched >= 12


def test_sketched_run_builds_each_optimistic_graph_kind_once_a_query(sketch_runs, monkeypatch):
    # each sketched min/max row used to rebuild its query's graph: 14 builds a query
    builds = []
    original = estimators.build_optimistic
    monkeypatch.setattr(estimators, "build_optimistic",
                        lambda *args, **kwargs: builds.append(1) or original(*args, **kwargs))
    queries = plan_errors = 0
    for g, qs, cat in sketch_runs:
        result = run_workload(g, qs, expand_methods(["all"]), sketch_k=4, catalogue=cat)
        queries += len(qs)
        plan_errors += sum((r.error or "").startswith("SketchPlanError") for r in result.records)
    assert len(builds) == 2 * queries
    assert plan_errors == 171  # as many as when each row planned its own estimate


@pytest.mark.parametrize("k", [0, -1, -4, -8])
def test_k_below_one_is_a_plan_error(sketch_runs, k):
    # a K below 0 used to raise TypeError on paths with two or more sketch
    # attributes, from rounding the complex |S|-th root of K
    max_max = HeuristicChoice("max-hop", "max-aggr")
    sizes = set()
    for g, queries, cat in sketch_runs:
        for q in queries:
            for estimate, kind in ((estimate_molp(q, cat), "attrs"),
                                   (_unsketched(q, cat, "optimistic", max_max), "edges")):
                sizes.add(len(sketch_attributes(estimate.chosen_path, q, kind)))
                with pytest.raises(SketchPlanError, match=f"K={k} is below 1"):
                    make_sketch(q, g, estimate.chosen_path, k, ceg_kind=kind)
                with pytest.raises(SketchPlanError, match=f"K={k} is below 1"):
                    estimate_with_sketch(q, g, k, estimate, cat)
    assert sizes == {1, 2, 3}


def test_run_splits_each_map_and_hashes_each_vertex_once(sketch_runs, monkeypatch):
    # component statistics and, at K=8, the 3- and 4-cycles' closing rows'
    # component graphs read one split
    splits, hashed, graphs = Counter(), Counter(), []
    split, hash_, build = sketch._split_adjacency, sketch.bucket_of, sketch.LabeledGraph

    def counted_split(adj, part_of, by_near, by_far):
        splits[id(adj), by_near, by_far, part_of.parts, part_of.seed] += 1
        return split(adj, part_of, by_near, by_far)

    def counted_hash(vertex, buckets, seed):
        hashed[vertex, buckets, seed] += 1
        return hash_(vertex, buckets, seed)

    monkeypatch.setattr(sketch, "_split_adjacency", counted_split)
    monkeypatch.setattr(sketch, "bucket_of", counted_hash)
    monkeypatch.setattr(sketch, "LabeledGraph", lambda edges: graphs.append(1) or build(edges))
    methods = expand_methods(list(SKETCHED_METHODS))
    for k in (4, 8):
        graphs.clear()
        for g, queries, cat in sketch_runs:
            splits.clear()
            hashed.clear()
            run_workload(g, queries, methods, sketch_k=k, catalogue=cat)
            assert splits and set(splits.values()) == {1}
            assert hashed and set(hashed.values()) == {1}
        assert bool(graphs) == (k == 8)


def test_closing_rate_sketches_list_no_edge_of_the_full_graph(sketch_runs, monkeypatch):
    # component graphs come from the statistics' cells, not from a second
    # split; at K=8 the 3- and 4-cycles' paths close a cycle on three attributes
    methods = expand_methods(["optimistic:closing:max-hop:max-aggr",
                              "optimistic:closing:min-hop:min-aggr"])
    runs = [(g, queries, cat, run_workload(g, queries, methods, sketch_k=8, catalogue=cat))
            for g, queries, cat in sketch_runs]
    full = {id(g) for g, _, _ in sketch_runs}
    edges_with_label, build, graphs = LabeledGraph.edges_with_label, sketch.LabeledGraph, []

    def guarded(graph, label):
        assert id(graph) not in full, "listed an edge of the full graph"
        return edges_with_label(graph, label)

    monkeypatch.setattr(LabeledGraph, "edges_with_label", guarded)
    monkeypatch.setattr(sketch, "LabeledGraph", lambda edges: graphs.append(1) or build(edges))
    sketched = 0
    for g, queries, cat, want in runs:
        got = run_workload(g, queries, methods, sketch_k=8, catalogue=cat)
        assert [(r.estimate_exact, r.error) for r in got.records] == \
            [(r.estimate_exact, r.error) for r in want.records]
        sketched += sum(r.error is None for r in got.records)
    assert graphs and sketched >= 8


def test_sketch_cache_of_another_graph_rejected(sketch_runs):
    (g, queries, cat), (other, _, _) = sketch_runs[:2]
    q = queries[0]
    with pytest.raises(ConfigError, match="different graph"):
        estimate_with_sketch(q, g, 4, estimate_molp(q, cat), cat, cache=SketchCache(other))
    with pytest.raises(ConfigError, match="different graph"):
        make_sketch(q, g, None, 1, cache=SketchCache(other))
    # a cache of an equal graph, loaded separately, is the same graph's
    bound = estimate_molp(q, cat)
    assert estimate_with_sketch(q, g, 4, bound, cat, cache=SketchCache(LabeledGraph(g.edges))) \
        == estimate_with_sketch(q, g, 4, bound, cat)


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
        grouped = partition_catalogues(q, 2, [dict(zip(plan.attrs, c.index))
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


def test_grouped_statistics_list_match_rows_only_for_matched_shapes(fork_graph, q5f,
                                                                    sketch_runs, monkeypatch):
    listed = []
    real = oracle.matches
    monkeypatch.setattr(oracle, "matches", lambda g, p: listed.append(p) or real(g, p))
    checked = 0
    for k in (4, 9):
        for g, q, path in _sketch_cases(fork_graph, q5f, sketch_runs):
            try:
                plan, components = make_sketch(q, g, path, k)
            except SketchPlanError:
                continue
            checked += 1
            partition_catalogues(q, 2, [dict(zip(plan.attrs, c.index)) for c in components],
                                 plan.buckets)
    assert checked >= 10
    # one edge, or two edges over three variables, read the split adjacency maps
    assert {(len(p.edges), len(p.vars)) for p in listed} <= {(2, 2)}
    # an antiparallel pair, and three edges at h=3, are still matched: a and b sketched
    g = random_graph(12, 45, 3, seed=951, plant_cycles=4)
    q = parse_query("a -A-> b\nb -A-> a\nb -B-> c\nc -A-> d\nd -C-> b")
    path = step_path([({"a", "b"}, UNBOUND, 1), ({"a", "b", "c"}, BOUND, 1),
                       ({"a", "b", "c", "d"}, BOUND, 1)])
    plan, components = make_sketch(q, g, path, 4)
    assert plan.attrs == ("a", "b")
    parts = [dict(zip(plan.attrs, c.index)) for c in components]
    listed.clear()
    grouped = partition_catalogues(q, 3, parts, plan.buckets)
    index_sets = connected_index_sets(q, 3)
    matched = [s for s in index_sets if len(s) == 3 or len(s) == 2 and len(q.vars_of(s)) == 2]
    assert Counter(canonical_form(index_pattern(p, range(len(p))))[0] for p in listed) == \
        Counter(canonical_form(index_pattern(q, s))[0] for s in matched)
    assert {(len(p.edges), len(p.vars)) for p in listed} >= {(2, 2), (3, 3), (3, 4)}
    # a repeat call finds every table kept
    listed.clear()
    partition_catalogues(q, 3, parts, plan.buckets)
    assert listed == []
    for comp, got in zip(components, grouped):
        want = QueryStats(comp.query, build_catalogue(comp.graph, [comp.query], 3))
        for s in index_sets:
            assert (got.count(s), got.degrees(s)) == (want.count(s), want.degrees(s))


@pytest.mark.parametrize("k", [4, 9])
def test_repeat_partition_only_looks_up_kept_tables(fork_graph, q5f, sketch_runs, monkeypatch,
                                                    k):
    def forbidden(*args, **kwargs):
        raise AssertionError("built on a call whose tables are all kept")

    checked = 0
    for g, q, path in _sketch_cases(fork_graph, q5f, sketch_runs):
        try:
            plan, components = make_sketch(q, g, path, k)
        except SketchPlanError:
            continue
        checked += 1
        parts = [dict(zip(plan.attrs, c.index)) for c in components]
        first = partition_catalogues(q, 2, parts, plan.buckets)
        with monkeypatch.context() as patched:
            for name in ("QueryGraph", "pattern_table", "_split_adjacency"):
                patched.setattr(sketch, name, forbidden)
            patched.setattr(oracle, "matches", forbidden)
            again = partition_catalogues(q, 2, parts, plan.buckets)
        fresh = partition_catalogues(q, 2, parts,
                                     SketchCache(g).buckets(plan.per_attr_parts, plan.seed))
        for was, got, want in zip(first, again, fresh):
            for s in connected_index_sets(q, 2):
                assert got.degrees(s) is was.degrees(s)
                assert (got.count(s), got.degrees(s)) == (want.count(s), want.degrees(s))
    assert checked >= 10


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
                value = _sketched(q, g, 4, base, cat, choice=choice, ceg_kind=KIND_AVG)
                sketched[base] += value is not SketchPlanError
    assert sketched["molp"] >= 8
    assert sketched["optimistic"] >= 8
