from __future__ import annotations

import io
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cardest.catalogue import (Catalogue, QueryStats, _key_to_query, build_catalogue,
                               canonical_form, closing_spec, load, save, serialize)
from cardest.errors import CatalogueFormatError, ConfigError, MissingStatisticError
from cardest import oracle
from cardest.graphstore import LabeledGraph
from cardest.oracle import count_hom, group_degree
from cardest.querymodel import (QEdge, QueryGraph, connected_index_sets, cycles, index_pattern,
                                parse_query)

from _synth import cycle_template, random_graph, tree_template
from cardest.querymodel import instantiate_template
from oracles import brute_deg_table, brute_isomorphic, brute_label_walks, nested_loop_count


def _count(cat, q, indices):
    return QueryStats(q, cat).count(frozenset(indices))


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------

def test_key_invariant_under_renaming():
    a = canonical_form((("a1", "a2", "A"),))[0]
    b = canonical_form((("a5", "a9", "A"),))[0]
    assert a == b


def test_key_distinguishes_direction():
    chain = canonical_form((("a1", "a2", "A"), ("a2", "a3", "B")))[0]
    converge = canonical_form((("a1", "a2", "A"), ("a3", "a2", "B")))[0]
    assert chain != converge


def test_key_equality_iff_brute_isomorphism():
    rng = random.Random(31)
    labels = ["A", "B", "C", "D"]

    def random_pattern():
        n_edges = rng.randint(1, 3)
        edges = set()
        guard = 0
        while len(edges) < n_edges and guard < 50:
            guard += 1
            u = rng.randrange(4)
            v = rng.randrange(4)
            if u != v:
                edges.add((f"v{u}", f"v{v}", labels[rng.randrange(4)]))
        # keep only the connected component of the first edge
        keep = set()
        frontier = [next(iter(edges))]
        while frontier:
            e = frontier.pop()
            if e in keep:
                continue
            keep.add(e)
            for other in edges:
                if set(other[:2]) & set(e[:2]):
                    frontier.append(other)
        return tuple(sorted(keep))

    agree = 0
    for _ in range(1000):
        p1, p2 = random_pattern(), random_pattern()
        same_key = canonical_form(p1)[0] == canonical_form(p2)[0]
        iso = brute_isomorphic(list(p1), list(p2))
        assert same_key == iso
        agree += same_key
    assert agree > 0  # sanity: collisions do occur in the sample


def test_key_equality_iff_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    match = nx.algorithms.isomorphism.categorical_multiedge_match("label", None)
    rng = random.Random(47)

    def random_pattern():  # connected, <= 3 edges, variables renamed at random
        edges, n_vars = set(), 2
        edges.add((0, 1, rng.choice("AB")))
        for _ in range(rng.randint(0, 2)):
            u = rng.randrange(n_vars)
            v = rng.randrange(n_vars + 1)
            if u == v:
                continue
            n_vars = max(n_vars, v + 1)
            edges.add((u, v, rng.choice("AB")) if rng.random() < 0.5 else (v, u, rng.choice("AB")))
        names = rng.sample(["a", "b", "c", "d", "e"], n_vars)
        return tuple(sorted((names[u], names[v], lab) for u, v, lab in edges))

    def graph(pattern):
        gr = nx.MultiDiGraph()
        gr.add_edges_from((u, v, {"label": lab}) for u, v, lab in pattern)
        return gr

    patterns = [random_pattern() for _ in range(120)]
    graphs = [graph(p) for p in patterns]
    keys = [canonical_form(p)[0] for p in patterns]
    iso_pairs = 0
    for i, j in combinations(range(len(patterns)), 2):
        iso = nx.is_isomorphic(graphs[i], graphs[j], edge_match=match)
        assert (keys[i] == keys[j]) == iso, (patterns[i], patterns[j])
        iso_pairs += iso
    assert iso_pairs >= 100  # both outcomes are well represented


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_single_edge_workload_has_single_pattern():
    g = LabeledGraph([(1, 2, "A"), (2, 3, "A")])
    q = parse_query("a1 -A-> a2")
    cat = build_catalogue(g, [q], h=2)
    assert len(cat.counts) == 1
    assert _count(cat, q, [0]) == 2


def test_h_must_be_at_least_two():
    g = LabeledGraph([(1, 2, "A")])
    with pytest.raises(ConfigError):
        build_catalogue(g, [parse_query("a1 -A-> a2")], h=1)


def test_table1_fixture_counts(f1_graph, q3p):
    cat = build_catalogue(f1_graph, [q3p], h=2)
    assert _count(cat, q3p, [1]) == 2        # |->B|
    assert _count(cat, q3p, [0, 1]) == 4     # |->A->B|
    assert _count(cat, q3p, [1, 2]) == 3     # |->B->C|
    assert count_hom(f1_graph, q3p).value == 7


def test_counts_equal_oracle_on_random_instances():
    for seed in range(6):
        g = random_graph(20, 80, 4, seed=800 + seed)
        q = instantiate_template(tree_template(4, seed=seed), g, seed=seed, attempts=25)
        if q is None:
            continue
        cat = build_catalogue(g, [q], h=2)
        stats = QueryStats(q, cat)
        for s in connected_index_sets(q, 2):
            direct = count_hom(g, QueryGraph([QEdge(*t) for t in index_pattern(q, s)])).value
            assert stats.count(s) == direct


def test_deg_stats_equal_group_degree_oracle():
    g = random_graph(20, 90, 3, seed=900)
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat = build_catalogue(g, [q], h=2)
    table = QueryStats(q, cat).degrees(frozenset({0, 1}))
    for x, y in ((set(), {"a1", "a2", "a3"}), ({"a2"}, {"a2", "a3"}),
                 ({"a1"}, {"a1", "a2"}), (set(), {"a2"}), ({"a3"}, {"a1", "a3"})):
        assert table[tuple(sorted(x)), tuple(sorted(y))] == group_degree(g, q, x, y)


def test_max_deg_empty_x_full_y_is_count():
    g = random_graph(25, 100, 3, seed=901)
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat = build_catalogue(g, [q], h=2)
    stats, s = QueryStats(q, cat), frozenset({0, 1})
    assert stats.degrees(s)[(), ("a1", "a2", "a3")] == stats.count(s)


def test_deg_stats_and_counts_equal_brute_force_on_every_pattern():
    checked = 0
    for seed in range(3):
        g = random_graph(12, 45, 3, seed=950 + seed, plant_cycles=4)
        for h, templates in ((2, (tree_template(4, seed=seed), cycle_template(4))),
                             (3, (cycle_template(3), cycle_template(4)))):
            queries = [q for q in (instantiate_template(t, g, seed=seed, attempts=50)
                                   for t in templates) if q is not None]
            cat = build_catalogue(g, queries, h=h, walk_budget=10, seed=seed)
            for key, table in cat.deg_stats.items():
                rep = _key_to_query(key)
                assert table == brute_deg_table(g, rep)
                assert cat.counts[key] == nested_loop_count(g, rep)
                checked += 1
    assert checked >= 30


def test_one_and_two_edge_tables_list_no_match_rows(monkeypatch):
    g = random_graph(12, 45, 3, seed=951, plant_cycles=4)
    # antiparallel edges 0, 1 give the one 2-edge pattern over two variables
    q = parse_query("a -A-> b\nb -A-> a\nb -B-> c\nc -A-> d\nd -C-> b")
    listed = []
    real = oracle.matches
    monkeypatch.setattr(oracle, "matches", lambda g, p: listed.append(p) or real(g, p))
    cat = build_catalogue(g, [q], h=3)
    shapes = {(len(rep.edges), len(rep.vars)) for rep in map(_key_to_query, cat.counts)}
    assert {(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)} <= shapes
    assert {(len(p.edges), len(p.vars)) for p in listed} == shapes - {(1, 2), (2, 3)}


def test_deg_stats_of_pattern_without_matches_are_zero():
    g = LabeledGraph([(1, 2, "A"), (3, 4, "B")])
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat = build_catalogue(g, [q], h=2)
    key = canonical_form(index_pattern(q, [0, 1]))[0]
    assert cat.counts[key] == 0
    assert len(cat.deg_stats[key]) == 27
    assert set(cat.deg_stats[key].values()) == {0}


def test_degree_table_names_every_entry_by_the_subquery_variables():
    g = random_graph(20, 90, 3, seed=902)
    q = parse_query("b7 -A-> a2\na2 -B-> c1")
    cat = build_catalogue(g, [q], h=2)
    s = frozenset({0, 1})
    table = QueryStats(q, cat).degrees(s)
    pairs = {(x, y) for y in _all_subsets(sorted(q.vars)) for x in _all_subsets(y)}
    assert set(table) == pairs and len(pairs) == 27
    for (x, y), deg in table.items():
        assert deg == group_degree(g, q, x, y)
    key = canonical_form(index_pattern(q, s))[0]
    cat.deg_stats[key].pop(next(iter(cat.deg_stats[key])))
    with pytest.raises(MissingStatisticError, match="degree table for pattern"):
        QueryStats(q, cat).degrees(s)


def _all_subsets(items):
    return [c for k in range(len(items) + 1) for c in combinations(items, k)]


def test_lookup_of_unbuilt_pattern_absent():
    g = LabeledGraph([(1, 2, "A")])
    q = parse_query("a1 -A-> a2")
    cat = build_catalogue(g, [q], h=2)
    other = parse_query("a1 -Z-> a2")
    with pytest.raises(MissingStatisticError, match="count for pattern"):
        _count(cat, other, [0])
    assert cat.closing_rate("nope") is None


# ---------------------------------------------------------------------------
# Closing rates
# ---------------------------------------------------------------------------

SQUARE = parse_query("a1 -P-> a2\na2 -Q-> a3\na3 -R-> a4\na4 -S-> a1")


def _square_graph(n_closed: int, n_open: int) -> LabeledGraph:
    edges = []
    v = 0
    for _ in range(n_closed):
        a, b, c, d = v, v + 1, v + 2, v + 3
        v += 4
        edges += [(a, b, "P"), (b, c, "Q"), (c, d, "R"), (d, a, "S")]
    for _ in range(n_open):
        a, b, c, d = v, v + 1, v + 2, v + 3
        v += 4
        edges += [(a, b, "P"), (b, c, "Q"), (c, d, "R")]
    return LabeledGraph(edges)


def test_closing_rate_exhaustive_all_closed():
    g = _square_graph(5, 0)
    cat = build_catalogue(g, [SQUARE], h=2, walk_budget=None)
    (cyc,) = cycles(SQUARE).cycles
    for close_idx in range(4):
        spec = closing_spec(SQUARE, cyc, close_idx)
        assert cat.closing_rate(spec.key()) == Fraction(1)


def test_closing_rate_exhaustive_half_closed():
    g = _square_graph(3, 3)
    cat = build_catalogue(g, [SQUARE], h=2, walk_budget=None)
    (cyc,) = cycles(SQUARE).cycles
    spec = closing_spec(SQUARE, cyc, 3)  # close with the S edge
    assert cat.closing_rate(spec.key()) == Fraction(3, 6)


def test_closing_rate_zero_closures():
    g = _square_graph(0, 4)
    cat = build_catalogue(g, [SQUARE], h=2, walk_budget=None)
    (cyc,) = cycles(SQUARE).cycles
    spec = closing_spec(SQUARE, cyc, 3)
    assert cat.closing_rate(spec.key()) == Fraction(0)


def test_exhaustive_closing_stats_match_brute_walks():
    """walk_budget=None: samples are all walks of the spec, closures the closed ones."""
    closed_total = 0
    for seed in range(15):
        rng = random.Random(seed)
        g = random_graph(12, 50, 2, seed=800 + seed, plant_cycles=4)
        k = 3 + seed % 3
        q = QueryGraph([QEdge(f"a{i}", f"a{(i + 1) % k}", rng.choice("AB"))
                        if rng.random() < 0.5 else
                        QEdge(f"a{(i + 1) % k}", f"a{i}", rng.choice("AB"))
                        for i in range(k)])
        cat = build_catalogue(g, [q], h=2, walk_budget=None)
        (cyc,) = cycles(q).cycles
        specs: dict = {}
        for close_idx in sorted(cyc):  # keys are coarse: the first spec per key is walked
            spec = closing_spec(q, cyc, close_idx)
            specs.setdefault(spec.key(), spec)
        assert cat.closing.keys() == specs.keys()
        for key, spec in specs.items():
            walks = brute_label_walks(g, spec.walk)
            a, b = (-1, 0) if spec.close_from_end else (0, -1)
            closed = sum(g.has_edge(w[a], w[b], spec.close_label) for w in walks)
            assert (cat.closing[key].samples, cat.closing[key].closures) == (len(walks), closed)
            closed_total += closed
    assert closed_total > 0


def test_closing_spec_is_stable_across_calls():
    (cyc,) = cycles(SQUARE).cycles
    a = closing_spec(SQUARE, cyc, 2)
    b = closing_spec(SQUARE, cyc, 2)
    assert a == b
    assert a.length == 3


def test_closing_table_at_most_cubic_in_labels():
    g = _square_graph(4, 2)
    cat = build_catalogue(g, [SQUARE], h=2, walk_budget=200)
    n_labels = len(g.labels)
    by_len: dict[int, int] = {}
    for key in cat.closing:
        import json
        length = json.loads(key)[3]
        by_len[length] = by_len.get(length, 0) + 1
    for count in by_len.values():
        assert count <= n_labels ** 3


def test_sampled_closing_rate_close_to_truth():
    g = _square_graph(10, 10)
    cat = build_catalogue(g, [SQUARE], h=2, walk_budget=4000, seed=5)
    (cyc,) = cycles(SQUARE).cycles
    spec = closing_spec(SQUARE, cyc, 3)
    rate = cat.closing_rate(spec.key())
    assert Fraction(1, 4) < rate < Fraction(3, 4)  # truth is 1/2


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_empty_catalogue_round_trip():
    cat = Catalogue(h=2)
    buf = io.StringIO(serialize(cat))
    again = load(buf)
    assert again.h == 2
    assert again.counts == {}


def test_f1_round_trip_preserves_counts(f1_graph, q3p):
    cat = build_catalogue(f1_graph, [q3p], h=2)
    text = serialize(cat)
    again = load(io.StringIO(text))
    assert again.counts == cat.counts
    assert again.deg_stats == cat.deg_stats
    assert serialize(again) == text


def test_random_catalogue_byte_identical_reserialization():
    g = _square_graph(3, 2)
    cat = build_catalogue(g, [SQUARE], h=2, walk_budget=100, seed=9)
    text = serialize(cat)
    again = load(io.StringIO(text))
    assert serialize(again) == text
    assert again.closing.keys() == cat.closing.keys()
    for key in cat.closing:
        assert again.closing_rate(key) == cat.closing_rate(key)


def test_load_accepts_older_files_with_closing_marginal():
    cat = build_catalogue(_square_graph(3, 2), [SQUARE], h=2, walk_budget=100, seed=9)
    text = serialize(cat)
    payload = json.loads(text)
    assert "closingMarginal" not in payload
    payload["closingMarginal"] = {'["P+","S:e>s","R-",null]': {
        "samples": 100, "closures": 3, "rate": {"num": 3, "den": 100}}}
    again = load(io.StringIO(json.dumps(payload)))
    assert serialize(again) == text


def test_load_rejects_malformed():
    with pytest.raises(CatalogueFormatError):
        load(io.StringIO("not json"))
    with pytest.raises(CatalogueFormatError):
        load(io.StringIO('{"version": 99}'))
    for not_an_object in ("[1,2]", "3"):
        with pytest.raises(CatalogueFormatError):
            load(io.StringIO(not_an_object))


def test_save_load_file_round_trip(tmp_path, f1_graph, q3p):
    cat = build_catalogue(f1_graph, [q3p], h=2)
    path = str(tmp_path / "cat.json")
    save(cat, path)
    again = load(path)
    assert again.counts == cat.counts
    assert again.footprint_bytes() == cat.footprint_bytes()


def test_exhaustive_mode_small_label_set():
    g = LabeledGraph([(1, 2, "A"), (2, 3, "B"), (3, 1, "A")])
    cat = build_catalogue(g, None, h=2, exhaustive=True)
    q = parse_query("a1 -A-> a2")
    assert _count(cat, q, [0]) == 2
    # every stored count matches the oracle
    for key, value in cat.counts.items():
        from cardest.catalogue import _key_to_query
        assert count_hom(g, _key_to_query(key)).value == value


def test_exhaustive_mode_guarded():
    g = random_graph(30, 200, 8, seed=1)
    with pytest.raises(ConfigError):
        build_catalogue(g, None, h=3, exhaustive=True, max_exhaustive_patterns=100)
