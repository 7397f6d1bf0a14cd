from __future__ import annotations

import gc
import math
import random
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from cardest import catalogue, estgraph, estimators
from cardest.catalogue import QueryStats, build_catalogue, canonical_form, closing_spec
from cardest.errors import EstimationError, MissingStatisticError, PathOverflowError
from cardest.estgraph import (CYCLE_CLOSING, EXTENSION, AttrCeg, Ceg, PathEstimate,
                              build_cover, build_maxdeg, build_optimistic,
                              enumerate_paths, iter_paths, min_weight_path,
                              path_summary, to_dot)
from cardest.estimators import (ALL_CHOICES, KIND_AVG, KIND_CLOSING, HeuristicChoice,
                                ceg_summary, estimate_optimistic, estimate_pstar)
from cardest.estimators import estimate_molp
from cardest.evalharness import qerror
from cardest.graphstore import LabeledGraph
from cardest.oracle import count_hom
from cardest.querymodel import (QueryGraph, connected_index_sets, cycles, index_pattern,
                                instantiate_template, parse_query)
from cardest.sketch import make_sketch, partition_catalogues

from _summary_check import aggregate_paths, summary_mismatches
from _synth import cycle_template, random_graph, star_template, tree_template
from conftest import SQUARE, TRIANGLE, edited_degree_tables, rate_path, square_graph
from oracles import dag_min_path, dag_min_product, dfs_path_count, molp_certificate

SEVEN_FORK_ESTIMATES = {
    Fraction(105, 2),   # 52.5
    Fraction(54),
    Fraction(55),
    Fraction(56),
    Fraction(396, 7),   # 56.571...
    Fraction(288, 5),   # 57.6
    Fraction(176, 3),   # 58.666...
}


def _cat(g, queries, h=2, **kw):
    return build_catalogue(g, queries, h, **kw)


# ---------------------------------------------------------------------------
# Path-product arithmetic
# ---------------------------------------------------------------------------

def test_path_product_52_5():
    p = rate_path([4, Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)])
    assert p.estimate == Fraction(105, 2)
    assert float(p.estimate) == 52.5


def test_path_product_126():
    p = rate_path([7, 3, 2, 1, 3])
    assert p.estimate == 126


# ---------------------------------------------------------------------------
# Optimistic graph
# ---------------------------------------------------------------------------

def test_single_edge_query_single_path():
    g = random_graph(20, 60, 2, seed=1)
    q = parse_query("a1 -A-> a2")
    ceg = build_optimistic(q, _cat(g, [q]))
    paths = enumerate_paths(ceg)
    assert len(paths) == 1
    assert paths[0].estimate == g.label_count("A")


def test_fork_h2_has_36_paths_and_7_estimates(fork_graph, q5f):
    ceg = build_optimistic(q5f, _cat(fork_graph, [q5f]))
    paths = enumerate_paths(ceg)
    assert len(paths) == 36
    assert {p.estimate for p in paths} == SEVEN_FORK_ESTIMATES


def test_fork_h2_leftmost_style_rates(fork_graph, q5f):
    ceg = build_optimistic(q5f, _cat(fork_graph, [q5f]))
    rate_seqs = {tuple(e.rate for e in p.edges) for p in iter_paths(ceg)}
    assert (Fraction(4), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)) in rate_seqs


def test_fork_h2_all_starts_superset(fork_graph, q5f):
    anchored = enumerate_paths(build_optimistic(q5f, _cat(fork_graph, [q5f])))
    everything = enumerate_paths(
        build_optimistic(q5f, _cat(fork_graph, [q5f]), starts="all"))
    assert len(everything) > len(anchored)
    assert {p.estimate for p in anchored} <= {p.estimate for p in everything}


def test_fork_h3_short_and_long_hop_paths(fork_graph, q5f):
    cat = _cat(fork_graph, [q5f], h=3)
    ceg = build_optimistic(q5f, cat)
    paths = enumerate_paths(ceg)
    hops = {p.hops for p in paths}
    assert 2 in hops and 3 in hops
    # |ABC| * |CDE|/|C| = 7 * 30/3 = 70 (short hop)
    assert any(p.hops == 2 and p.estimate == 70 for p in paths)
    # |ABC| * |ABD|/|AB| * |ABE|/|AB| = 7 * (11/4) * (15/4) (long hop)
    assert any(p.hops == 3 and p.estimate == Fraction(7 * 11 * 15, 16) for p in paths)


def test_acyclic_query_with_h_at_least_m_single_exact_path(fork_graph, q3p):
    cat = _cat(fork_graph, [q3p], h=3)
    ceg = build_optimistic(q3p, cat)
    paths = enumerate_paths(ceg)
    assert all(p.estimate == count_hom(fork_graph, q3p).value for p in paths)


def test_missing_pattern_raises(fork_graph, q5f, q3p):
    cat = _cat(fork_graph, [q3p])  # lacks the D/E patterns
    with pytest.raises(MissingStatisticError):
        build_optimistic(q5f, cat)


def test_zero_count_intersection_gives_zero_rate_path():
    # B-edges exist but no A->B chains: the chain pattern counts 0.
    g = LabeledGraph([(1, 2, "A"), (3, 4, "B")])
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    ceg = build_optimistic(q, _cat(g, [q]))
    paths = enumerate_paths(ceg)
    assert paths
    assert all(p.estimate == 0 for p in paths)


def test_paths_visit_strictly_growing_subqueries(fork_graph, q5f):
    for h in (2, 3):
        ceg = build_optimistic(q5f, _cat(fork_graph, [q5f], h=h))
        for p in iter_paths(ceg):
            sizes = [len(v) for v in p.vertices()]
            assert sizes == sorted(set(sizes))  # strictly increasing


def test_path_counts_match_plain_dfs(fork_graph, q5f):
    ceg = build_optimistic(q5f, _cat(fork_graph, [q5f]))
    assert path_summary(ceg).count() == dfs_path_count(ceg) == 36


def test_enumeration_cap_enforced(fork_graph, q5f):
    ceg = build_optimistic(q5f, _cat(fork_graph, [q5f]))
    with pytest.raises(PathOverflowError):
        enumerate_paths(ceg, cap=10)


def test_overflow_messages_count_what_passed_the_cap(fork_graph, q5f, monkeypatch):
    # q5f's graph has 36 paths, whose estimates take 7 distinct values at bottom
    cat = _cat(fork_graph, [q5f])
    with pytest.raises(PathOverflowError) as listing:
        enumerate_paths(build_optimistic(q5f, cat), cap=10)
    assert str(listing.value) == "path enumeration needs 36 paths, cap is 10"
    monkeypatch.setattr(estgraph, "DEFAULT_PATH_CAP", 6)
    with pytest.raises(PathOverflowError) as distinct:
        estimate_pstar(q5f, cat, KIND_AVG, 42)
    assert str(distinct.value) == "P* needs 7 distinct path estimates at one vertex, cap is 6"


# ---------------------------------------------------------------------------
# Path summary (the heuristics' one pass) against enumeration
# ---------------------------------------------------------------------------

def _hand_ceg(edges) -> Ceg:
    """A Ceg from (src, dst, rate) triples over subsets of {0, 1, 2, 9}; top is {9}.
    Each source lists its arcs in `out` order: by target key, then exact rate."""
    names = (0, 1, 2, 9)
    mask = lambda v: sum(1 << names.index(i) for i in v)  # noqa: E731
    adjacency: dict = {}
    for n in sorted(range(len(edges)), key=lambda n: (sorted(edges[n][1]), Fraction(edges[n][2]))):
        src, dst, rate = edges[n]
        rate = Fraction(rate)
        adjacency.setdefault(mask(src), []).append(
            (mask(dst), rate.numerator, rate.denominator, EXTENSION, (("hand", n),)))
    return Ceg("edges", None, names, mask({9}), lambda v: adjacency.get(v, []), adjacency)


def _route(path: PathEstimate) -> list[tuple]:
    return [tuple(sorted(v)) for v in path.vertices()]


def test_out_orders_rates_that_share_a_float_exactly():
    # 1 + 2**-60 and 1 + 2**-61 both round to the float 1.0
    big, small = Fraction(2 ** 60 + 1, 2 ** 60), Fraction(2 ** 61 + 1, 2 ** 61)
    assert float(big) == float(small) == 1.0
    q = parse_query("x -A-> a\nx -B-> b\nx -C-> c")
    cat = _cat(LabeledGraph([(1, 2, "A"), (1, 3, "B"), (1, 4, "C")]), [q])
    for s, count in (({0}, 2 ** 60), ({0, 2}, 2 ** 60 + 1), ({1}, 2 ** 61), ({1, 2}, 2 ** 61 + 1)):
        cat.counts[canonical_form(index_pattern(q, s))[0]] = count
    ceg = build_optimistic(q, cat)
    # {0,1} reaches the top through {0,2} at rate big and through {1,2} at rate small
    assert [e.rate for e in ceg.out(frozenset({0, 1}))] == [small, big]
    lowest = path_summary(ceg).extreme(False)
    assert lowest.edges[-1].rate == small and lowest.estimate == small


def test_summary_follows_first_suffix_after_zero_rate_edge():
    # Every path crosses the zero-rate edge {} -> {0}, so each estimate is 0 and
    # the first path in DFS order ({1} before {2}) must be chosen, although the
    # larger suffix runs through {2}.
    ceg = _hand_ceg([((), (0,), 0), ((0,), (1,), 1), ((0,), (2,), 3),
                     ((1,), (9,), 1), ((2,), (9,), 1)])
    summary = path_summary(ceg)
    assert summary_mismatches(summary, enumerate_paths(ceg)) == []
    for aggr in ("max-aggr", "min-aggr"):
        est = estimate_optimistic(None, None, KIND_AVG, HeuristicChoice("max-hop", aggr),
                                  summary=summary)
        assert est.exact == 0 and est.considered_paths == 2
        assert _route(est.chosen_path) == [(), (0,), (1,), (9,)]


def test_summary_all_hops_tie_picks_dfs_first_not_shortest():
    # The max 6 is reached in 2 hops ({1} -> top) and in 3 hops ({1} -> {1,2} ->
    # top); {1,2} sorts before the top, so the DFS-first max is the longer one,
    # although 2 hops is also the hop count met first.
    ceg = _hand_ceg([((), (0,), 1), ((0,), (9,), 1),
                     ((), (1,), 2), ((1,), (9,), 3), ((1,), (1, 2), 3), ((1, 2), (9,), 1)])
    summary = path_summary(ceg)
    assert summary.hop_counts == (2, 3)
    assert summary_mismatches(summary, enumerate_paths(ceg)) == []
    est = estimate_optimistic(None, None, KIND_AVG, HeuristicChoice("all-hops", "max-aggr"),
                              summary=summary)
    assert est.exact == 6 and est.considered_paths == 3
    assert _route(est.chosen_path) == [(), (1,), (1, 2), (9,)]


def test_summary_skips_dead_end_vertices():
    # {0} has no way up to the top: only the path via {1} counts.
    ceg = _hand_ceg([((), (0,), 5), ((), (1,), 2), ((1,), (9,), 3), ((0,), (0, 2), 7)])
    summary = path_summary(ceg)
    assert summary.rows[frozenset({0})] == {}
    assert summary.count() == 1 and summary.total() == 6
    assert summary_mismatches(summary, enumerate_paths(ceg)) == []
    stuck = _hand_ceg([((), (0,), 5)])
    assert path_summary(stuck).count() == 0
    with pytest.raises(EstimationError):
        ceg_summary(stuck)


def test_summary_equals_enumeration_on_fixtures(fork_graph, q5f, q3p):
    for q in (q5f, q3p):
        for h in (2, 3):
            cat = _cat(fork_graph, [q], h=h)
            for kind in (KIND_AVG, KIND_CLOSING):
                ceg = build_optimistic(q, cat, closing=kind == KIND_CLOSING)
                paths = enumerate_paths(ceg)
                assert summary_mismatches(path_summary(ceg), paths) == []
                for choice in ALL_CHOICES:  # the default route builds its own summary
                    got = estimate_optimistic(q, cat, kind, choice)
                    assert (got.exact, got.considered_paths, got.chosen_path) == \
                        aggregate_paths(paths, choice)


def closest_path(ceg: Ceg) -> PathEstimate:
    """P*'s pass over the distinct path estimates, here keyed by the estimate."""
    return path_summary(ceg).closest(lambda estimate: estimate)


@pytest.mark.parametrize("read", [path_summary, closest_path, enumerate_paths])
def test_path_passes_leave_no_reference_cycle_holding_the_graph(fork_graph, q5f, read):
    # a graph derives its out-edges on demand, so it holds their statistics
    ceg = build_optimistic(q5f, _cat(fork_graph, [q5f]))
    gone = weakref.ref(ceg)
    gc.disable()
    try:
        read(ceg)
        del ceg
        assert gone() is None
    finally:
        gc.enable()


def _star(leaves: int) -> tuple[LabeledGraph, QueryGraph]:
    """Hubs 0, 1 and 2 with 5, 6 and 7 `A` out-edges, and the `leaves`-leaf
    `A` star on a0."""
    g = LabeledGraph([(hub, 100 + 10 * hub + i, "A") for hub in range(3)
                      for i in range(5 + hub)])
    return g, parse_query("\n".join(f"a0 -A-> a{j}" for j in range(1, leaves + 1)))


def test_optimistic_estimates_have_no_path_cap(fork_graph, q5f, monkeypatch):
    # The anchored graph of a 12-leaf star on one label has 10! paths, past
    # enumerate_paths' cap of 10**6.  Every estimate, P* too, reads the path
    # summary, so none of them lists a path or overflows.
    g, q = _star(12)
    cat = _cat(g, [q])
    ceg = build_optimistic(q, cat)
    with pytest.raises(PathOverflowError):
        enumerate_paths(ceg)
    summary = ceg_summary(ceg)
    truth = count_hom(g, q).value
    assert (summary.count(), truth) == (3628800, 5 ** 12 + 6 ** 12 + 7 ** 12)
    star = estimate_pstar(q, cat, KIND_AVG, truth, summary=summary)
    assert star.considered_paths == 3628800
    assert star.chosen_path.estimate == star.exact
    assert math.prod(e.rate for e in star.chosen_path.edges) == star.exact
    for choice in ALL_CHOICES:  # P* is the best single path
        got = estimate_optimistic(q, cat, KIND_AVG, choice, summary=summary)
        if choice.aggr != "avg-aggr":
            assert qerror(truth, star.exact)[0] <= qerror(truth, got.exact)[0], choice
    # The summary's cap is on the distinct estimates at one vertex: q5f's
    # bottom holds 7 of them.
    fork_cat = _cat(fork_graph, [q5f])
    monkeypatch.setattr(estgraph, "DEFAULT_PATH_CAP", 7)
    assert estimate_pstar(q5f, fork_cat, KIND_AVG, 42).considered_paths == 36
    monkeypatch.setattr(estgraph, "DEFAULT_PATH_CAP", 6)
    with pytest.raises(PathOverflowError):
        estimate_pstar(q5f, fork_cat, KIND_AVG, 42)


# ---------------------------------------------------------------------------
# Early cycle closing and the closing-rate graph
# ---------------------------------------------------------------------------

def _k4_query():
    return parse_query("\n".join([
        "a1 -A-> a2", "a1 -B-> a3", "a1 -C-> a4",
        "a2 -D-> a3", "a2 -E-> a4", "a3 -F-> a4"]))


def test_early_cycle_closing_prefers_cycle_edges():
    # Triangle plus tail: after matching the wedge of the triangle the only
    # considered extension closes the triangle, not the tail.
    g = random_graph(30, 150, 4, seed=3)
    q = parse_query("a1 -A-> a2\na2 -B-> a3\na3 -C-> a1\na3 -D-> a4")
    tri = frozenset({0, 1, 2})
    cat = _cat(g, [q])
    ceg = build_optimistic(q, cat)
    for p in iter_paths(ceg):
        seen = [e.dst for e in p.edges]
        three = next(v for v in seen if len(v) == 3)
        assert three == tri  # tail postponed until the cycle closes


def test_k4_no_chordless_square_subpath():
    g = random_graph(25, 200, 6, seed=4)
    q = _k4_query()
    big_cycles = [c for c in cycles(q).cycles if len(c) == 4]
    cat = _cat(g, [q])
    ceg = build_optimistic(q, cat)
    for p in iter_paths(ceg):
        for v in p.vertices():
            assert v not in big_cycles


def test_ocr_identical_when_no_large_cycle(fork_graph, q5f):
    cat = _cat(fork_graph, [q5f])
    plain = build_optimistic(q5f, cat)
    ocr = build_optimistic(q5f, cat, closing=True)
    key = lambda ceg: sorted((tuple(sorted(e.src)), tuple(sorted(e.dst)), e.rate, e.kind)
                             for e in ceg.all_edges())
    assert key(plain) == key(ocr)


def test_ocr_square_final_hop_uses_closing_rate():
    g = square_graph(6, 6)
    cat = _cat(g, [SQUARE], h=3, walk_budget=None)
    ceg = build_optimistic(SQUARE, cat, closing=True)
    top = frozenset(range(4))
    (cyc,) = cycles(SQUARE).cycles
    for p in iter_paths(ceg):
        last = p.edges[-1]
        assert last.dst == top
        assert last.kind == "cycle-closing"
    # the anchored start is {P,Q,R}; its closing hop adds the S edge
    spec = closing_spec(SQUARE, cyc, 3)
    assert any(e.rate == cat.closing_rate(spec.key())
               for e in ceg.all_edges() if e.kind == "cycle-closing")


def test_ocr_all_closed_square_estimates_path_count():
    g = square_graph(5, 0)
    cat = _cat(g, [SQUARE], h=3, walk_budget=None)
    ceg = build_optimistic(SQUARE, cat, closing=True)
    paths = enumerate_paths(ceg)
    assert paths
    for p in paths:
        assert p.estimate == 5  # count of open 3-paths, each closing exactly once


def test_ocr_missing_closing_rate_raises():
    g = square_graph(3, 1)
    cat = _cat(g, [SQUARE], h=3, walk_budget=None)
    cat.closing.clear()
    with pytest.raises(MissingStatisticError):
        build_optimistic(SQUARE, cat, closing=True)


def _hexagon_blowup() -> tuple[LabeledGraph, QueryGraph]:
    """Six classes of 2, 3, 4, 5, 2 and 3 vertices, label Li the complete
    bipartite graph from class i to class i + 1 (mod 6), and the 6-cycle
    xi -Li-> x(i+1).  Its labels force each variable's class, so its count is
    2 * 3 * 4 * 5 * 2 * 3 = 720."""
    sizes = (2, 3, 4, 5, 2, 3)
    g = LabeledGraph([(10 * i + a, 10 * ((i + 1) % 6) + b, f"L{i}") for i in range(6)
                      for a in range(sizes[i]) for b in range(sizes[(i + 1) % 6])])
    return g, parse_query("\n".join(f"x{i} -L{i}-> x{(i + 1) % 6}" for i in range(6)))


@pytest.mark.parametrize("h", [2, 3])
def test_ocr_never_completes_a_long_cycle_with_a_count_ratio(h):
    # At h=3 an extension adds two edges, so a hop could complete the 6-cycle
    # by adding two of its edges at once; its count ratio would count the
    # closing variable again (max-aggr read 5x the truth, avg-aggr 12/5x).
    # Such a hop gets no edge, and every hop into the top adds one closing edge.
    g, q = _hexagon_blowup()
    assert count_hom(g, q).value == 720
    cat = _cat(g, [q], h=h, walk_budget=None)
    for choice in ALL_CHOICES:
        assert estimate_optimistic(q, cat, KIND_CLOSING, choice).exact == 720, choice
    into_top = [e for e in build_optimistic(q, cat, closing=True).all_edges()
                if e.dst == frozenset(range(6))]
    assert into_top
    assert all(e.kind == CYCLE_CLOSING and len(e.dst - e.src) == 1 for e in into_top)


# ---------------------------------------------------------------------------
# On-demand out-edges and the statistics checked at build time
# ---------------------------------------------------------------------------

STAR4 = parse_query("a0 -A-> a1\na0 -B-> a2\na0 -A-> a3\na0 -B-> a4")
PATH4 = parse_query("a1 -A-> a2\na2 -B-> a3\na3 -A-> a4\na4 -B-> a5")


def _recording(ceg: Ceg, derived: list) -> Ceg:
    """`ceg`, noting in `derived` the vertex of each mask it derives."""
    derive, vertex = ceg._derive, ceg._sets.__getitem__
    ceg._derive = lambda v: derived.append(vertex(v)) or derive(v)
    return ceg


def test_estimate_derives_only_the_vertices_its_summary_visits(monkeypatch):
    g = random_graph(30, 150, 2, seed=11)
    cat = _cat(g, [STAR4])
    derived: list = []
    monkeypatch.setattr(estimators, "build_optimistic",
                        lambda *a, **kw: _recording(build_optimistic(*a, **kw), derived))
    estimate_optimistic(STAR4, cat, KIND_AVG, HeuristicChoice("max-hop", "max-aggr"))
    fresh = build_optimistic(STAR4, cat)
    visited = set(path_summary(fresh).rows) - {fresh.top}
    assert len(derived) == len(set(derived)) and set(derived) == visited
    # the anchored start {0, 1} reaches only its supersets
    assert all(v >= frozenset({0, 1}) for v in visited if v)
    sources = {e.src for e in fresh.all_edges()}
    assert len(visited) < len(sources) == 11   # the empty vertex and 6 + 4 index sets
    unforced: list = []
    _recording(build_optimistic(STAR4, cat), unforced)
    assert unforced == []


def test_optimistic_build_lists_the_lattice_only_for_listings(monkeypatch):
    g = random_graph(30, 150, 2, seed=11)
    cat = _cat(g, [PATH4])
    sizes: list[int] = []
    for module in (catalogue, estgraph):   # the statistics plan's, and the listings'
        monkeypatch.setattr(module, "connected_index_sets",
                            lambda q, n: sizes.append(n) or connected_index_sets(q, n))
    q = parse_query(PATH4.to_text())   # PATH4 keeps the plans other tests' builds made
    ceg = build_optimistic(q, cat, starts="all")
    path_summary(ceg)
    assert sizes == [2]  # the h-edge patterns only
    assert {e.src for e in ceg.all_edges()} == {frozenset(), frozenset({0, 1}), frozenset({1, 2}),
                                               frozenset({2, 3}), frozenset({0, 1, 2}),
                                               frozenset({1, 2, 3})}
    assert sizes == [2, 4]
    # not sources: too small, disconnected, the top, outside the query
    for v in ({0}, {0, 2}, {0, 1, 3}, {0, 1, 2, 3}, {1, 7}):
        assert build_optimistic(q, cat).out(frozenset(v)) == ()
    assert build_optimistic(q, cat).out(frozenset({1, 2}))


def _required_keys(q, h: int, closing: bool) -> list[tuple[str, str]]:
    """(catalogue field, key) of every statistic `build_optimistic` checks."""
    keys = [("counts", canonical_form(index_pattern(q, s))[0])
            for s in connected_index_sets(q, h)]
    if closing:
        keys += [("closing", closing_spec(q, c, i).key())
                 for c in cycles(q).longer_than(h) for i in sorted(c)]
    return keys


def test_build_raises_for_any_one_missing_statistic_and_later_reads_never_do(
        fork_graph, q5f, q3p):
    squares = square_graph(4, 2)
    cases = [(fork_graph, q5f, 2, False), (fork_graph, q5f, 3, False),
             (fork_graph, PATH4, 2, False), (squares, SQUARE, 3, True),
             (squares, SQUARE, 3, False)]
    for g, q, h, closing in cases:
        # another query's statistics too, so some deletions leave q's intact
        cat = _cat(g, [q, q3p, STAR4], h=h, walk_budget=None)
        required = set(_required_keys(q, h, closing))
        entries = [(field, key) for field in ("counts", "closing")
                   for key in sorted(getattr(cat, field))]
        assert required < set(entries)
        for field, key in entries:
            table = getattr(cat, field)
            value = table.pop(key)
            try:
                if (field, key) in required:
                    with pytest.raises(MissingStatisticError):
                        build_optimistic(q, cat, closing=closing)
                    continue
                ceg = build_optimistic(q, cat, closing=closing)
                path_summary(ceg)
                list(iter_paths(ceg))
                list(ceg.all_edges())
            finally:
                table[key] = value


def test_a_warm_plan_still_checks_every_statistic_at_build_time(fork_graph, q5f, q3p):
    squares = square_graph(4, 2)
    for g, q, h, closing in [(fork_graph, q5f, 2, False), (fork_graph, q5f, 3, False),
                             (squares, SQUARE, 3, True)]:
        cat = _cat(g, [q, q3p, STAR4], h=h, walk_budget=None)
        q = parse_query(q.to_text())
        list(build_optimistic(q, cat, closing=closing).all_edges())   # plans every source
        for field, key in _required_keys(q, h, closing):
            table = getattr(cat, field)
            value = table.pop(key)
            try:
                with pytest.raises(MissingStatisticError):
                    build_optimistic(q, cat, closing=closing)
            finally:
                table[key] = value
        ceg = build_optimistic(q, cat, closing=closing)
        cat.counts.clear()   # the build read every statistic: later reads need none
        cat.closing.clear()
        path_summary(ceg)
        list(ceg.all_edges())


# ---------------------------------------------------------------------------
# Max-degree graph
# ---------------------------------------------------------------------------

def test_maxdeg_single_edge_min_is_relation_size():
    g = random_graph(25, 80, 2, seed=5)
    q = parse_query("a1 -A-> a2")
    ceg = build_maxdeg(q, _cat(g, [q]))
    best = min_weight_path(ceg)
    assert best.estimate == g.label_count("A")


def test_maxdeg_fork_minimum_weight(fork_graph, q5f):
    cat = _cat(fork_graph, [q5f])
    ceg = build_maxdeg(q5f, cat)
    best = min_weight_path(ceg)
    assert best.estimate == 96
    assert best.estimate >= count_hom(fork_graph, q5f).value  # 78


def test_maxdeg_every_path_is_safe_random_instances():
    # min over all paths >= truth <=> every path >= truth; the DP oracle
    # avoids materializing the multi-million-path sets of 5-var queries.
    rng = random.Random(6)
    checked = 0
    for seed in range(10):
        g = random_graph(30, 120, 4, seed=1000 + seed)
        q = instantiate_template(tree_template(4, seed=seed), g,
                                 seed=rng.randrange(1 << 20), attempts=25)
        if q is None:
            continue
        checked += 1
        cat = _cat(g, [q])
        truth = count_hom(g, q).value
        assert dag_min_product(build_maxdeg(q, cat)) >= truth
    assert checked >= 4


def test_maxdeg_every_path_safe_small_literal_enumeration():
    g = random_graph(25, 100, 3, seed=1042)
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat = _cat(g, [q])
    truth = count_hom(g, q).value
    ceg = build_maxdeg(q, cat)
    paths = list(iter_paths(ceg))
    assert paths
    assert all(p.estimate >= truth for p in paths)
    assert min(p.estimate for p in paths) == dag_min_product(ceg)


def test_maxdeg_min_equals_enumeration_minimum(fork_graph, q5f):
    cat = _cat(fork_graph, [q5f])
    ceg = build_maxdeg(q5f, cat)
    assert min_weight_path(ceg).estimate == dag_min_product(ceg)


def _hand_moves(q, degrees):
    """Moves ("hand", i) of the i-th (X names, Y names, deg), as masks over q's
    variables in sorted name order."""
    bit = {v: 1 << i for i, v in enumerate(sorted(q.vars))}
    mask = lambda names: sum(bit[v] for v in names)  # noqa: E731
    return [(mask(x), mask(y), deg, ("hand", i)) for i, (x, y, deg) in enumerate(degrees)]


def test_min_weight_path_assumes_no_degree_monotone_in_x():
    # for Y = {a, b, c}, deg({a, b}, Y) = 50 > deg({a}, Y) = 4 and
    # deg({b, c}, Y) = 30 > deg({c}, Y) = 2: at {a, b} the cheapest move into
    # the top is the one of X = {a}, not of the largest X within the vertex
    q = parse_query("a -A-> b\nb -B-> c")
    degrees = [((), ("a",), 60), ((), ("b",), 5), ((), ("c",), 90), ((), ("a", "b"), 2),
               (("a",), ("a", "b"), 3), (("b",), ("a", "b"), 8), (("b",), ("b", "c"), 7),
               ((), ("a", "b", "c"), 100), (("a",), ("a", "b", "c"), 4),
               (("a", "b"), ("a", "b", "c"), 50), (("c",), ("a", "b", "c"), 2),
               (("b", "c"), ("a", "b", "c"), 30)]
    ceg = AttrCeg(q, _hand_moves(q, degrees))
    best = min_weight_path(ceg)
    want = min(iter_paths(ceg), key=lambda p: (p.estimate,
                                               [tuple(sorted(v)) for v in p.vertices()]))
    assert best.estimate == dag_min_product(ceg) == 8
    assert best.edges == want.edges
    assert [e.provenance for e in best.edges] == [(("hand", 3),), (("hand", 8),)]


def test_min_weight_path_breaks_ties_over_every_tight_edge():
    # five paths weigh 6.  Three reach {a, b} at weight 2: straight from
    # bottom, from {b}, and, first in key order, from {a} by a degree-1 move
    # that the search meets after popping {a, b} (larger masks pop first on
    # equal weights).  The paths through {a, c} tie too, but sort after.
    q = parse_query("a -A-> b\nb -B-> c")
    degrees = [((), ("a",), 2), ((), ("b",), 2), ((), ("a", "b"), 2),
               (("a",), ("a", "b"), 1), (("b",), ("a", "b"), 1), (("b",), ("b", "c"), 3),
               (("a",), ("a", "c"), 3), (("c",), ("b", "c"), 1)]
    ceg = AttrCeg(q, _hand_moves(q, degrees))
    key = lambda p: (p.estimate, [tuple(sorted(v)) for v in p.vertices()])  # noqa: E731
    paths = sorted(iter_paths(ceg), key=key)
    assert [p.estimate for p in paths[:6]] == [6, 6, 6, 6, 6, 12]
    best = min_weight_path(ceg)
    assert best.edges == paths[0].edges
    assert [tuple(sorted(v)) for v in best.vertices()] == [(), ("a",), ("a", "b"),
                                                           ("a", "b", "c")]
    assert [e.rate for e in best.edges] == [2, 1, 3]


def _lighter_superset_vertices(ceg, bound) -> int:
    """How many vertices W within `bound` of bottom have some W | {v} strictly
    lighter: those min_weight_path may pop and then skip."""
    dist = {ceg.bottom: Fraction(1)}
    for size in range(len(ceg.top)):  # every edge grows its vertex: sizes order them
        for v in [u for u in dist if len(u) == size]:
            for e in ceg.out(v):
                weight = dist[v] * e.rate
                if weight < dist.get(e.dst, weight + 1):
                    dist[e.dst] = weight
    return sum(d <= bound and any(dist.get(v | {x}, d) < d for x in ceg.top - v)
               for v, d in dist.items())


def _drawn_bound_cases():
    """(graph, query, cover) for 10 queries of 6 to 9 variables on small
    random graphs, the cover of some single sides where one spans q."""
    rng = random.Random(30)
    templates = ([star_template(5), star_template(8, out=False)]
                 + [tree_template(k, seed=k) for k in (5, 6, 7, 8)]
                 + [cycle_template(k) for k in (6, 7, 8, 9)])
    for i, template in enumerate(templates):
        g = random_graph(20, 70, 2, seed=3000 + i, plant_cycles=6)
        q = instantiate_template(template, g, seed=rng.randrange(1 << 20), mode="edge-at-a-time")
        assert q is not None and 6 <= len(q.vars) <= 9
        cover = [(j, e.vars()) for j, e in enumerate(q.edges)]
        for _ in range(20):
            drawn = [(j, rng.choice([e.vars(), e.vars(), (e.src,), (e.dst,)]))
                     for j, e in enumerate(q.edges)]
            if {v for _, attrs in drawn for v in attrs} == set(q.vars):
                cover = drawn
                break
        yield g, q, cover


def test_bound_path_is_the_dp_least_path_where_supersets_are_skipped():
    # the enumeration property stops at 4 variables, where few popped vertices
    # have a lighter superset; on 6 to 9 variables many do, so the search skips
    # them, and its path must still be the least by (weight, vertex keys)
    skippable = {"maxdeg": 0, "cover": 0}
    for g, q, cover in _drawn_bound_cases():
        cat = _cat(g, [q])
        for kind, ceg in (("maxdeg", build_maxdeg(q, cat)), ("cover", build_cover(q, cat, cover))):
            best = min_weight_path(ceg)
            assert best.estimate > 0   # a non-empty instance: every degree is at least 1
            assert best.edges == dag_min_path(ceg)
            skippable[kind] += _lighter_superset_vertices(ceg, best.estimate)
    assert all(skippable.values()), skippable


def test_drawn_bounds_are_certified_lp_optima():
    # the certificate reads only the degree tables, so it checks the search's
    # skips and moves from outside; these bounds are all positive
    for g, q, _ in _drawn_bound_cases():
        cat = _cat(g, [q])
        assert molp_certificate(q, cat) == estimate_molp(q, cat).exact > 0


def test_bound_search_memory_on_a_long_chain():
    # a 12-edge chain on a graph with real degrees pushes tens of thousands of
    # vertices.  One distance and predecessor list per vertex peaks at about
    # 2.9 MB on Python 3.10 to 3.13; a key tuple per push took about 5.5 MB.
    rng = random.Random(1)
    g = LabeledGraph([(rng.randrange(400), rng.randrange(400), "A") for _ in range(2000)])
    q = parse_query("\n".join(f"a{i} -A-> a{i + 1}" for i in range(12)))
    cat = _cat(g, [q])
    tracemalloc.start()
    try:
        bound = estimate_molp(q, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound.exact == 26583327205897
    assert peak < 4_000_000


def test_maxdeg_plan_keeps_no_catalogue_value():
    # every bound below reads the one plan kept on q, and only the degrees of
    # the catalogue or statistics it is handed
    g = random_graph(30, 140, 3, seed=1301)
    q = parse_query("a -A-> b\nb -B-> c")
    cat = _cat(g, [q])
    bound = estimate_molp(q, cat).exact
    assert bound > 1
    kept = q.ceg_plans[("stats", 2)]
    assert QueryStats(q, cat).plan is kept
    key = canonical_form(index_pattern(q, range(2)))[0]

    def with_table(table):
        return replace(cat, deg_stats=dict(cat.deg_stats, **{key: table}))

    # deg(∅, {a, b, c}) = 1 is a move straight to the top
    assert estimate_molp(q, with_table(dict(cat.deg_stats[key], **{"|0,1,2": 1}))).exact == 1
    assert estimate_molp(q, cat).exact == bound
    edited = edited_degree_tables(cat.deg_stats[key])
    for name in ("short", "extra"):
        with pytest.raises(MissingStatisticError, match="degree table for pattern"):
            estimate_molp(q, with_table(edited[name]))
    # sketch components' statistics hold their own tables, keyed by q's masks
    plan, components = make_sketch(q, g, estimate_molp(q, cat).chosen_path, 4)
    parts = partition_catalogues(q, 2, [dict(zip(plan.attrs, c.index)) for c in components],
                                 plan.buckets)
    got = [estimate_molp(q, part).exact for part in parts]
    assert got == [estimate_molp(c.query, _cat(c.graph, [c.query])).exact for c in components]
    assert bound not in got
    assert q.ceg_plans[("stats", 2)] is kept and all(part.plan is kept for part in parts)


def test_maxdeg_zero_relation_short_circuits():
    g = LabeledGraph([(1, 2, "A"), (3, 4, "B")])
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    ceg = build_maxdeg(q, _cat(g, [q]))
    assert min_weight_path(ceg).estimate == 0


def test_min_weight_path_zero_bound_on_graph_too_large_to_list():
    # 14 variables, past MAX_ATTR_VARS, and the only B edge is off the A path
    q = parse_query("\n".join([f"a{i} -A-> a{i + 1}" for i in range(12)] + ["a12 -B-> a13"]))
    g = LabeledGraph([(i, i + 1, "A") for i in range(13)] + [(100, 101, "B")])
    cat = _cat(g, [q])
    assert estimate_molp(q, cat).exact == 0
    path = min_weight_path(build_maxdeg(q, cat))
    assert path.estimate == 0
    vertices = path.vertices()
    assert vertices[0] == frozenset() and vertices[-1] == frozenset(q.vars)
    assert all(e.src == v and e.dst == w for e, v, w in zip(path.edges, vertices, vertices[1:]))
    assert any(e.rate == 0 for e in path.edges)


def test_min_weight_path_searches_only_attribute_subset_graphs(fork_graph, q3p):
    with pytest.raises(ValueError):
        min_weight_path(build_optimistic(q3p, _cat(fork_graph, [q3p])))


def test_min_weight_path_unreachable_top_raises():
    g = LabeledGraph([(1, 2, "A")])
    q = parse_query("a1 -A-> a2")
    cat = _cat(g, [q])
    cat.deg_stats = {k: {} for k in cat.deg_stats}
    with pytest.raises((EstimationError, MissingStatisticError)):
        min_weight_path(build_maxdeg(q, cat))


# ---------------------------------------------------------------------------
# Cover graph
# ---------------------------------------------------------------------------

def test_cover_graph_is_subgraph_of_maxdeg():
    g = random_graph(20, 90, 3, seed=7)
    q = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat = _cat(g, [q])
    cover = [(0, ("a1", "a2")), (1, ("a2", "a3"))]
    cover_edges = {(tuple(sorted(e.src)), tuple(sorted(e.dst)), e.rate)
                   for e in build_cover(q, cat, cover).all_edges()}
    maxdeg_edges = {(tuple(sorted(e.src)), tuple(sorted(e.dst)), e.rate)
                    for e in build_maxdeg(q, cat).all_edges()}
    assert cover_edges <= maxdeg_edges


def test_cover_constraint_families():
    g = random_graph(20, 90, 3, seed=8)
    cat = _cat(g, [TRIANGLE])
    cover = [(0, ("a", "b")), (1, ("b", "c")), (2, ("c", "a"))]
    ceg = build_cover(TRIANGLE, cat, cover)
    families = {e.provenance[0] for e in ceg.all_edges()}
    by_pair: dict[int, set] = {}
    for fam in families:
        assert fam[0] == "cover"
        by_pair.setdefault(fam[1], set()).add(fam)
    assert set(by_pair) == {0, 1, 2}
    for fams in by_pair.values():
        assert len(fams) == 3  # Aj' in {empty, {x}, {y}}
    # two-pair cover over a 2-edge query: 6 families total, 3 per pair
    q2 = parse_query("a1 -A-> a2\na2 -B-> a3")
    cat2 = _cat(g, [q2])
    ceg2 = build_cover(q2, cat2, [(0, ("a1", "a2")), (1, ("a2", "a3"))])
    assert len({e.provenance[0] for e in ceg2.all_edges()}) == 6


def test_cover_path_always_exists_and_dominates():
    rng = random.Random(9)
    for seed in range(6):
        g = random_graph(25, 110, 3, seed=1100 + seed)
        q = instantiate_template(tree_template(3, seed=seed), g,
                                 seed=rng.randrange(1 << 20), attempts=25)
        if q is None:
            continue
        cat = _cat(g, [q])
        cover = [(i, q.edge_vars(i)) for i in range(len(q.edges))]
        dceg = build_cover(q, cat, cover)
        m_min = min_weight_path(build_maxdeg(q, cat)).estimate
        d_paths = list(iter_paths(dceg))
        assert d_paths
        assert all(p.estimate >= m_min for p in d_paths)


def test_cover_must_span_vars():
    g = random_graph(10, 40, 3, seed=10)
    cat = _cat(g, [TRIANGLE])
    from cardest.errors import QueryValidationError
    with pytest.raises(QueryValidationError):
        build_cover(TRIANGLE, cat, [(0, ("a", "b"))])


def test_dot_dump_mentions_rates(fork_graph, q3p):
    ceg = build_optimistic(q3p, _cat(fork_graph, [q3p]))
    dot = to_dot(ceg)
    assert dot.startswith("digraph")
    assert "1.5" in dot  # the 3/2 extension rate
