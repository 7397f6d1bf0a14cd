"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and the informational trend tables.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from cardest.catalogue import (QueryStats, _key_to_query, _reads_adjacency,
                               build_catalogue, canonical_form, serialize)
from cardest.errors import MissingStatisticError, SketchPlanError
from cardest.estgraph import (CYCLE_CLOSING, build_cover, build_maxdeg, build_optimistic,
                              enumerate_paths, iter_paths, min_weight_path, path_summary,
                              to_dot)
from cardest.estimators import (ALL_CHOICES, HeuristicChoice, KIND_AVG,
                                KIND_CLOSING, ceg_summary, estimate_molp,
                                estimate_optimistic, estimate_pstar,
                                optimistic_ceg)
from cardest.evalharness import (WorkloadItem, expand_methods, qerror,
                                 run_workload, summarize)
from cardest.graphstore import LabeledGraph
from cardest.oracle import count_hom, matches
from cardest.querymodel import (connected_index_sets, cycles, index_pattern,
                                instantiate_template, parse_query)
from cardest.sketch import estimate_with_sketch, make_sketch

from _summary_check import (aggregate_paths, pstar_mismatches, pstar_paths,
                            summary_mismatches)
import gen
from _synth import (make_instances, path_template, star_template, tree_template,
                    cycle_template)
from conftest import identity_triangle, rate_path
from oracles import dag_min_product, group_degree, molp_certificate, projection_molp


def _pass(criterion: int, elapsed: float, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS ({elapsed:6.2f}s) {message}")


# ---------------------------------------------------------------------------
# Shared 500-instance corpus (criteria 4, 5, 6, 7, 9, 10)
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    entries: list  # (graph, catalogue, [(query_id, template, query)])
    build_seconds: float

    def instances(self):
        for g, cat, items in self.entries:
            for qid, template, q in items:
                yield g, cat, qid, template, q


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    t0 = time.perf_counter()
    raw = make_instances(seed=20240, n_graphs=25, per_graph=20)
    entries = []
    for g, items in raw:
        cat = build_catalogue(g, [q for _, _, q in items], 2,
                              walk_budget=300, seed=17)
        entries.append((g, cat, items))
    return Corpus(entries, time.perf_counter() - t0)


# sha256 of every corpus query's id, template name and text, in corpus order
CORPUS_SHA256 = "3dab9156aa5350a3a125d04016b0e1ef4212d78ea52e12fb0403600a9a0a1ac3"


def _corpus_digest(item_lists) -> str:
    text = "".join(f"{qid} {name}\n{q.to_text()}" for items in item_lists
                   for qid, name, q in items)
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_depends_on_seed_not_clock(corpus, monkeypatch):
    assert _corpus_digest(items for _, _, items in corpus.entries) == CORPUS_SHA256
    real = time.monotonic
    origin = real()
    monkeypatch.setattr(time, "monotonic", lambda: origin + 100 * (real() - origin))
    raw = make_instances(seed=20240, n_graphs=25, per_graph=20)
    assert _corpus_digest(items for _, items in raw) == CORPUS_SHA256


# sha256 of the optimistic graphs built on the corpus: every query, both kinds
# and both start rules at h=2, then closing-rate graphs at h=3 for the <= 7-edge
# queries of the first 8 corpus graphs (these reach impure closing hops)
CEG_SHA256 = "ae067927c47f36feb564f0e516ef55b6a4f4aff829dcbf5f885f0b5486628053"


def _ceg_text(ceg) -> str:
    """Vertices, then every edge as (src, dst, exact rate, kind, provenance)."""
    lines = [repr([sorted(v) for v in ceg.vertices()])]
    lines += [f"{sorted(e.src)} {sorted(e.dst)} {Fraction(e.rate)} {e.kind} {e.provenance!r}"
              for e in ceg.all_edges()]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def h3_catalogues(corpus):
    """(h=3 catalogue, its queries) for the <= 7-edge queries of the first 8 corpus graphs."""
    out = []
    for g, _, items in corpus.entries[:8]:
        small = [q for _, _, q in items if len(q) <= 7]
        out.append((build_catalogue(g, small, 3, walk_budget=300, seed=17), small))
    return out


def test_optimistic_graphs_pinned(corpus, h3_catalogues):
    digest = hashlib.sha256()
    for _, cat, items in corpus.entries:
        for _, _, q in items:
            for closing in (False, True):
                for starts in ("anchored", "all"):
                    ceg = build_optimistic(q, cat, closing=closing, starts=starts)
                    digest.update(_ceg_text(ceg).encode())
    for cat3, small in h3_catalogues:
        for q in small:
            digest.update(_ceg_text(build_optimistic(q, cat3, closing=True)).encode())
    assert digest.hexdigest() == CEG_SHA256


def test_warm_plans_build_what_cold_ones_do(corpus, h3_catalogues):
    # A query keeps the plans of its optimistic graphs, so a build after its
    # first reuses one: each must equal a freshly parsed copy's graph, also
    # after the same object was built against another corpus graph's
    # catalogue and after one of its counts was edited in place.  Those two
    # steps take one (kind, start rule) per query, in turn.
    variants = [(closing, starts) for closing in (False, True) for starts in ("anchored", "all")]
    groups = [[(cat, [q for _, _, q in items]) for _, cat, items in corpus.entries],
              h3_catalogues]
    for group in groups:
        for n, (cat, queries) in enumerate(group):
            other = group[(n + 1) % len(group)][0]
            for i, q in enumerate(queries):
                for closing, starts in variants:
                    def text(query, c=cat):
                        return _ceg_text(build_optimistic(query, c, closing=closing,
                                                          starts=starts))
                    cold = text(parse_query(q.to_text()))
                    assert text(q) == cold
                    if (closing, starts) != variants[i % len(variants)]:
                        continue
                    assert text(q) == cold   # every source already planned
                    try:
                        text(q, other)
                    except MissingStatisticError:
                        pass
                    assert text(q) == cold
                    start = min(connected_index_sets(q, cat.h), key=lambda s: (-len(s), sorted(s)))
                    key = canonical_form(index_pattern(q, start))[0]   # the anchored start's
                    cat.counts[key] += 1
                    try:
                        assert text(q) == text(parse_query(q.to_text())) != cold
                    finally:
                        cat.counts[key] -= 1


# sha256 of `to_dot` (the text `--dump-ceg` writes) of the average-degree,
# closing-rate and max-degree graphs of both fixture queries on f1 and fork at
# h=2 and h=3, then of the <= 12-variable queries of the first two corpus graphs
DOT_SHA256 = "b0a9c4e7f756e1cba5a0b5e9e36d317e230243c3e7c91c7db0990a7499b0efa7"


def test_dot_dumps_pinned(corpus, f1_graph, fork_graph, q3p, q5f):
    cases = [(build_catalogue(g, [q], h), q) for g in (f1_graph, fork_graph)
             for q in (q3p, q5f) for h in (2, 3)]
    cases += [(cat, q) for _, cat, items in corpus.entries[:2] for _, _, q in items
              if len(q.vars) <= 12]
    digest = hashlib.sha256()
    for cat, q in cases:
        for ceg in (build_optimistic(q, cat), build_optimistic(q, cat, closing=True),
                    build_maxdeg(q, cat)):
            digest.update(to_dot(ceg).encode())
    assert digest.hexdigest() == DOT_SHA256


# sha256 of `serialize()` of every corpus catalogue (h=2), the h=3 catalogues
# above, and the exhaustive h=2 catalogue of the f1 fixture, in that order
CATALOGUE_SHA256 = "b9dddd7e1f5183f49776574d1f2ecd843a6e0bd23da3d0373d9a54ab23719922"


def test_catalogues_pinned(corpus, h3_catalogues, f1_graph):
    digest = hashlib.sha256()
    cats = [cat for _, cat, _ in corpus.entries] + [cat3 for cat3, _ in h3_catalogues]
    for cat in cats + [build_catalogue(f1_graph, None, 2, exhaustive=True)]:
        digest.update(serialize(cat).encode())
    assert digest.hexdigest() == CATALOGUE_SHA256


# sha256 of the `matches` row lists, in the order the matcher lists them, of
# every catalogue pattern whose table is built from match rows (not adjacency
# lists): those of the corpus catalogues (h=2), then of the h=3 catalogues above
MATCHES_SHA256 = "5abd561dcc5e6cd98fdd6309e2c30dd0efa9823f16af1156fa45c3dc3b7595c3"


def test_match_row_order_pinned(corpus, h3_catalogues):
    graphs = [g for g, _, _ in corpus.entries]
    cats = [cat for _, cat, _ in corpus.entries] + [cat3 for cat3, _ in h3_catalogues]
    digest = hashlib.sha256()
    for g, cat in zip(graphs + graphs[:len(h3_catalogues)], cats):
        for key in cat.deg_stats:
            rep = _key_to_query(key)
            if not _reads_adjacency(rep):
                digest.update(f"{key}\n{matches(g, rep)!r}\n".encode())
    assert digest.hexdigest() == MATCHES_SHA256


# ---------------------------------------------------------------------------
# Criterion 1: Table-1 fixture arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_f1_three_path(f1_graph, q3p):
    t0 = time.perf_counter()
    cat = build_catalogue(f1_graph, [q3p], 2)
    estimates = {c: estimate_optimistic(q3p, cat, KIND_AVG, c).exact
                 for c in ALL_CHOICES}
    assert set(estimates.values()) == {Fraction(6)}
    truth = count_hom(f1_graph, q3p).value
    assert truth == 7
    err, signed = qerror(truth, Fraction(6))
    assert err == Fraction(7, 6)
    assert signed < 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, elapsed, "estimate 6 vs true 7, q-error 7/6 underestimate")


# ---------------------------------------------------------------------------
# Criterion 2: path-product arithmetic
# ---------------------------------------------------------------------------

def test_criterion_2_path_products():
    t0 = time.perf_counter()
    p1 = rate_path([4, Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)])
    assert p1.estimate == Fraction(105, 2)
    assert float(p1.estimate) == 52.5
    p2 = rate_path([7, 3, 2, 1, 3])
    assert p2.estimate == 126
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, elapsed, "rate products 52.5 and 126 exactly")


# ---------------------------------------------------------------------------
# Criterion 3: structural path count on the five-edge fork
# ---------------------------------------------------------------------------

def test_criterion_3_fork_36_paths_7_estimates(fork_graph, q5f):
    t0 = time.perf_counter()
    cat = build_catalogue(fork_graph, [q5f], 2)
    pair_counts = [4, 3, 5, 7, 8, 11, 18]  # AB BC BD BE CD CE DE
    assert len(set(pair_counts)) == len(pair_counts)  # distinct pairwise stats
    ceg = build_optimistic(q5f, cat)
    paths = enumerate_paths(ceg)
    assert len(paths) == 36
    distinct = {p.estimate for p in paths}
    assert len(distinct) == 7
    assert distinct == {Fraction(105, 2), Fraction(54), Fraction(55), Fraction(56),
                        Fraction(396, 7), Fraction(288, 5), Fraction(176, 3)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(3, elapsed, "36 bottom-to-top paths, 7 distinct estimates")


# ---------------------------------------------------------------------------
# Criteria 4 + 9: pessimistic safety and heuristic orderings over 500 runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def safety_run(corpus):
    t0 = time.perf_counter()
    n = safe = 0
    ordering_violations: list[str] = []
    pstar_path_violations: list[str] = []   # vs min-aggr / max-aggr (path-valued)
    # vs avg-aggr (not a path estimate): (case, lo, hi, truth), where [lo, hi]
    # is the span of the averaged pool's path estimates
    pstar_avg_wins: list[tuple] = []
    avg_outside_span = 0  # avg-aggr comparisons with truth outside (lo, hi)
    cyclic = 0
    for g, cat, qid, template, q in corpus.instances():
        n += 1
        truth = count_hom(g, q).value
        bound = estimate_molp(q, cat)
        if bound.exact >= truth:
            safe += 1
        kinds = [KIND_AVG]
        if cycles(q).longer_than(cat.h):
            kinds.append(KIND_CLOSING)
            cyclic += 1
        for kind in kinds:
            ceg = optimistic_ceg(q, cat, kind)
            summary = ceg_summary(ceg)
            est = {c: estimate_optimistic(q, cat, kind, c, summary=summary)
                   for c in ALL_CHOICES}
            span = {}
            for hop in ("max-hop", "min-hop", "all-hops"):
                lo = est[HeuristicChoice(hop, "min-aggr")].exact
                mid = est[HeuristicChoice(hop, "avg-aggr")].exact
                hi = est[HeuristicChoice(hop, "max-aggr")].exact
                span[hop] = (lo, hi)
                if not lo <= mid <= hi:
                    ordering_violations.append(f"{qid}:{kind}:{hop}")
            if est[HeuristicChoice("all-hops", "max-aggr")].exact < \
               est[HeuristicChoice("max-hop", "max-aggr")].exact:
                ordering_violations.append(f"{qid}:{kind}:all-max")
            if est[HeuristicChoice("all-hops", "min-aggr")].exact > \
               est[HeuristicChoice("min-hop", "min-aggr")].exact:
                ordering_violations.append(f"{qid}:{kind}:all-min")
            if truth >= 1:
                star = estimate_pstar(q, cat, kind, truth, summary=summary)

                def qe(v):
                    if v == 0:
                        return float("inf")
                    return max(Fraction(truth) / v, v / Fraction(truth))

                star_err = qe(star.exact)
                for c, e in est.items():
                    if c.aggr == "avg-aggr":
                        lo, hi = span[c.hop]
                        if not lo < truth < hi:
                            avg_outside_span += 1
                    if e.exact is not None and qe(e.exact) < star_err:
                        if c.aggr == "avg-aggr":
                            pstar_avg_wins.append((f"{qid}:{kind}:{c}", lo, hi, truth))
                        else:
                            pstar_path_violations.append(f"{qid}:{kind}:{c}")
    elapsed = corpus.build_seconds + (time.perf_counter() - t0)
    return {"n": n, "safe": safe, "cyclic": cyclic, "elapsed": elapsed,
            "ordering": ordering_violations, "pstar_path": pstar_path_violations,
            "pstar_avg": pstar_avg_wins, "avg_outside_span": avg_outside_span}


def test_criterion_4_molp_safety(safety_run):
    assert safety_run["n"] >= 500
    assert safety_run["safe"] == safety_run["n"]
    assert safety_run["cyclic"] >= 50
    assert safety_run["elapsed"] < 120.0
    _pass(4, safety_run["elapsed"],
          f"bound >= truth on {safety_run['safe']}/{safety_run['n']} instances "
          f"({safety_run['cyclic']} with >h cycles)")


def test_criterion_9_orderings_and_path_oracle_dominance(safety_run):
    assert safety_run["ordering"] == []
    assert safety_run["pstar_path"] == []
    _pass(9, 0.0, f"aggregator/path-set orderings and oracle dominance over the "
          f"path-valued heuristics on {safety_run['n']} instances")


def test_criterion_9_pstar_dominance_over_avg_aggr_as_stated(safety_run):
    """Criterion 9's final clause, P* q-error <= every heuristic's q-error,
    checked against avg-aggr as far as it holds.

    Taken literally the clause is false: the path oracle must pick a single
    path, while avg-aggr reports a mean of path estimates, and a mean can land
    strictly closer to the true count than any one path (true count 1 with
    path estimates 1/2 and 2: both paths have q-error 2, their mean 5/4 has
    q-error 5/4).  What holds is this.  The averaged pool is a subset of P*'s
    candidates and its mean lies in [lo, hi], the pool's smallest and largest
    path estimates.  If truth <= lo then q(mean) = mean/truth >= lo/truth >=
    q(P*), and symmetrically if truth >= hi; so avg-aggr can beat P* only when
    lo < truth < hi.
    """
    # The literal clause fails on the counterexample above, checked with the
    # path-list references of avg-aggr and P*.
    paths = [rate_path([Fraction(1, 2)]), rate_path([2])]
    mean, _, _ = aggregate_paths(paths, HeuristicChoice("all-hops", "avg-aggr"))
    star, _, _ = pstar_paths(paths, 1)
    assert mean == Fraction(5, 4)
    assert star == Fraction(1, 2)
    assert qerror(1, mean)[0] == Fraction(5, 4)
    assert qerror(1, star)[0] == 2

    # On the corpus, every avg-aggr win has the truth strictly inside its span.
    assert safety_run["avg_outside_span"] >= 1000
    outside = [(case, lo, hi, truth) for case, lo, hi, truth in safety_run["pstar_avg"]
               if not lo < truth < hi]
    assert outside == [], (
        f"{len(outside)} avg-aggr estimates beat the path oracle with the truth "
        f"outside the averaged paths' span; first (case, lo, hi, truth): "
        f"{outside[:5]}")
    _pass(9, 0.0, f"oracle dominance over avg-aggr on "
          f"{safety_run['avg_outside_span']} comparisons with the truth outside "
          f"the averaged span; {len(safety_run['pstar_avg'])} wins, all inside it")


def test_path_summary_equals_enumeration_on_corpus(corpus):
    """The heuristics and P* read one path summary; listing every path is the
    check.  P* is compared at the true count c and at 0, 1 and 3c + 7."""
    mismatches: list[str] = []
    n = zeros = 0
    for g, cat, qid, template, q in corpus.instances():
        c = count_hom(g, q).value
        for kind in (KIND_AVG, KIND_CLOSING):
            ceg = optimistic_ceg(q, cat, kind)
            summary, paths = ceg_summary(ceg), enumerate_paths(ceg)
            n += 1
            mismatches += [f"{qid}:{kind}:{m}" for m in summary_mismatches(summary, paths)]
            truths = (c, 0, 1, 3 * c + 7)
            mismatches += [f"{qid}:{kind}:{m}" for m in pstar_mismatches(summary, paths, truths)]
            zeros += sum(pstar_paths(paths, truth)[0] == 0 for truth in truths)
    assert n >= 1000
    assert zeros >= 1  # P* picks a zero estimate somewhere, at truth 0 at least
    assert mismatches == [], mismatches[:5]


# ---------------------------------------------------------------------------
# Criteria 5, 6, 7: minimum-weight consistency, projection edges, covers
# ---------------------------------------------------------------------------

def _small_var_instances(corpus):
    for g, cat, qid, template, q in corpus.instances():
        if len(q.vars) <= 6:
            yield g, cat, qid, q


def test_criterion_5_min_path_equals_enumeration(corpus):
    t0 = time.perf_counter()
    n = literal = 0
    for g, cat, qid, q in _small_var_instances(corpus):
        n += 1
        ceg = build_maxdeg(q, cat)
        dijkstra = min_weight_path(ceg).estimate
        dp_min = dag_min_product(ceg)
        lazy = estimate_molp(q, cat).exact
        assert dijkstra == dp_min == lazy, qid
        if path_summary(ceg).count() <= 20000:
            literal += 1
            assert min(p.estimate for p in iter_paths(ceg)) == dijkstra, qid
    elapsed = time.perf_counter() - t0
    assert n >= 100
    assert literal >= 20
    assert elapsed < 60.0
    _pass(5, elapsed, f"Dijkstra == min over enumerated paths on {n} instances "
          f"({literal} literally enumerated)")


def test_criterion_6_projection_edges_neutral(corpus):
    # an independent Dijkstra over every attribute subset, with projection
    # edges, finds the bound the extension-only search finds
    t0 = time.perf_counter()
    n = 0
    for g, cat, qid, q in _small_var_instances(corpus):
        n += 1
        assert projection_molp(q, QueryStats(q, cat)) == estimate_molp(q, cat).exact, qid
    elapsed = time.perf_counter() - t0
    assert n >= 100
    assert elapsed < 60.0
    _pass(6, elapsed, f"projection edges never change the minimum ({n} instances)")


def _random_cover(q, rng: random.Random):
    cover = [(i, q.edge_vars(i)) for i in range(len(q.edges))]
    # shrink some entries to single attributes while keeping the union full
    for pos in range(len(cover)):
        i, attrs = cover[pos]
        drop = rng.choice(attrs)
        others = {v for j, (k, vs) in enumerate(cover) if j != pos for v in vs}
        others |= {v for v in attrs if v != drop}
        if others == set(q.vars) and rng.random() < 0.5:
            cover[pos] = (i, tuple(v for v in attrs if v != drop))
    return cover


def test_criterion_7_cover_paths_dominate(corpus):
    t0 = time.perf_counter()
    rng = random.Random(77)
    covers = 0
    for g, cat, qid, q in _small_var_instances(corpus):
        if covers >= 80:
            break
        m_min = min_weight_path(build_maxdeg(q, cat)).estimate
        cover = _random_cover(q, rng)
        dceg = build_cover(q, cat, cover)
        d_min = dag_min_product(dceg)
        assert d_min is not None, qid       # an (empty, all-vars) path exists
        assert d_min >= m_min, qid          # every cover path dominates the bound
        if path_summary(dceg).count() <= 5000:
            for p in iter_paths(dceg):
                assert p.estimate >= m_min, qid
        covers += 1
    elapsed = time.perf_counter() - t0
    assert covers >= 50
    assert elapsed < 60.0
    _pass(7, elapsed, f"{covers} random covers dominate the max-degree minimum")


# ---------------------------------------------------------------------------
# Cross-checks of the pessimistic bound on the corpus
# ---------------------------------------------------------------------------

def test_molp_chosen_path_is_min_weight_path_of_maxdeg_graph(corpus):
    n = 0
    for g, cat, qid, q in _small_var_instances(corpus):
        n += 1
        chosen = estimate_molp(q, cat).chosen_path
        best = min_weight_path(build_maxdeg(q, cat))
        assert [(e.src, e.dst, e.rate, e.kind) for e in chosen.edges] == \
            [(e.src, e.dst, e.rate, e.kind) for e in best.edges], qid
        assert chosen == best, qid
    assert n >= 100


def _molp_lp_log2(q, cat) -> float:
    """Optimum of the MOLP linear program (Joglekar & Re, ICDT 2016) by scipy.

    Maximize s_top over one variable s_W per attribute subset W, subject to
    s_empty = 0; s_(W|Y) <= s_W + log2 deg(X, Y) for every degree statistic
    (X, Y) of a catalogue pattern and every W containing X; and
    s_(W - a) <= s_W.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    bit = {v: 1 << i for i, v in enumerate(sorted(q.vars))}
    size = 1 << len(bit)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []

    def at_most(hi: int, lo: int, bound: float) -> None:  # s_hi - s_lo <= bound
        rows.extend((len(rhs), len(rhs)))
        cols.extend((hi, lo))
        vals.extend((1.0, -1.0))
        rhs.append(bound)

    stats = QueryStats(q, cat)
    for s in connected_index_sets(q, cat.h):
        pattern_vars = sorted(q.vars_of(s))
        for r in range(1, len(pattern_vars) + 1):
            for y in combinations(pattern_vars, r):
                ym = sum(bit[v] for v in y)
                for k in range(r):
                    for x in combinations(y, k):
                        xm = sum(bit[v] for v in x)
                        log_deg = math.log2(stats.degrees(s)[xm, ym])
                        for w in range(size):
                            if w & xm == xm and w | ym != w:
                                at_most(w | ym, w, log_deg)
    for w in range(size):
        for b in bit.values():
            if w & b:
                at_most(w & ~b, w, 0.0)
    objective = [0.0] * size
    objective[size - 1] = -1.0
    res = linprog(objective, A_ub=coo_matrix((vals, (rows, cols)), shape=(len(rhs), size)),
                  b_ub=rhs, A_eq=[[1.0] + [0.0] * (size - 1)], b_eq=[0.0],
                  bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_molp_bound_equals_lp_optimum(corpus):
    pytest.importorskip("scipy")
    n = 0
    for g, cat, qid, q in _small_var_instances(corpus):
        bound = estimate_molp(q, cat).exact
        if bound == 0:
            continue
        n += 1
        assert abs(_molp_lp_log2(q, cat) - math.log2(bound)) <= 1e-6, qid
    assert n >= 100


def test_molp_bound_has_an_exact_lp_certificate(corpus):
    # every corpus query, past the LP check's 6 variables: the bound is the LP
    # optimum in exact integers, proved from the degree tables alone
    n = 0
    for g, cat, qid, template, q in corpus.instances():
        bound = estimate_molp(q, cat).exact
        if bound == 0:
            continue
        n += 1
        assert molp_certificate(q, cat) == bound, qid
    assert n >= 400


# ---------------------------------------------------------------------------
# Criterion 8: identity-relation triangle exhibit
# ---------------------------------------------------------------------------

def test_criterion_8_identity_triangle():
    t0 = time.perf_counter()
    n = 100
    g = identity_triangle(n)
    q = parse_query("a -R-> b\nb -S-> c\nc -T-> a")
    truth = count_hom(g, q).value
    assert truth == n
    cat = build_catalogue(g, [q], 2)
    bound = estimate_molp(q, cat)
    assert bound.exact >= n
    unsafe = (group_degree(g, q, ["b"], ["a", "b"])
              * group_degree(g, q, ["c"], ["b", "c"])
              * group_degree(g, q, ["a"], ["c", "a"]))
    assert unsafe == 1
    assert unsafe < n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(8, elapsed, f"true {n}, bound {bound.exact} >= {n}, "
          f"cyclic-cover product {unsafe} < {n}")


# ---------------------------------------------------------------------------
# Criterion 10: bound-sketch correctness
# ---------------------------------------------------------------------------

def test_criterion_10_bound_sketch(corpus):
    t0 = time.perf_counter()
    sketched = 0
    for g, cat, qid, template, q in corpus.instances():
        if sketched >= 100:
            break
        truth = count_hom(g, q).value
        unsketched = estimate_molp(q, cat)
        if unsketched.exact == 0:
            continue
        try:
            _, components = make_sketch(q, g, unsketched.chosen_path, 4,
                                        ceg_kind="attrs", seed=17)
        except SketchPlanError:
            continue
        assert sum(count_hom(c.graph, c.query).value for c in components) == truth, qid
        for k in (4, 16):
            try:
                sk = estimate_with_sketch(q, g, k, unsketched, cat, seed=17, walk_budget=300)
            except SketchPlanError:
                raise AssertionError(f"{qid}: K={k} should be compatible") from None
            assert truth <= sk.exact <= unsketched.exact, (qid, k)
        sketched += 1
    elapsed = time.perf_counter() - t0
    assert sketched >= 100
    assert elapsed < 120.0
    _pass(10, elapsed, f"partition sums exact and truth <= sketched <= bound "
          f"on {sketched} instances (K in {{4, 16}})")


# sha256 of the sketched estimates of every query of the first 3 corpus graphs,
# read with the run catalogue: at K=4 the bound and the max/min heuristics over
# both optimistic kinds, and at K=8 the closing-rate ones again (their cyclic
# queries sketch three attributes, so only a cube K reaches closing edges); a
# row that cannot be sketched records its exception's name
SKETCH_SHA256 = "2c688396bfe0b1f9f2d38fefd0b1a1a4d4edb73ba7bafe25c8973f793b5fc80f"
SKETCH_METHODS = (("molp", None, KIND_AVG),
                  ("optimistic", HeuristicChoice("max-hop", "max-aggr"), KIND_AVG),
                  ("optimistic", HeuristicChoice("min-hop", "min-aggr"), KIND_AVG),
                  ("optimistic", HeuristicChoice("max-hop", "max-aggr"), KIND_CLOSING),
                  ("optimistic", HeuristicChoice("min-hop", "min-aggr"), KIND_CLOSING))


def test_sketched_values_pinned(corpus):
    digest = hashlib.sha256()
    closing_paths = 0
    runs = [(4, m) for m in SKETCH_METHODS] + [(8, m) for m in SKETCH_METHODS[3:]]
    for g, cat, items in corpus.entries[:3]:
        for qid, _, q in items:
            for k, (base, choice, kind) in runs:
                unsketched = estimate_molp(q, cat) if base == "molp" else \
                    estimate_optimistic(q, cat, kind, choice)
                try:
                    est = estimate_with_sketch(q, g, k, unsketched, cat, seed=17,
                                               walk_budget=300)
                except SketchPlanError:
                    value = "SketchPlanError"
                else:
                    value = est.exact
                    closing_paths += any(e.kind == CYCLE_CLOSING
                                         for e in est.chosen_path.edges)
                digest.update(f"{qid} {k} {base} {choice} {kind} {value}\n".encode())
    assert closing_paths >= 40
    assert digest.hexdigest() == SKETCH_SHA256


# ---------------------------------------------------------------------------
# Criterion 11: evaluation math on the committed fixture
# ---------------------------------------------------------------------------

def test_criterion_11_summary_fixture():
    import csv
    from conftest import fixture_path
    from cardest.evalharness import QErrorRecord

    t0 = time.perf_counter()
    with open(fixture_path("qerr20.csv"), "r", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 20
    records = []
    for r in rows:
        c, e = int(r["trueCount"]), Fraction(int(r["estimate"]))
        err, signed = qerror(c, e)
        records.append(QErrorRecord(r["queryId"], "", "fixture", "", "", "", 1,
                                    c, float(e), e, err, signed, 0.0))
    s = summarize(records)
    assert s.p25 == -1.25
    assert s.p50 == 0.0
    assert s.p75 == 1.25
    assert s.trimmed_mean == 0.0
    assert s.n == 20
    elapsed = time.perf_counter() - t0
    _pass(11, elapsed, "p25/p50/p75 = -1.25/0/1.25, trimmed mean 0 exactly")


# ---------------------------------------------------------------------------
# Criterion 12: informational trend runs on a correlated synthetic graph
# ---------------------------------------------------------------------------

def test_criterion_12_informational_trends():
    t0 = time.perf_counter()
    g = LabeledGraph(gen.correlated_graph(7))
    assert len(g.edges) >= 10_000

    rng = random.Random(5)
    acyclic_templates = [("star3", star_template(3)), ("path3", path_template(3)),
                         ("star4", star_template(4, out=False)),
                         ("path4", path_template(4)),
                         ("tree5", tree_template(5, seed=3))]
    workload_a: list[WorkloadItem] = []
    for name, tpl in acyclic_templates:
        made = 0
        for attempt in range(40):
            inst = instantiate_template(tpl, g, seed=rng.randrange(1 << 30),
                                        mode="uniform-labels", attempts=30)
            if inst is None:
                continue
            workload_a.append(WorkloadItem(f"{name}_{made:02d}", name, inst))
            made += 1
            if made == 8:
                break
    assert len(workload_a) >= 25

    methods_a = expand_methods([f"optimistic:avg:{h}:{a}"
                                for h in ("max-hop", "min-hop", "all-hops")
                                for a in ("max-aggr", "min-aggr", "avg-aggr")])
    result_a = run_workload(g, workload_a, methods_a, h=2, seed=11, walk_budget=500)
    per_method = len(workload_a)
    for spec in methods_a:
        rows = [r for r in result_a.records if r.method == spec.method_id()]
        assert len(rows) == per_method  # run accounting
    print("\n[acceptance] criterion 12a: 9-heuristic summaries on the acyclic "
          "workload (signed-log trimmed means, |.| smaller is better)")
    ranked = sorted(result_a.method_summaries.items(),
                    key=lambda kv: abs(kv[1].trimmed_mean))
    for method, summary in ranked:
        print(f"    {method:46s} trimmedMean={summary.trimmed_mean:+.3f} "
              f"p50={summary.p50:+.3f} n={summary.n}")
    best = ranked[0][0]
    expectation = "matches" if best.endswith("max-aggr") else "DEVIATES FROM"
    print(f"[acceptance] criterion 12a: best trimmed mean {best} "
          f"({expectation} the max-aggr finding)")

    workload_b: list[WorkloadItem] = []
    for i in range(30):
        inst = instantiate_template(cycle_template(4), g, seed=1000 + i,
                                    mode="edge-at-a-time", time_limit=2.0)
        if inst is not None and len(cycles(inst).longer_than(2)) > 0:
            workload_b.append(WorkloadItem(f"square_{len(workload_b):02d}",
                                           "square", inst))
        if len(workload_b) == 16:
            break
    assert len(workload_b) >= 8
    methods_b = expand_methods(["optimistic:avg:min-hop:min-aggr",
                                "optimistic:closing:max-hop:max-aggr"])
    result_b = run_workload(g, workload_b, methods_b, h=2, seed=13, walk_budget=800)
    for spec in methods_b:
        rows = [r for r in result_b.records if r.method == spec.method_id()]
        assert len(rows) == len(workload_b)
    print("[acceptance] criterion 12b: 4-cycle workload, plain min-hop-min vs "
          "closing-rate max-hop-max")
    for method, summary in sorted(result_b.method_summaries.items()):
        print(f"    {method:46s} trimmedMean={summary.trimmed_mean:+.3f} "
              f"p50={summary.p50:+.3f} n={summary.n} zero={summary.zero_estimates}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(12, elapsed, f"trend tables emitted ({len(workload_a)} acyclic, "
          f"{len(workload_b)} cyclic queries)")
