"""Property: the path summary agrees with path enumeration on random inputs,
for the 3x3 heuristics and for P*."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cardest.catalogue import build_catalogue  # noqa: E402
from cardest.estgraph import EXTENSION, Ceg, enumerate_paths, path_summary  # noqa: E402
from cardest.estimators import KIND_AVG, KIND_CLOSING, optimistic_ceg  # noqa: E402

from _summary_check import pstar_mismatches, summary_mismatches  # noqa: E402
from _synth import DEFAULT_LABELS, cycle_template, random_graph, tree_template  # noqa: E402
from oracles import dfs_path_count  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
RATES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3)]


@st.composite
def random_dags(draw):
    """A Ceg on vertices {} = 0 < {1} < ... < {n} = top, edges only upward,
    parallel edges allowed, rates drawn from RATES (zero included).  Each
    source lists its arcs in `out` order: by target, then rate."""
    n = draw(st.integers(2, 6))
    masks = [0] + [1 << (i - 1) for i in range(1, n + 1)]   # {i} is bit i - 1 of names 1..n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(RATES)),
                           min_size=1, max_size=18))
    adjacency: dict = {}
    for k in sorted(range(len(chosen)), key=lambda k: (chosen[k][0][1], chosen[k][1])):
        (i, j), rate = chosen[k]
        adjacency.setdefault(masks[i], []).append(
            (masks[j], rate.numerator, rate.denominator, EXTENSION, (("random", k),)))
    return Ceg("edges", None, range(1, n + 1), masks[n], lambda v: adjacency.get(v, []),
               adjacency)


@SETTINGS
@given(random_dags())
def test_summary_equals_enumeration_on_random_dags(ceg):
    summary = path_summary(ceg)
    assert summary.count() == dfs_path_count(ceg)
    assume(summary.count() > 0)
    assert summary_mismatches(summary, enumerate_paths(ceg)) == []


@SETTINGS
@given(graph_seed=st.integers(0, 10 ** 6), shape=st.sampled_from(["tree", "cycle"]),
       size=st.integers(3, 5), labels=st.lists(st.integers(0, 2), min_size=5, max_size=5),
       h=st.integers(2, 3))
def test_summary_equals_enumeration_on_small_random_graphs(graph_seed, shape, size,
                                                           labels, h):
    g = random_graph(12, 30, 3, seed=graph_seed, plant_cycles=3)
    template = tree_template(size, seed=graph_seed) if shape == "tree" else cycle_template(size)
    q = template.with_labels([DEFAULT_LABELS[i] for i in labels[:len(template.edges)]])
    cat = build_catalogue(g, [q], h, walk_budget=50, seed=graph_seed)
    for kind in (KIND_AVG, KIND_CLOSING):
        ceg = optimistic_ceg(q, cat, kind)
        summary = path_summary(ceg)
        if summary.count() == 0:  # no path: both routes fail alike
            assert enumerate_paths(ceg) == []
            continue
        assert summary_mismatches(summary, enumerate_paths(ceg)) == []


@SETTINGS
@given(random_dags(), st.lists(st.sampled_from([0, 1, 2, 3, 7]), min_size=1, max_size=3))
def test_pstar_equals_path_list_oracle_on_random_dags(ceg, truths):
    # zero rates give zero estimates, which P* takes against truth 0
    summary = path_summary(ceg)
    assume(summary.count() > 0)
    assert pstar_mismatches(summary, enumerate_paths(ceg), truths) == []
