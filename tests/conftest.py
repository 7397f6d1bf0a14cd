from __future__ import annotations

import os
import sys
from fractions import Fraction
from math import prod

import pytest

from cardest.estgraph import EXTENSION, CegEdge, PathEstimate
from cardest.graphstore import LabeledGraph, load_graph_file
from cardest.querymodel import parse_query, parse_query_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# the benchmark's generator (`import gen`): its query templates are the tests'
# (`_synth`), and some tests share its graphs; only read
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "perfbench"))


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def f1_graph() -> LabeledGraph:
    return load_graph_file(fixture_path("f1.edges"))


@pytest.fixture(scope="session")
def fork_graph() -> LabeledGraph:
    return load_graph_file(fixture_path("fork.edges"))


@pytest.fixture(scope="session")
def q3p():
    return parse_query_file(fixture_path("q3p.query"))


@pytest.fixture(scope="session")
def q5f():
    return parse_query_file(fixture_path("q5f.query"))


def identity_triangle(n: int) -> LabeledGraph:
    """R, S, T each hold {(i, i)}: the classic unsafe-cover instance."""
    edges = []
    for i in range(1, n + 1):
        edges += [(i, i, "R"), (i, i, "S"), (i, i, "T")]
    return LabeledGraph(edges)


TRIANGLE = parse_query("a -R-> b\nb -S-> c\nc -T-> a")
SQUARE = parse_query("a1 -P-> a2\na2 -Q-> a3\na3 -R-> a4\na4 -S-> a1")


def square_graph(n_closed: int, n_open: int) -> LabeledGraph:
    """n_closed P-Q-R-S squares, then n_open open P-Q-R paths, on disjoint
    vertices."""
    edges = []
    v = 0
    for i in range(n_closed + n_open):
        a, b, c, d = v, v + 1, v + 2, v + 3
        v += 4
        edges += [(a, b, "P"), (b, c, "Q"), (c, d, "R")]
        if i < n_closed:
            edges.append((d, a, "S"))
    return LabeledGraph(edges)


def step_path(steps) -> PathEstimate:
    """A path up from the empty vertex, one edge per (dst, kind, rate) step."""
    edges, current = [], frozenset()
    for i, (dst, kind, rate) in enumerate(steps):
        edges.append(CegEdge(current, frozenset(dst), Fraction(rate), kind, (("step", i),)))
        current = frozenset(dst)
    return PathEstimate(tuple(edges), prod((e.rate for e in edges), start=Fraction(1)))


def rate_path(rates) -> PathEstimate:
    """A path over edge subsets {0}, {0, 1}, ... with the given rates."""
    return step_path((range(i + 1), EXTENSION, rate) for i, rate in enumerate(rates))


def edited_degree_tables(entries: dict[str, int]) -> dict[str, dict[str, int]]:
    """Copies of a stored three-variable degree table that a catalogue must
    refuse: one key short, one key over (a second spelling of an entry), and
    one key spelt out of order."""
    assert "0|0,1" in entries and len(entries) == 27
    short = {k: v for k, v in entries.items() if k != "0|0,1"}
    return {"short": short,
            "extra": dict(entries, **{"0|1,0": entries["0|0,1"]}),
            "unsorted": dict(short, **{"0|1,0": entries["0|0,1"]})}
