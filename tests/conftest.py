from __future__ import annotations

import os
import sys

import pytest

from cardest.graphstore import LabeledGraph, load_graph_file
from cardest.querymodel import parse_query_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# the benchmark's generator (`import gen`), whose graphs some tests share; only read
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


def graph_of(triples) -> LabeledGraph:
    return LabeledGraph(triples)


def identity_triangle(n: int) -> LabeledGraph:
    """R, S, T each hold {(i, i)}: the classic unsafe-cover instance."""
    edges = []
    for i in range(1, n + 1):
        edges += [(i, i, "R"), (i, i, "S"), (i, i, "T")]
    return LabeledGraph(edges)


def edited_degree_tables(entries: dict[str, int]) -> dict[str, dict[str, int]]:
    """Copies of a stored three-variable degree table that a catalogue must
    refuse: one key short, one key over (a second spelling of an entry), and
    one key spelt out of order."""
    assert "0|0,1" in entries and len(entries) == 27
    short = {k: v for k, v in entries.items() if k != "0|0,1"}
    return {"short": short,
            "extra": dict(entries, **{"0|1,0": entries["0|0,1"]}),
            "unsorted": dict(short, **{"0|1,0": entries["0|0,1"]})}
