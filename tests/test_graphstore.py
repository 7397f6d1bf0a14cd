from __future__ import annotations

import io
import random

import pytest

from cardest.errors import GraphParseError
from cardest.graphstore import (dump_graph, load_graph, max_degree, relation)

from _synth import random_graph


def test_empty_stream():
    g = load_graph(io.StringIO(""))
    assert len(g.vertices) == 0
    assert len(g.edges) == 0


def test_duplicate_triples_collapse():
    g = load_graph(io.StringIO("1 2 A\n1 2 A\n"))
    assert len(g.edges) == 1
    assert len(g.vertices) == 2


def test_comments_and_whitespace():
    g = load_graph(io.StringIO("# header\n\n 3\t17  E \n"))
    assert g.has_edge(3, 17, "E")


def test_malformed_line_names_line_number():
    with pytest.raises(GraphParseError) as err:
        load_graph(io.StringIO("1 2 A\n1 2\n"))
    assert "line 2" in str(err.value)


def test_negative_vertex_rejected():
    with pytest.raises(GraphParseError):
        load_graph(io.StringIO("-1 2 A\n"))


def test_string_vertex_rejected():
    with pytest.raises(GraphParseError):
        load_graph(io.StringIO("x y A\n"))


def test_per_label_sizes_match_line_scan():
    lines = ["1 2 A", "2 3 A", "3 4 B", "4 5 B", "5 6 B", "1 2 A",  # dup
             "6 7 C", "7 8 C", "8 9 C", "9 1 C"]
    g = load_graph(io.StringIO("\n".join(lines)))
    expected: dict[str, set] = {}
    for line in lines:
        s, d, lab = line.split()
        expected.setdefault(lab, set()).add((int(s), int(d)))
    for lab, tuples in expected.items():
        assert len(relation(g, lab)) == len(tuples)


def test_relation_absent_label_empty():
    g = load_graph(io.StringIO("1 2 A\n"))
    assert len(relation(g, "Z")) == 0


def test_relation_sizes_sum_to_edge_count():
    g = random_graph(40, 150, 5, seed=3)
    assert sum(len(relation(g, lab)) for lab in g.labels) == len(g.edges)


def test_max_degree_identity_relation():
    g = load_graph(io.StringIO("".join(f"{i} {i} I\n" for i in range(1, 9))))
    r = relation(g, "I")
    assert max_degree(r, "src") == 1
    assert max_degree(r, "dst") == 1


def test_max_degree_star():
    g = load_graph(io.StringIO("".join(f"0 {i} S\n" for i in range(1, 6))))
    assert max_degree(relation(g, "S"), "src") == 5
    assert max_degree(relation(g, "S"), "dst") == 1


def test_max_degree_empty_relation():
    g = load_graph(io.StringIO("1 2 A\n"))
    assert max_degree(relation(g, "Z"), "src") == 0


def test_max_degree_matches_group_by_oracle():
    rng = random.Random(7)
    for trial in range(20):
        g = random_graph(15, 60, 3, seed=trial)
        for lab in g.labels:
            pairs = list(g.edges_with_label(lab))
            by_src: dict[int, int] = {}
            by_dst: dict[int, int] = {}
            for s, d in pairs:
                by_src[s] = by_src.get(s, 0) + 1
                by_dst[d] = by_dst.get(d, 0) + 1
            assert max_degree(relation(g, lab), "src") == max(by_src.values())
            assert max_degree(relation(g, lab), "dst") == max(by_dst.values())
    assert rng  # rng reserved for future variation


def test_pigeonhole_projection_bound():
    for trial in range(10):
        g = random_graph(20, 80, 4, seed=100 + trial)
        for lab in g.labels:
            r = relation(g, lab)
            pairs = list(r)
            srcs = {s for s, _ in pairs}
            dsts = {d for _, d in pairs}
            assert len(srcs) * max_degree(r, "src") >= len(r)
            assert len(dsts) * max_degree(r, "dst") >= len(r)


def test_load_is_idempotent_on_own_dump():
    g = random_graph(25, 90, 4, seed=11)
    text = dump_graph(g)
    g2 = load_graph(io.StringIO(text))
    assert g2.edges == g.edges
    assert dump_graph(g2) == text


def test_graph_digest_is_the_dump_digest_computed_once():
    import hashlib
    g = random_graph(25, 90, 4, seed=12)
    assert "sha256" not in vars(g)
    assert g.sha256 == hashlib.sha256(dump_graph(g).encode("utf-8")).hexdigest()
    assert vars(g)["sha256"] == g.sha256   # cached on the immutable graph
    assert load_graph(io.StringIO(dump_graph(g))).sha256 == g.sha256
