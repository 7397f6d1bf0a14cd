from __future__ import annotations

import io

import pytest

from cardest.errors import GraphParseError
from cardest.graphstore import DST, SRC, dump_graph, load_graph

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


def _max_degree(g, label: str, position: str) -> int:
    return max(map(len, g.adjacency(label, position).values()), default=0)


def test_per_label_sizes_match_line_scan():
    lines = ["1 2 A", "2 3 A", "3 4 B", "4 5 B", "5 6 B", "1 2 A",  # dup
             "6 7 C", "7 8 C", "8 9 C", "9 1 C"]
    g = load_graph(io.StringIO("\n".join(lines)))
    expected: dict[str, set] = {}
    for line in lines:
        s, d, lab = line.split()
        expected.setdefault(lab, set()).add((int(s), int(d)))
    for lab, tuples in expected.items():
        assert g.label_count(lab) == len(tuples)
        assert set(g.edges_with_label(lab)) == tuples


def test_relation_absent_label_empty():
    g = load_graph(io.StringIO("1 2 A\n"))
    assert g.label_count("Z") == 0
    assert list(g.edges_with_label("Z")) == []
    assert g.adjacency("Z", SRC) == {} and g.adjacency("Z", DST) == {}


def test_relation_sizes_sum_to_edge_count():
    g = random_graph(40, 150, 5, seed=3)
    assert sum(g.label_count(lab) for lab in g.labels) == len(g.edges)


def test_max_degree_identity_relation():
    g = load_graph(io.StringIO("".join(f"{i} {i} I\n" for i in range(1, 9))))
    assert _max_degree(g, "I", SRC) == 1
    assert _max_degree(g, "I", DST) == 1


def test_max_degree_star():
    g = load_graph(io.StringIO("".join(f"0 {i} S\n" for i in range(1, 6))))
    assert _max_degree(g, "S", SRC) == 5
    assert _max_degree(g, "S", DST) == 1


def test_max_degree_empty_relation():
    g = load_graph(io.StringIO("1 2 A\n"))
    assert _max_degree(g, "Z", SRC) == 0


def test_max_degree_matches_group_by_oracle():
    for trial in range(20):
        g = random_graph(15, 60, 3, seed=trial)
        for lab in g.labels:
            by_src: dict[int, list[int]] = {}
            by_dst: dict[int, list[int]] = {}
            for s, d in g.edges_with_label(lab):
                by_src.setdefault(s, []).append(d)
                by_dst.setdefault(d, []).append(s)
            assert g.adjacency(lab, SRC) == {s: sorted(ds) for s, ds in by_src.items()}
            assert g.adjacency(lab, DST) == {d: sorted(ss) for d, ss in by_dst.items()}
            assert _max_degree(g, lab, SRC) == max(map(len, by_src.values()))
            assert _max_degree(g, lab, DST) == max(map(len, by_dst.values()))


def test_pigeonhole_projection_bound():
    for trial in range(10):
        g = random_graph(20, 80, 4, seed=100 + trial)
        for lab in g.labels:
            pairs = list(g.edges_with_label(lab))
            srcs = {s for s, _ in pairs}
            dsts = {d for _, d in pairs}
            assert len(srcs) * _max_degree(g, lab, SRC) >= g.label_count(lab)
            assert len(dsts) * _max_degree(g, lab, DST) >= g.label_count(lab)


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
