from __future__ import annotations

import csv
import json
import os

import pytest

from cardest import catalogue as cat_mod
from cardest.cli import main
from cardest.evalharness import expand_methods

from conftest import fixture_path


def run_cli(*argv) -> int:
    return main(list(argv))


def test_oracle_count(capsys):
    code = run_cli("oracle-count", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"))
    assert code == 0
    assert capsys.readouterr().out.strip() == "7"


def test_estimate_f1_q3p_prints_six(capsys):
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"),
                   "--methods", "optimistic:avg:max-hop:max-aggr")
    assert code == 0
    out = capsys.readouterr().out
    assert "\t6\t" in out
    assert "true=7" in out


def test_estimate_missing_stats_exit_code(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    assert run_cli("build-catalogue", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--out", str(cat)) == 0
    code = run_cli("estimate", "--graph", fixture_path("fork.edges"),
                   "--query", fixture_path("q5f.query"), "--catalogue", str(cat),
                   "--methods", "bound")
    assert code == 3
    capsys.readouterr()


def test_estimate_rejects_catalogue_of_another_graph(tmp_path, capsys):
    # f1 plus four edges has 21 three-paths; the f1 catalogue bounds them by 8
    grown = tmp_path / "grown.edges"
    with open(fixture_path("f1.edges"), encoding="utf-8") as handle:
        grown.write_text(handle.read() + "5 10 A\n6 10 A\n20 34 C\n20 35 C\n")
    cat = tmp_path / "cat.json"
    assert run_cli("build-catalogue", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--out", str(cat)) == 0
    for graph, expected in ((str(grown), 4), (fixture_path("f1.edges"), 0)):
        code = run_cli("estimate", "--graph", graph, "--query", fixture_path("q3p.query"),
                       "--catalogue", str(cat), "--methods", "bound")
        assert code == expected
    assert "different graph" in capsys.readouterr().err


def test_estimate_rejects_catalogue_built_at_another_h(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    assert run_cli("build-catalogue", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--h", "3", "--out", str(cat)) == 0
    for h, expected in (("2", 4), ("3", 0)):
        code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                       "--query", fixture_path("q3p.query"), "--catalogue", str(cat),
                       "--methods", "bound", "--h", h)
        assert code == expected
    assert "catalogue's h=3" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("x y A\n")
    code = run_cli("oracle-count", "--graph", str(bad),
                   "--query", fixture_path("q3p.query"))
    assert code == 4
    assert "error (parse)" in capsys.readouterr().err


def test_sketch_error_exit_code(capsys):
    code = run_cli("estimate", "--graph", fixture_path("fork.edges"),
                   "--query", fixture_path("q5f.query"),
                   "--methods", "optimistic:avg:max-hop:max-aggr",
                   "--sketch-k", "9999")
    # the failure is isolated into a row, then surfaced as the exit code
    assert code == 5
    assert "ERROR" in capsys.readouterr().out


def test_build_catalogue_and_eval(tmp_path, capsys):
    workload = tmp_path / "w.txt"
    workload.write_text(
        "# id: three_path\n# template: path3\n"
        "a1 -A-> a2\na2 -B-> a3\na3 -C-> a4\n\n")
    out_dir = tmp_path / "out"
    code = run_cli("eval", "--graph", fixture_path("f1.edges"),
                   "--workload", str(workload), "--methods", "all",
                   "--out", str(out_dir))
    assert code == 0
    capsys.readouterr()
    with open(out_dir / "results.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 21
    row = next(r for r in rows if r["method"] == "optimistic:avg-degree:max-hop.max-aggr")
    assert float(row["estimate"]) == 6.0
    assert row["trueCount"] == "7"
    payload = json.loads((out_dir / "summary.json").read_text())
    assert payload["meta"]["queries"] == 1


def test_gen_workload_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for out in (out_a, out_b):
        code = run_cli("gen-workload", "--graph", fixture_path("squares.edges"),
                       "--template", fixture_path("square.template"),
                       "--count", "6", "--seed", "42", "--mode", "edge-at-a-time",
                       "--time-limit", "2", "--out", str(out))
        assert code == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    from cardest.cli import load_workload_file
    items = load_workload_file(str(out_a))
    assert len(items) == 6
    assert out_a.read_text().startswith("# seed: 42")


def test_gen_workload_reports_the_time_limit_stop(tmp_path, capsys):
    code = run_cli("gen-workload", "--graph", fixture_path("fork.edges"),
                   "--template", fixture_path("q3p.query"),
                   "--count", "2", "--seed", "1", "--mode", "edge-at-a-time",
                   "--time-limit", "0", "--out", str(tmp_path / "w.txt"))
    assert code == 0
    err = capsys.readouterr().err
    assert "seed 1: the --time-limit safety stop (0s) ended the search" in err
    assert "seed 2: the --time-limit safety stop (0s) ended the search" in err
    assert "generated 0/2 instances" in err


def test_gen_workload_edge_at_a_time(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code = run_cli("gen-workload", "--graph", fixture_path("fork.edges"),
                   "--template", fixture_path("q3p.query"),
                   "--count", "3", "--seed", "1", "--mode", "edge-at-a-time",
                   "--out", str(out))
    assert code == 0
    capsys.readouterr()
    from cardest.cli import load_workload_file
    from cardest.oracle import count_hom
    from cardest.graphstore import load_graph_file
    g = load_graph_file(fixture_path("fork.edges"))
    for item in load_workload_file(str(out)):
        assert count_hom(g, item.query).value >= 1


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph={fixture_path('f1.edges')}\nh=2\nseed=5\n")
    code = run_cli("--config", str(cfg), "oracle-count",
                   "--query", fixture_path("q3p.query"))
    assert code == 0
    assert capsys.readouterr().out.strip() == "7"


def test_unknown_method_exits_with_usage_code(capsys):
    for token, named in (("nonsense", "'nonsense'"), ("pstar:foo", "'foo'"),
                         ("pstarfoo", "'pstarfoo'"), ("pstar:avg:extra", "'pstar:avg:extra'")):
        code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                       "--query", fixture_path("q3p.query"), "--methods", token)
        assert code == 2
        assert named in capsys.readouterr().err
    with pytest.raises(ValueError, match="nonsense"):
        expand_methods(["nonsense"])


def test_config_value_that_is_not_a_number_exits_with_parse_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h=abc\n")
    code = run_cli("--config", str(cfg), "estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--methods", "bound")
    assert code == 4
    assert "h needs a number, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_walk_budget_below_one_exits_with_parse_code(tmp_path, capsys, budget):
    # the square is longer than h=2, so the catalogue would sample closing walks
    square = tmp_path / "square.query"
    square.write_text("a1 -P-> a2\na2 -Q-> a3\na3 -R-> a4\na4 -S-> a1\n")
    code = run_cli("estimate", "--graph", fixture_path("squares.edges"),
                   "--query", str(square), "--methods", "bound", "--walk-budget", budget)
    assert code == 4
    assert "walk budget must be >= 1" in capsys.readouterr().err
    # with a saved catalogue, a K=8 closing-rate sketch would sample component walks
    cat = tmp_path / "cat.json"
    assert run_cli("build-catalogue", "--graph", fixture_path("squares.edges"),
                   "--query", str(square), "--out", str(cat)) == 0
    code = run_cli("estimate", "--graph", fixture_path("squares.edges"), "--query", str(square),
                   "--catalogue", str(cat), "--sketch-k", "8", "--walk-budget", budget,
                   "--methods", "optimistic:closing:max-hop:max-aggr")
    assert code == 4
    assert "walk budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_sketch_k_below_one_exits_with_parse_code(capsys, k):
    # such a K used to run the rows unsketched and exit 0
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--methods", "bound", "--sketch-k", k)
    assert code == 4
    err = capsys.readouterr().err
    assert f"sketch K must be >= 1 (1: no sketch), got {k}" in err


def test_dump_ceg(tmp_path, capsys):
    dot = tmp_path / "ceg.dot"
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"),
                   "--methods", "bound", "--dump-ceg", str(dot))
    assert code == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph")
    assert os.path.exists(tmp_path / "ceg.maxdeg.dot")


def test_dump_ceg_writes_closing_graph_for_closing_methods(tmp_path, capsys):
    query = tmp_path / "square.query"
    query.write_text("a0 -P-> a1\na1 -Q-> a2\na2 -R-> a3\na3 -S-> a0\n")
    dot = tmp_path / "ceg.dot"
    args = ("estimate", "--graph", fixture_path("squares.edges"), "--query", str(query),
            "--dump-ceg", str(dot))
    assert run_cli(*args, "--methods", "bound") == 0
    assert not (tmp_path / "ceg.closing.dot").exists()
    assert run_cli(*args, "--methods", "bound,pstar:closing") == 0
    capsys.readouterr()
    closing = (tmp_path / "ceg.closing.dot").read_text()
    assert closing.startswith("digraph")
    assert closing != dot.read_text()   # the 4-cycle closes by a sampled rate


def test_dump_ceg_uses_the_loaded_catalogue(tmp_path, monkeypatch, capsys):
    cat = tmp_path / "cat.json"
    assert run_cli("build-catalogue", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--out", str(cat)) == 0

    def no_build(*args, **kwargs):
        raise AssertionError("estimate built a second catalogue")

    monkeypatch.setattr(cat_mod, "build_catalogue", no_build)
    dot = tmp_path / "ceg.dot"
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--catalogue", str(cat),
                   "--methods", "bound", "--dump-ceg", str(dot))
    assert code == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph")
    assert (tmp_path / "ceg.maxdeg.dot").read_text().startswith("digraph")
