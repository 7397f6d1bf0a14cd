from __future__ import annotations

import csv
import hashlib
import json
import os

import pytest

from cardest import catalogue as cat_mod
from cardest import evalharness
from cardest.cli import main
from cardest.errors import EstimationError
from cardest.evalharness import expand_methods

from _synth import layered_overshoot_graph, path_template
from conftest import edited_degree_tables, fixture_path


def run_cli(*argv) -> int:
    return main(list(argv))


def _f1_catalogue(tmp_path, *flags):
    """Path of the catalogue that `build-catalogue` saves for q3p on f1."""
    cat = tmp_path / "cat.json"
    assert run_cli("build-catalogue", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--out", str(cat), *flags) == 0
    return cat


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
    cat = _f1_catalogue(tmp_path)
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
    cat = _f1_catalogue(tmp_path)
    for graph, expected in ((str(grown), 4), (fixture_path("f1.edges"), 0)):
        code = run_cli("estimate", "--graph", graph, "--query", fixture_path("q3p.query"),
                       "--catalogue", str(cat), "--methods", "bound")
        assert code == expected
    assert "different graph" in capsys.readouterr().err


def test_estimate_rejects_catalogue_built_at_another_h(tmp_path, capsys):
    cat = _f1_catalogue(tmp_path, "--h", "3")
    for h, expected in (("2", 4), ("3", 0)):
        code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                       "--query", fixture_path("q3p.query"), "--catalogue", str(cat),
                       "--methods", "bound", "--h", h)
        assert code == expected
    assert "catalogue's h=3" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["closingRates", "counts", "degStats", "meta",
                                   "meta.graph"])
def test_estimate_catalogue_field_that_is_not_an_object_exits_with_parse_code(
        tmp_path, capsys, field):
    cat = _f1_catalogue(tmp_path)
    payload = json.loads(cat.read_text())
    if field == "degStats":  # one pattern's table
        payload[field][next(iter(payload[field]))] = [1]
    elif field == "meta.graph":
        payload["meta"]["graph"] = [1]
    else:
        payload[field] = [1]
    cat.write_text(json.dumps(payload))
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--catalogue", str(cat),
                   "--methods", "bound")
    assert code == 4
    assert "is not an object" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [-1, 1.5, True])
def test_estimate_catalogue_degree_that_is_not_a_non_negative_integer_exits_with_parse_code(
        tmp_path, capsys, bad):
    # read as 1, the 1.5 and true entries would print a bound of 3 against a
    # true count of 7; the -1 entry would end in a traceback
    cat = _f1_catalogue(tmp_path)
    payload = json.loads(cat.read_text())
    assert payload["degStats"]['[[0,1,"C"]]']["|1"] == 3
    payload["degStats"]['[[0,1,"C"]]']["|1"] = bad
    cat.write_text(json.dumps(payload))
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--catalogue", str(cat),
                   "--methods", "bound")
    assert code == 4
    err = capsys.readouterr().err
    assert "not a non-negative integer" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", ["short", "extra", "unsorted"])
def test_estimate_catalogue_table_without_exactly_its_entry_keys_exits_with_missing_code(
        tmp_path, capsys, edit):
    # "unsorted" spells "0|0,1" as "0|1,0", which used to be read as the same entry
    cat = _f1_catalogue(tmp_path)
    payload = json.loads(cat.read_text())
    key = '[[0,1,"A"],[1,2,"B"]]'
    payload["degStats"][key] = edited_degree_tables(payload["degStats"][key])[edit]
    cat.write_text(json.dumps(payload))
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"), "--catalogue", str(cat),
                   "--methods", "bound")
    assert code == 3
    out = capsys.readouterr().out
    assert out.endswith("bound\tERROR\tMissingStatisticError: missing catalogue statistic: "
                        f"degree table for pattern {key}\n")


def test_estimate_prints_inf_for_a_qerror_beyond_float_range(tmp_path, capsys):
    graph, query = tmp_path / "g.edges", tmp_path / "q.query"
    graph.write_text("".join(f"{u} {v} {label}\n" for u, v, label in
                             layered_overshoot_graph().edges))
    query.write_text(path_template(183).with_labels(["A"] * 183).to_text())
    code = run_cli("estimate", "--graph", str(graph), "--query", str(query),
                   "--methods", "optimistic:avg:max-hop:max-aggr")
    assert code == 0
    assert capsys.readouterr().out.endswith("\tinf\ttrue=18\tqerror=inf\n")


def test_estimate_pstar_past_a_million_paths_exits_ok(tmp_path, capsys):
    # a 12-leaf star on one label: 10! anchored paths, which P* does not list
    graph, query = tmp_path / "star.edges", tmp_path / "star.query"
    graph.write_text("".join(f"{h} {100 + 10 * h + i} A\n" for h in range(3)
                             for i in range(5 + h)))
    query.write_text("".join(f"a0 -A-> a{j}\n" for j in range(1, 13)))
    code = run_cli("estimate", "--graph", str(graph), "--query", str(query),
                   "--methods", "pstar:avg")
    assert code == 0
    assert "pstar:avg-degree\t7.99088e+09\ttrue=16262210162\t" in capsys.readouterr().out


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


# sha256 of the stdout of `estimate --methods all --sketch-k 4` on the fork
# fixture: 21 rows, the six avg-aggr ones failed, and exit code 5
SKETCHED_ESTIMATE_SHA256 = "abb5bc431cc384463f05bf8f61e3017361e7d43338d7b29c3c84c674822a45ed"


def test_sketched_estimate_output_pinned(capsys):
    code = run_cli("estimate", "--graph", fixture_path("fork.edges"),
                   "--query", fixture_path("q5f.query"), "--methods", "all", "--sketch-k", "4")
    out = capsys.readouterr().out
    assert code == 5
    assert len(out.splitlines()) == 21
    assert out.count("\tERROR\tSketchPlanError: optimistic sketches need a min-aggr or "
                     "max-aggr choice\n") == 6
    assert hashlib.sha256(out.encode()).hexdigest() == SKETCHED_ESTIMATE_SHA256


def test_failed_row_of_another_error_exits_with_other_code(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise EstimationError("no path")

    monkeypatch.setattr(evalharness, "estimate_molp", fail)
    code = run_cli("estimate", "--graph", fixture_path("f1.edges"),
                   "--query", fixture_path("q3p.query"),
                   "--methods", "bound,optimistic:avg:max-hop:max-aggr")
    # the bound row fails with EstimationError, the optimistic row runs
    assert code == 1
    out = capsys.readouterr().out
    assert "bound\tERROR\tEstimationError: no path" in out
    assert "\t6\t" in out


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


# sha256 of the concatenated stdout of `gen-workload` runs: on the fixtures,
# both modes at seeds 1 and 42 (70 instances); on the seed-1 benchmark graph,
# edge-at-a-time at seed 1 (40 instances)
GEN_WORKLOAD_FIXTURES_SHA256 = "df0bb2b400ea111b58e3f1fb1ca75e682d860f1d2b4de6022575a8cfcf975202"
GEN_WORKLOAD_BENCHMARK_SHA256 = "603edc6c72ac9f5de2681a19f08e984a4ed23e34b6634f5c171791c5d4badbb9"


def test_gen_workload_output_pinned(tmp_path, capsys):
    import gen
    bench = tmp_path / "bench1.edges"
    bench.write_text(gen.graph_text(gen.correlated_graph(1)))
    assert hashlib.sha256(bench.read_bytes()).hexdigest().startswith("83e775f8")
    on_fixtures = [(fixture_path(graph), template, 10, seed, mode)
                   for mode in ("uniform-labels", "edge-at-a-time") for seed in (1, 42)
                   for graph, template in (("squares.edges", "square.template"),
                                           ("fork.edges", "path3.template"))]
    on_bench = [(str(bench), template, 20, 1, "edge-at-a-time")
                for template in ("path3.template", "square.template")]
    for runs, instances, pin in ((on_fixtures, 70, GEN_WORKLOAD_FIXTURES_SHA256),
                                 (on_bench, 40, GEN_WORKLOAD_BENCHMARK_SHA256)):
        out = ""
        for graph, template, count, seed, mode in runs:
            assert run_cli("gen-workload", "--graph", graph, "--template", fixture_path(template),
                           "--count", str(count), "--seed", str(seed), "--mode", mode) == 0
            out += capsys.readouterr().out
        assert out.count("# id: ") == instances
        assert hashlib.sha256(out.encode()).hexdigest() == pin


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


@pytest.mark.parametrize("command, key", [("estimate", "walk-budgett"), ("eval", "dump-ceg")])
def test_config_key_the_subcommand_does_not_register_exits_with_parse_code(
        tmp_path, capsys, command, key):
    # such a key used to be skipped: the run exited 0 without it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=5\n")
    workload = tmp_path / "w.txt"
    workload.write_text(open(fixture_path("q3p.query")).read())
    inputs = {"estimate": ["--query", fixture_path("q3p.query"), "--methods", "bound"],
              "eval": ["--workload", str(workload), "--out", str(tmp_path / "out")]}
    code = run_cli("--config", str(cfg), command, "--graph", fixture_path("f1.edges"),
                   *inputs[command])
    assert code == 4
    assert f"{key} is not a flag of {command}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_dump_ceg_past_the_attribute_cap_exits_with_parse_code_and_writes_no_file(
        tmp_path, capsys):
    # 13 variables: the max-degree graph is too large to list, so its DOT
    # dump fails; it used to leave an empty ceg.maxdeg.dot behind
    graph, query = tmp_path / "chain.edges", tmp_path / "chain.query"
    graph.write_text("".join(f"{i} {i + 1} A\n" for i in range(13)))
    query.write_text(path_template(12).with_labels(["A"] * 12).to_text())
    dot = tmp_path / "ceg.dot"
    code = run_cli("estimate", "--graph", str(graph), "--query", str(query),
                   "--methods", "bound", "--dump-ceg", str(dot))
    assert code == 4
    out, err = capsys.readouterr()
    assert out == "bound\t12\ttrue=2\tqerror=6.0\n"
    assert "error (parse): attribute-subset graphs are capped at 12 variables" in err
    assert sorted(os.listdir(tmp_path)) == ["chain.edges", "chain.query"]


@pytest.mark.parametrize("command", ["eval", "build-catalogue"])
def test_dump_ceg_is_an_estimate_flag_only(tmp_path, capsys, command):
    # other commands used to accept the flag, exit 0 and write no file
    workload = tmp_path / "w.txt"
    workload.write_text(open(fixture_path("q3p.query")).read())
    dot = tmp_path / "ceg.dot"
    with pytest.raises(SystemExit) as exited:
        run_cli(command, "--graph", fixture_path("f1.edges"), "--workload", str(workload),
                "--out", str(tmp_path / "out"), "--dump-ceg", str(dot))
    assert exited.value.code == 2
    assert "--dump-ceg" in capsys.readouterr().err
    assert not dot.exists() and not (tmp_path / "out").exists()


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
    cat = _f1_catalogue(tmp_path)

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
