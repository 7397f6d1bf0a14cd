from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import pytest

from cardest.evalharness import (CSV_COLUMNS, QErrorRecord,
                                 WorkloadItem, expand_methods, percentile,
                                 qerror, run_workload, summarize)
from cardest.errors import ConfigError
from cardest.querymodel import parse_query

from _synth import layered_overshoot_graph, path_template, random_graph
from conftest import fixture_path


def _rec(c, e, query_id="q", method="m") -> QErrorRecord:
    err, signed = qerror(c, e)
    zero = e == 0
    return QErrorRecord(query_id, "", method, "", "", "", 1, c, float(e),
                        Fraction(e) if not zero else Fraction(0),
                        None if zero else err, signed, 0.0, zero_estimate=zero)


def test_qerror_seven_sixths_negative():
    err, signed = qerror(7, Fraction(6))
    assert err == Fraction(7, 6)
    assert signed < 0
    assert signed == -math.log10(7 / 6)


def test_qerror_exact_hit():
    err, signed = qerror(10, Fraction(10))
    assert err == 1
    assert signed == 0.0


def test_qerror_overestimate_100x():
    err, signed = qerror(10, Fraction(1000))
    assert err == 100
    assert signed == 2.0


def test_qerror_zero_estimate_marker():
    err, signed = qerror(5, Fraction(0))
    assert err == float("inf")
    assert signed == float("-inf")


@pytest.mark.parametrize("c, e, signed", [
    (1, Fraction(10 ** 400), 400.0),                       # overestimate
    (3, Fraction(1, 10 ** 400), -400 - math.log10(3)),     # underestimate
])
def test_qerror_beyond_float_range(c, e, signed):
    err, got = qerror(c, e)
    assert err == max(Fraction(c) / e, e / Fraction(c))
    assert got == pytest.approx(signed, rel=1e-12)


def test_run_workload_writes_inf_for_a_qerror_beyond_float_range():
    g = layered_overshoot_graph()
    q = path_template(183).with_labels(["A"] * 183)
    result = run_workload(g, [q], expand_methods(["optimistic:avg:max-hop:max-aggr"]))
    (record,) = result.records
    assert record.error is None and record.true_count == 18
    assert record.qerror > 10 ** 308 and record.signed_log > 308
    (row,) = csv.DictReader(io.StringIO(result.csv_text()))
    assert (row["estimate"], row["qerror"]) == ("inf", "inf")
    assert float(row["signedLog"]) == record.signed_log
    assert summarize(result.records).p50 == record.signed_log


def test_qerror_rejects_zero_truth():
    with pytest.raises(ValueError):
        qerror(0, Fraction(1))


def test_percentile_linear_interpolation():
    vals = [0.0, 1.0, 2.0, 3.0]
    assert percentile(vals, 0.5) == 1.5
    assert percentile(vals, 0.25) == 0.75
    assert percentile(vals, 1.0) == 3.0


def test_summary_single_record():
    s = summarize([_rec(10, Fraction(100))])
    assert s.p25 == s.p50 == s.p75 == 1.0
    assert s.trimmed_mean == 1.0
    assert s.n == 1


def test_summary_trim_drops_outlier():
    records = [_rec(10, Fraction(10), query_id=f"q{i}") for i in range(10)]
    records.append(_rec(10, Fraction(10 ** 9), query_id="out"))
    s = summarize(records)
    assert s.trimmed_mean == 0.0  # the lone 10**8 outlier is trimmed
    assert s.n == 11


def _fixture_records() -> list[QErrorRecord]:
    with open(fixture_path("qerr20.csv"), "r", encoding="utf-8") as handle:
        return [_rec(int(r["trueCount"]), Fraction(int(r["estimate"])), query_id=r["queryId"])
                for r in csv.DictReader(handle)]


def test_summary_fixture_20_records():
    s = summarize(_fixture_records())
    assert s.p25 == -1.25
    assert s.p50 == 0.0
    assert s.p75 == 1.25
    assert s.trimmed_mean == 0.0
    assert s.n == 20


def test_summary_permutation_invariant():
    records = _fixture_records()
    a = summarize(records)
    b = summarize(list(reversed(records)))
    assert (a.p25, a.p50, a.p75, a.trimmed_mean) == (b.p25, b.p50, b.p75, b.trimmed_mean)


def test_summary_trim_orders_qerrors_equal_as_floats_exactly():
    # 10(1 + 10^-20) and 10(1 + 2*10^-20) round to one float; the larger,
    # an underestimate whose query id sorts first, is the one trimmed
    tiny = Fraction(1, 10 ** 20)
    over = _rec(1, 10 * (1 + tiny), query_id="b")
    under = _rec(1, 1 / (10 * (1 + 2 * tiny)), query_id="a")
    assert float(over.qerror) == float(under.qerror) and over.qerror < under.qerror
    records = [_rec(10, Fraction(10), query_id=f"q{i}") for i in range(8)] + [over, under]
    assert summarize(records).trimmed_mean == over.signed_log / 9 > 0
    assert summarize(records[::-1]).trimmed_mean == over.signed_log / 9


def test_summary_zero_estimates_tallied():
    records = [_rec(10, Fraction(10)), _rec(10, Fraction(0))]
    s = summarize(records)
    assert s.n == 1
    assert s.zero_estimates == 1


def test_expand_methods_all():
    specs = expand_methods(["all"])
    ids = {m.method_id() for m in specs}
    assert len(specs) == 21  # 9 heuristics x 2 kinds + pstar x 2 + bound
    assert "bound" in ids
    assert any("max-hop.max-aggr" in i for i in ids)


def test_expand_methods_tokens():
    specs = expand_methods(["optimistic:avg:max-hop:max-aggr", "bound", "pstar"])
    assert [m.name for m in specs] == ["optimistic", "bound", "pstar"]
    with pytest.raises(ValueError):
        expand_methods(["nope"])


def test_run_workload_single_edge_all_methods_qerror_one():
    g = random_graph(20, 70, 2, seed=1)
    queries = [parse_query("a1 -A-> a2"), parse_query("a1 -B-> a2")]
    result = run_workload(g, queries, expand_methods(["all"]))
    for record in result.records:
        assert record.error is None
        assert record.qerror == 1
    assert len(result.records) == len(queries) * 21


def test_run_workload_true_count_cached_consistent(fork_graph, q5f):
    result = run_workload(fork_graph, [q5f], expand_methods(["all"]))
    counts = {r.true_count for r in result.records}
    assert counts == {78}
    meta_row = [r for r in result.records
                if r.method == "optimistic:avg-degree:max-hop.max-aggr"]
    assert len(meta_row) == 1


def test_run_workload_csv_columns(fork_graph, q3p):
    result = run_workload(fork_graph, [WorkloadItem("q1", "3path", q3p)],
                          expand_methods(["optimistic:avg:min-hop:min-aggr", "bound"]))
    text = result.csv_text()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert tuple(header) == CSV_COLUMNS
    rows = list(reader)
    assert len(rows) == 2
    opt = rows[0]
    assert opt[0] == "q1" and opt[1] == "3path"
    assert float(opt[8]) == 6.0      # estimate
    assert opt[7] == "7"             # trueCount


def test_run_workload_isolates_estimator_failures(fork_graph, q3p, q5f):
    # catalogue only covers q3p: q5f rows fail, q3p rows stay healthy
    from cardest.catalogue import build_catalogue
    cat = build_catalogue(fork_graph, [q3p], 2)
    result = run_workload(fork_graph, [q3p, q5f], expand_methods(["bound", "pstar"]),
                          catalogue=cat)
    failed = [r for r in result.records if r.error is not None]
    fine = [r for r in result.records if r.error is None]
    assert len(failed) == 2 and len(fine) == 2
    assert all("MissingStatisticError" in r.error for r in failed)
    assert len(result.records) == 4


def test_sketched_rows_need_the_run_catalogue_patterns(fork_graph, q3p, q5f):
    from cardest.catalogue import build_catalogue
    cat = build_catalogue(fork_graph, [q3p], 2)
    result = run_workload(fork_graph, [q5f], expand_methods(["bound"]), sketch_k=4,
                          catalogue=cat)
    assert "MissingStatisticError" in result.records[0].error
    # every row is estimated before it is sketched, so the avg-aggr rows, which
    # have no path to sketch, fail as their min/max-aggr siblings do
    result = run_workload(fork_graph, [q5f], expand_methods(["all"]), sketch_k=4,
                          catalogue=cat)
    assert all("MissingStatisticError" in r.error for r in result.records)


def test_run_workload_rejects_catalogue_at_other_h(f1_graph, q3p):
    # an h=2 catalogue in an h=3 run used to report bound 8; h=3 statistics give 7
    from cardest.catalogue import build_catalogue
    cat = build_catalogue(f1_graph, [q3p], 2)
    with pytest.raises(ConfigError):
        run_workload(f1_graph, [q3p], expand_methods(["bound"]), h=3, catalogue=cat)
    (record,) = run_workload(f1_graph, [q3p], expand_methods(["bound"]), h=3).records
    assert record.estimate_exact == record.true_count == 7


def test_run_workload_rejects_sketch_k_below_one_before_any_row(f1_graph, q3p, monkeypatch):
    from cardest import evalharness

    def forbidden(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(evalharness, "count_hom", forbidden)
    with pytest.raises(ConfigError, match="sketch K must be >= 1"):
        run_workload(f1_graph, [q3p], expand_methods(["bound"]), sketch_k=0)


def test_run_workload_rejects_catalogue_of_another_graph(f1_graph, q3p):
    # a catalogue of f1 used to report bound 8 on f1 plus four edges, true count 21
    from cardest.catalogue import build_catalogue
    from cardest.estimators import estimate_molp
    from cardest.graphstore import LabeledGraph
    from cardest.sketch import estimate_with_sketch
    cat = build_catalogue(f1_graph, [q3p], 2)
    grown = LabeledGraph(set(f1_graph.edges) | {(5, 10, "A"), (6, 10, "A"),
                                                (20, 34, "C"), (20, 35, "C")})
    with pytest.raises(ConfigError):
        run_workload(grown, [q3p], expand_methods(["bound"]), catalogue=cat)
    with pytest.raises(ConfigError):
        estimate_with_sketch(q3p, grown, 4, estimate_molp(q3p, cat), catalogue=cat)
    (record,) = run_workload(grown, [q3p], expand_methods(["bound"])).records
    assert record.true_count == 21 and record.estimate_exact >= 21


def test_sketched_run_marks_avg_rows_failed(fork_graph, q5f):
    specs = expand_methods(["optimistic:avg:max-hop:max-aggr",
                            "optimistic:avg:max-hop:avg-aggr"])
    result = run_workload(fork_graph, [q5f], specs, sketch_k=4)
    by_method = {r.method: r for r in result.records}
    assert by_method["optimistic:avg-degree:max-hop.max-aggr"].error is None
    avg_row = by_method["optimistic:avg-degree:max-hop.avg-aggr"]
    assert avg_row.error is not None and "SketchPlan" in avg_row.error


def test_summary_json_shape(fork_graph, q3p):
    import json
    result = run_workload(fork_graph, [WorkloadItem("q1", "3p", q3p)],
                          expand_methods(["optimistic:avg:max-hop:max-aggr"]))
    payload = json.loads(result.summary_json())
    assert "methods" in payload and "meta" in payload
    entry = payload["methods"]["optimistic:avg-degree:max-hop.max-aggr"]
    assert entry["n"] == 1
    assert entry["p50"] == pytest.approx(-math.log10(7 / 6))
