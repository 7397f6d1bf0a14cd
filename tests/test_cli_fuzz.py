"""`cli.main` run in-process on mutated inputs: every run ends with a code
from the README's exit-code table, and nothing prints a traceback."""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cardest.cli import main  # noqa: E402

from conftest import SQUARE, fixture_path  # noqa: E402

EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TEXT_CHARS = "0123456789 -<>ABCDEPQRSa?#\n"
KEY_CHARS = "0123|,"


def _fixture(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as handle:
        return handle.read()


def _saved_catalogue(graph: str, query: str) -> dict:
    """The query's h=2 catalogue on the graph, as a saved file reads."""
    with tempfile.TemporaryDirectory() as tmp:
        query_file, out = os.path.join(tmp, "q.query"), os.path.join(tmp, "cat.json")
        with open(query_file, "w", encoding="utf-8") as handle:
            handle.write(query)
        with redirect_stdout(io.StringIO()):
            assert main(["build-catalogue", "--graph", graph, "--query", query_file,
                         "--out", out, "--walk-budget", "20"]) == 0
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


# (graph, query, its saved catalogue): a path, and a 4-cycle with closing rates
INPUTS = [(_fixture(graph), query, _saved_catalogue(fixture_path(graph), query))
          for graph, query in (("f1.edges", _fixture("q3p.query")), ("squares.edges", SQUARE.to_text()))]
JSON_VALUES = st.one_of(st.integers(-2, 10), st.integers(10 ** 300, 10 ** 310), st.booleans(),
                        st.none(), st.floats(allow_nan=False), st.text(TEXT_CHARS, max_size=4),
                        st.just([]), st.just({}))


@st.composite
def edited_text(draw, text: str) -> str:
    """`text` after up to three one-character deletions, insertions or swaps."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["delete", "insert", "swap"]))
        char = draw(st.sampled_from(TEXT_CHARS))
        if op == "insert" or at == len(text):
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + ("" if op == "delete" else char) + text[at + 1:]
    return text


@st.composite
def edited_catalogue(draw, saved: dict) -> str:
    """The saved catalogue with one value, or one degree entry key, changed."""
    payload = json.loads(json.dumps(saved))
    target = draw(st.sampled_from(["degree", "entry key", "count", "closing", "h", "version",
                                   "meta"]))
    tables = payload["degStats"]
    pattern = draw(st.sampled_from(sorted(tables)))
    entry = draw(st.sampled_from(sorted(tables[pattern])))
    if target == "degree":
        tables[pattern][entry] = draw(JSON_VALUES)
    elif target == "entry key":
        value = tables[pattern].pop(entry)
        if draw(st.booleans()):
            tables[pattern][draw(st.text(KEY_CHARS, max_size=6))] = value
    elif target == "count":
        payload["counts"][pattern] = draw(JSON_VALUES)
    elif target == "closing" and payload["closingRates"]:
        rates = payload["closingRates"]
        rate = rates[draw(st.sampled_from(sorted(rates)))]
        rate[draw(st.sampled_from(["samples", "closures", "rate"]))] = draw(JSON_VALUES)
    elif target == "meta":
        payload["meta"]["graph"][draw(st.sampled_from(["sha256", "edges"]))] = draw(JSON_VALUES)
    else:
        payload[target] = draw(JSON_VALUES)
    return json.dumps(payload)


CONFIG_KEYS = ["h", "seed", "walk-budget", "sketch-k", "methods", "graph", "query", "out",
               "dump-ceg", "unknown"]
FLAG_VALUES = {"--h": ["2", "2", "3", "1", "x"], "--walk-budget": ["20", "5", "0"],
               "--sketch-k": ["1", "4", "9", "0"], "--seed": ["0", "1", "-1"]}
CONFIG_VALUES = st.one_of(st.sampled_from(["0", "1", "2", "3", "-1", "4", "x", "", "bound"]),
                          st.text(TEXT_CHARS, max_size=4))


@given(data=st.data())
@FUZZ
def test_main_on_mutated_inputs_exits_with_a_documented_code(data):
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        def write(name: str, text: str) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return path

        graph_text, query_text, saved = draw(st.sampled_from(INPUTS))
        graph = write("g.edges", draw(edited_text(graph_text)))
        query = write("q.query", draw(edited_text(query_text)))
        command = draw(st.sampled_from(["estimate", "estimate", "estimate", "eval",
                                        "build-catalogue", "oracle-count", "gen-workload"]))
        argv = [command, "--graph", graph]
        if command == "gen-workload":
            argv += ["--template", write("t.template", draw(edited_text(_fixture(
                "path3.template")))), "--count", "1", "--time-limit", "1"]
        elif command == "eval":
            argv += ["--workload", query, "--out", os.path.join(tmp, "out")]
        else:
            argv += ["--query", query]
        if command == "build-catalogue":
            argv += ["--out", os.path.join(tmp, "cat.json")]
        if command == "estimate" and draw(st.booleans()):
            argv += ["--catalogue", write("cat.json", draw(edited_catalogue(saved)))]
        if command == "estimate" and draw(st.booleans()):
            argv += ["--dump-ceg", os.path.join(tmp, "ceg.dot")]
        if command in ("estimate", "eval"):
            argv += ["--methods", draw(st.sampled_from(
                ["bound", "all", "optimistic:avg:max-hop:max-aggr", "pstar:closing",
                 "bound,optimistic:closing:min-hop:avg-aggr", "bound,nonsense"]))]
        for flag, values in FLAG_VALUES.items():
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(values))]
        if draw(st.integers(0, 3)) == 0:
            lines = draw(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
                                  max_size=3))
            argv = ["--config", write("run.cfg", "".join(f"{k}={v}\n" for k, v in lines)),
                    *argv]

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative --out or --dump-ceg from the config lands here
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
