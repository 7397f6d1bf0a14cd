"""Tests of the benchmark's own statistics, tracer and inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import run
import tracing
from stats import TooFewSamples, log10_qerror, median, percentile, self_time


# -- the percentile rule ----------------------------------------------------

def test_p95_needs_200_samples():
    with pytest.raises(TooFewSamples):
        percentile([float(i) for i in range(199)], 0.95)
    assert percentile([float(i) for i in range(200)], 0.95) == pytest.approx(189.05)


def test_median_needs_no_tail():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    with pytest.raises(TooFewSamples):
        median([])


# -- self time on nested spans ----------------------------------------------

def _ticking_tracer() -> tracing.Tracer:
    ticks = iter(range(1000))
    return tracing.Tracer(clock=lambda: float(next(ticks)))


def test_self_time_subtracts_only_direct_children():
    tracer = _ticking_tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: (leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: (middle(), leaf()))
    outer()
    # outer 0..9; middle 1..6 holds leaves 2..3 and 4..5; a last leaf 7..8
    (span_outer,) = tracer.named("outer")
    (span_middle,) = tracer.named("middle")
    assert (span_outer.start, span_outer.end) == (0.0, 9.0)
    assert span_middle.duration == 5.0
    assert span_middle.self_s == 5.0 - 2.0
    assert span_outer.self_s == 9.0 - 5.0 - 1.0
    assert all(s.self_s == 1.0 for s in tracer.named("leaf"))


def test_counting_time_leaves_the_parent_self_time():
    tracer = _ticking_tracer()
    child = tracer.wrap("child", lambda: [1, 2, 3], counter=lambda a, k, r: {"n": len(r)})
    parent = tracer.wrap("parent", child)
    parent()
    (span_parent,) = tracer.named("parent")
    (span_child,) = tracer.named("child")
    assert span_child.counts == {"n": 3}
    # parent 0..5, child 1..2, counting 3..4
    assert span_parent.self_s == 5.0 - 1.0 - 1.0


def test_overlapping_children_are_not_subtracted_twice():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0
    assert self_time(0.0, 10.0, []) == 10.0


def test_span_records_the_exception_type():
    tracer = _ticking_tracer()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("f", fail)()
    assert tracer.named("f")[0].error == "KeyError"


def test_patched_restores_and_skips_missing_names():
    class Owner:
        @staticmethod
        def f():
            return 1

    original = Owner.f
    tracer = _ticking_tracer()
    with tracing.patched(tracer, [(Owner, "f", "f", None), (Owner, "gone", "g", None)]):
        assert Owner.f() == 1
        assert not hasattr(Owner, "gone")
    assert Owner.f is original
    assert len(tracer.named("f")) == 1


# -- q-error: zero estimates count as infinite ------------------------------

def test_zero_estimate_is_infinite_qerror():
    assert log10_qerror(100, 0) == math.inf
    assert log10_qerror(100, None) == math.inf
    assert log10_qerror(100, 1000) == pytest.approx(1.0)
    assert log10_qerror(100, Fraction(10)) == pytest.approx(1.0)
    assert log10_qerror(7, 7) == 0.0


def test_zeroing_estimates_cannot_lower_the_median():
    truths = [10, 20, 30, 40, 50]
    estimates = [Fraction(12), Fraction(5), Fraction(300), Fraction(41), Fraction(1, 2)]
    before = median([log10_qerror(t, e) for t, e in zip(truths, estimates)])
    for i in range(len(estimates)):
        zeroed = estimates[:i] + [Fraction(0)] + estimates[i + 1:]
        assert median([log10_qerror(t, e) for t, e in zip(truths, zeroed)]) >= before
    assert median([math.inf, math.inf]) == math.inf


# -- inputs and the benchmark's declared metrics ----------------------------

def test_inputs_depend_on_the_seed_alone():
    edges = gen.correlated_graph(5)
    assert len(edges) == 12000
    assert len({v for s, d, _ in edges for v in (s, d)}) == 5063
    assert len({lab for _, _, lab in edges}) == 17
    first = gen.workload_text("sketch-k4", edges, 5)
    assert first == gen.workload_text("sketch-k4", gen.correlated_graph(5), 5)
    assert first != gen.workload_text("sketch-k4", edges, 6)
    assert first.count("# id:") == 12


def test_templates_have_their_shapes():
    sizes = {name: len(t) for name, t in gen.TEMPLATES.items()}
    assert sizes == {"path4": 4, "star4": 4, "tree5": 5, "cycle4": 4, "cycle5": 5,
                     "star5": 5, "star6": 6, "tree7": 7, "tree8": 8, "hexagon": 6,
                     "square-tail2": 6}


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == run.END_TO_END[m["name"]][0] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)
