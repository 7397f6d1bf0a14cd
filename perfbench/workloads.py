"""The three workloads: what a setup builds, what one pass calls, what is checked.

Every call goes through a module attribute (`lib.estimators.estimate_molp`,
never a bound local), so the traced run's patches see it.  Checks run outside
the timed sections and return one message per violated rule.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace


H = 2
WALK_BUDGET = 1000
SKETCH_K = 4
MAXDEG_MAX_VARS = 7   # build_maxdeg materialises 2**|vars| vertices


@dataclass
class Setup:
    g: object
    items: list
    cat: object
    seconds: float


@dataclass
class PassResult:
    """One pass: its wall time, per-call latency samples and checked outputs."""
    seconds: float
    ops: int = 0
    failures: Counter = field(default_factory=Counter)    # reason -> failed ops
    unexpected: int = 0                                   # failures no rule allows
    samples: dict[str, list[float]] = field(default_factory=dict)   # metric -> ms
    bound: list[tuple[int, object]] = field(default_factory=list)   # (truth, estimate)
    opt: list[tuple[int, object]] = field(default_factory=list)
    fingerprint: str = ""
    violations: list[str] = field(default_factory=list)


def load_library() -> SimpleNamespace:
    from cardest import (catalogue, cli, errors, estgraph, estimators, evalharness,
                         graphstore, oracle, sketch)
    return SimpleNamespace(catalogue=catalogue, cli=cli, errors=errors, estgraph=estgraph,
                           estimators=estimators, evalharness=evalharness,
                           graphstore=graphstore, oracle=oracle, sketch=sketch)


def _reason(error: str) -> str:
    return error.split(":", 1)[0]


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.seed = seed
        self.truth: dict[str, int] = {}

    def setup(self, graph_text: str, workload_text: str) -> Setup:
        """Timed: load the graph, parse the workload, build the catalogue."""
        lib = self.lib
        start = time.perf_counter()
        g = lib.graphstore.load_graph(graph_text.splitlines())
        items = lib.cli.parse_workload_text(workload_text)
        cat = lib.catalogue.build_catalogue(g, [it.query for it in items], H,
                                            walk_budget=WALK_BUDGET, seed=self.seed)
        return Setup(g, items, cat, time.perf_counter() - start)

    def prepare(self, st: Setup) -> list[str]:
        """Untimed reference values for the checks, computed once per run;
        returns the violations found while computing them."""
        self.truth = {it.query_id: self.lib.oracle.count_hom(st.g, it.query).value
                      for it in st.items}
        return []

    def run_pass(self, st: Setup) -> PassResult:
        raise NotImplementedError


class _RunWorkload(Workload):
    """A `run_workload` pass with the setup catalogue, then its two outputs."""
    method_tokens: tuple[str, ...] = ()
    sketch_k = 1
    qerr_opt_method = ""    # the optimistic method behind qerr_opt_p50

    def run_pass(self, st: Setup) -> PassResult:
        lib = self.lib
        methods = lib.evalharness.expand_methods(list(self.method_tokens))
        start = time.perf_counter()
        result = lib.evalharness.run_workload(st.g, st.items, methods, h=H, seed=self.seed,
                                              walk_budget=WALK_BUDGET,
                                              sketch_k=self.sketch_k, catalogue=st.cat)
        csv_text = result.csv_text()
        result.summary_json()
        out = PassResult(time.perf_counter() - start, ops=len(result.records))
        self._collect(result, methods, csv_text, out)
        return out

    def _collect(self, result, methods, csv_text: str, out: PassResult) -> None:
        want = len(self.truth) * len(methods)
        if len(result.records) != want:
            out.violations.append(f"{len(result.records)} rows, want {want}")
        out.samples = {"opt_ms": [], "bound_ms": []}
        for r in result.records:
            if r.true_count != self.truth.get(r.query_id):
                out.violations.append(f"{r.query_id}: row true count {r.true_count} "
                                      f"!= oracle {self.truth.get(r.query_id)}")
            if r.method == "bound":
                out.samples["bound_ms"].append(r.elapsed_ms)
            elif r.method.startswith("optimistic"):
                out.samples["opt_ms"].append(r.elapsed_ms)
            if r.error is not None:
                out.failures[_reason(r.error)] += 1
                if not self._expected_failure(r):
                    out.unexpected += 1
                continue
            if r.method == "bound":
                out.bound.append((r.true_count, r.estimate_exact))
                if r.estimate_exact < r.true_count:
                    out.violations.append(f"{r.query_id}: bound {r.estimate_exact} "
                                          f"< true count {r.true_count}")
            elif r.method == self.qerr_opt_method:
                out.opt.append((r.true_count, r.estimate_exact))
        out.fingerprint = _csv_fingerprint(csv_text)

    def _expected_failure(self, record) -> bool:
        return False


class EvalH2(_RunWorkload):
    name = "eval-h2"
    method_tokens = ("all",)
    qerr_opt_method = "optimistic:closing-rate:max-hop.max-aggr"


class SketchK4(_RunWorkload):
    name = "sketch-k4"
    method_tokens = ("bound", "optimistic:avg:max-hop:max-aggr")
    sketch_k = SKETCH_K
    qerr_opt_method = "optimistic:avg-degree:max-hop.max-aggr"

    def prepare(self, st: Setup) -> list[str]:
        """Unsketched bounds, and for each query with a plan its K components'
        exact counts, which must add up to the query's true count."""
        violations = super().prepare(st)
        lib = self.lib
        self.unsketched: dict[str, object] = {}
        self.planned: dict[str, bool] = {}
        for it in st.items:
            estimate = lib.estimators.estimate_molp(it.query, st.cat)
            self.unsketched[it.query_id] = estimate.exact
            path = estimate.chosen_path
            if path is None:
                continue
            k = SKETCH_K if lib.sketch.sketch_attributes(path, it.query, "attrs") else 1
            try:
                _, components = lib.sketch.make_sketch(it.query, st.g, path, k,
                                                       ceg_kind="attrs", seed=self.seed)
            except lib.errors.SketchPlanError:
                self.planned[it.query_id] = False
                continue
            self.planned[it.query_id] = True
            parts = sum(lib.oracle.count_hom(c.graph, c.query).value for c in components)
            if parts != self.truth[it.query_id]:
                violations.append(f"{it.query_id}: component counts sum to {parts}, "
                                  f"true count {self.truth[it.query_id]}")
        return violations

    def _collect(self, result, methods, csv_text: str, out: PassResult) -> None:
        super()._collect(result, methods, csv_text, out)
        for r in result.records:
            if r.method != "bound":
                continue
            if (r.error is None) != self.planned.get(r.query_id, True):
                out.violations.append(f"{r.query_id}: sketched bound "
                                      f"{'failed' if r.error else 'ran'} but the "
                                      f"reference plan {'ran' if r.error else 'failed'}")
            if r.error is None and r.estimate_exact > self.unsketched[r.query_id]:
                out.violations.append(f"{r.query_id}: sketched bound {r.estimate_exact} "
                                      f"> unsketched {self.unsketched[r.query_id]}")

    def _expected_failure(self, record) -> bool:
        # K=4 needs |S| in {1, 2}; the library refuses other plans by design
        return _reason(record.error) == "SketchPlanError"


class EstimateWarm(Workload):
    """Online use: per query, the calls an optimizer makes against a stored summary."""
    name = "estimate-warm"
    min_passes = 6      # 36 bound samples per pass; p95 needs 200

    def run_pass(self, st: Setup) -> PassResult:
        lib = self.lib
        est, eg = lib.estimators, lib.estgraph
        choices = [est.HeuristicChoice(hop, aggr) for hop, aggr in
                   (("max-hop", "max-aggr"), ("min-hop", "min-aggr"),
                    ("all-hops", "avg-aggr"))]
        kinds = (est.KIND_AVG, est.KIND_CLOSING)
        samples: dict[str, list[float]] = {"opt_ms": [], "bound_ms": [], "ceg_bound_ms": []}
        values: list[tuple[str, str, object]] = []
        failures: Counter = Counter()
        clock = time.perf_counter
        start = clock()
        for it in st.items:
            q = it.query
            calls = [(f"{kind}:{choice}", "opt_ms",
                      lambda kind=kind, choice=choice: est.estimate_optimistic(
                          q, st.cat, kind, choice).exact)
                     for kind in kinds for choice in choices]
            calls.append(("bound", "bound_ms", lambda: est.estimate_molp(q, st.cat).exact))
            if len(q.vars) <= MAXDEG_MAX_VARS:
                calls.append(("ceg-bound", "ceg_bound_ms",
                              lambda: eg.min_weight_path(eg.build_maxdeg(q, st.cat)).estimate))
            for call, metric, fn in calls:
                t0 = clock()
                try:
                    value = fn()
                except lib.errors.CardestError as exc:
                    value = None
                    failures[type(exc).__name__] += 1
                samples[metric].append((clock() - t0) * 1000.0)
                values.append((it.query_id, call, value))
        out = PassResult(clock() - start, ops=len(values), failures=failures,
                         unexpected=sum(failures.values()), samples=samples)
        self._collect(values, out)
        return out

    def _collect(self, values, out: PassResult) -> None:
        by_query: dict[str, dict[str, object]] = {}
        for qid, call, value in values:
            by_query.setdefault(qid, {})[call] = value
        for qid, got in by_query.items():
            truth = self.truth[qid]
            bound = got["bound"]
            if bound is not None:
                out.bound.append((truth, bound))
                if bound < truth:
                    out.violations.append(f"{qid}: bound {bound} < true count {truth}")
            if "ceg-bound" in got and got["ceg-bound"] != bound:
                out.violations.append(f"{qid}: min_weight_path(build_maxdeg) = "
                                      f"{got['ceg-bound']} but estimate_molp = {bound}")
            closing = got["closing-rate:max-hop.max-aggr"]
            if closing is not None:
                out.opt.append((truth, closing))
        text = "".join(f"{qid}\t{call}\t{value}\n" for qid, call, value in values)
        out.fingerprint = hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (EvalH2, EstimateWarm, SketchK4)}


def _csv_fingerprint(csv_text: str) -> str:
    """sha256 of the results CSV without its elapsedMs column."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    drop = rows[0].index("elapsedMs")
    kept = ["\t".join(cell for i, cell in enumerate(row) if i != drop) for row in rows]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()
