"""q-error records, distribution summaries, and workload runs.

q-error is max(c/e, e/c) >= 1 for true count c and estimate e; its base-10
log gets a negative sign on underestimates so distributions order from worst
underestimate to worst overestimate.  Summaries report the quartile cut-offs
and the mean after trimming the worst 10% by q-error magnitude.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .catalogue import Catalogue, QueryStats, build_catalogue, check_walk_budget
from .errors import CardestError, ConfigError
from .estimators import (ALL_CHOICES, KIND_AVG, KIND_CLOSING, Estimate,
                         HeuristicChoice, ceg_paths, ceg_summary, estimate_molp,
                         estimate_optimistic, estimate_pstar, optimistic_ceg)
from .graphstore import LabeledGraph
from .oracle import count_hom
from .querymodel import QueryGraph
from .sketch import estimate_with_sketch

CSV_COLUMNS = ("queryId", "template", "method", "cegKind", "hop", "aggr", "sketchK",
               "trueCount", "estimate", "qerror", "signedLog", "elapsedMs")


@dataclass
class QErrorRecord:
    query_id: str
    template: str
    method: str
    ceg_kind: str
    hop: str
    aggr: str
    sketch_k: int
    true_count: int
    estimate: float | None
    estimate_exact: Fraction | None
    qerror: Fraction | None          # None for failed rows; inf encoded via zero_estimate
    signed_log: float | None
    elapsed_ms: float
    zero_estimate: bool = False
    invalid: bool = False
    error: str | None = None


def qerror(c: int, e: Fraction | int | float) -> tuple[Fraction | float, float]:
    """(q-error, signed log10) for true count c >= 1 and estimate e >= 0.

    e == 0 maps to the infinite-q-error marker (signed log -inf, an
    underestimate); callers tally such records separately.
    """
    if c < 1:
        raise ValueError("true count must be >= 1 (c = 0 records are invalid)")
    if e < 0:
        raise ValueError("estimate must be non-negative")
    if e == 0:
        return float("inf"), float("-inf")
    ef = Fraction(e) if not isinstance(e, float) else e
    if isinstance(ef, Fraction):
        err = max(Fraction(c) / ef, ef / Fraction(c))
        signed = math.log10(float(err)) if err > 1 else 0.0
        if ef < c:
            signed = -signed
        return err, signed
    err = max(c / ef, ef / c)
    signed = math.log10(err) if err > 1 else 0.0
    if ef < c:
        signed = -signed
    return err, signed


@dataclass
class QErrorSummary:
    p25: float
    p50: float
    p75: float
    trimmed_mean: float
    n: int
    zero_estimates: int = 0
    invalid: int = 0

    def as_dict(self) -> dict:
        return {"p25": self.p25, "p50": self.p50, "p75": self.p75,
                "trimmedMean": self.trimmed_mean, "n": self.n,
                "zeroEstimates": self.zero_estimates, "invalid": self.invalid}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks on pre-sorted values."""
    if not sorted_values:
        raise ValueError("no values")
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo]) + frac * (float(sorted_values[hi]) - float(sorted_values[lo]))


def summarize(records: Sequence[QErrorRecord]) -> QErrorSummary:
    """Distribution summary over the finite q-error records.

    Invalid rows (c = 0 or failed estimates) and zero-estimate rows are
    excluded from the distribution and tallied.  The trimmed mean drops the
    floor(0.1 n) records with the largest q-error magnitude.
    """
    invalid = sum(1 for r in records if r.invalid or r.error is not None)
    zero = sum(1 for r in records if r.zero_estimate and not r.invalid)
    usable = [r for r in records
              if not r.invalid and r.error is None and not r.zero_estimate]
    if not usable:
        raise ValueError("no summarizable records")
    logs = sorted(r.signed_log for r in usable)
    drop = math.floor(0.1 * len(usable))
    by_magnitude = sorted(usable, key=lambda r: (r.qerror, abs(r.signed_log),
                                                 r.query_id, r.method))
    kept = by_magnitude[:len(usable) - drop] if drop else by_magnitude
    trimmed = math.fsum(r.signed_log for r in kept) / len(kept)
    return QErrorSummary(
        p25=percentile(logs, 0.25),
        p50=percentile(logs, 0.50),
        p75=percentile(logs, 0.75),
        trimmed_mean=trimmed,
        n=len(usable),
        zero_estimates=zero,
        invalid=invalid,
    )


# ---------------------------------------------------------------------------
# Methods and workload runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    name: str                       # optimistic | pstar | bound
    ceg_kind: str = ""              # avg-degree | closing-rate | max-degree
    choice: HeuristicChoice | None = None

    def method_id(self) -> str:
        if self.name == "optimistic":
            return f"optimistic:{self.ceg_kind}:{self.choice}"
        if self.name == "pstar":
            return f"pstar:{self.ceg_kind}"
        return self.name


def expand_methods(tokens: Sequence[str]) -> list[MethodSpec]:
    """Parse CLI-style method tokens.

    "all" covers the 9 heuristics on both optimistic graph kinds plus the
    path oracle on both and the pessimistic bound.
    """
    kinds = {"avg": KIND_AVG, "closing": KIND_CLOSING,
             KIND_AVG: KIND_AVG, KIND_CLOSING: KIND_CLOSING}

    def kind_of(name: str) -> str:
        if name not in kinds:
            raise ValueError(f"unknown graph kind {name!r} in method {token!r}")
        return kinds[name]

    out: list[MethodSpec] = []
    for token in tokens:
        token = token.strip()
        parts = token.split(":")
        if token == "all":
            for kind in (KIND_AVG, KIND_CLOSING):
                for choice in ALL_CHOICES:
                    out.append(MethodSpec("optimistic", kind, choice))
                out.append(MethodSpec("pstar", kind))
            out.append(MethodSpec("bound"))
        elif token == "bound" or token == "molp":
            out.append(MethodSpec("bound"))
        elif parts[0] == "pstar":
            if len(parts) > 2:
                raise ValueError(f"bad method token {token!r}")
            kind = kind_of(parts[1]) if len(parts) > 1 else KIND_AVG
            out.append(MethodSpec("pstar", kind))
        elif parts[0] == "optimistic":
            if len(parts) == 4:
                _, kind, hop, aggr = parts
            elif len(parts) == 3:
                kind = "avg"
                _, hop, aggr = parts
            else:
                raise ValueError(f"bad method token {token!r}")
            out.append(MethodSpec("optimistic", kind_of(kind), HeuristicChoice(hop, aggr)))
        else:
            raise ValueError(f"unknown method {token!r}")
    seen: set[str] = set()
    unique = []
    for spec in out:
        if spec.method_id() not in seen:
            seen.add(spec.method_id())
            unique.append(spec)
    return unique


@dataclass
class WorkloadItem:
    query_id: str
    template: str
    query: QueryGraph


@dataclass
class RunResult:
    records: list[QErrorRecord]
    method_summaries: dict[str, QErrorSummary]
    template_summaries: dict[tuple[str, str], QErrorSummary]
    meta: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            writer.writerow([
                r.query_id, r.template, r.method, r.ceg_kind, r.hop, r.aggr,
                r.sketch_k, r.true_count,
                "" if r.estimate is None else repr(r.estimate),
                "" if r.qerror is None else (
                    "inf" if r.zero_estimate else repr(float(r.qerror))),
                "" if r.signed_log is None else repr(r.signed_log),
                f"{r.elapsed_ms:.3f}",
            ])
        return buf.getvalue()

    def summary_json(self) -> str:
        payload = {
            "meta": self.meta,
            "methods": {m: s.as_dict() for m, s in sorted(self.method_summaries.items())},
            "templates": {f"{m}::{t}": s.as_dict()
                          for (m, t), s in sorted(self.template_summaries.items())},
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def run_workload(
    g: LabeledGraph,
    workload: Sequence[WorkloadItem] | Sequence[QueryGraph],
    methods: Sequence[MethodSpec],
    h: int = 2,
    seed: int = 0,
    walk_budget: int | None = 1000,
    sketch_k: int = 1,
    starts: str = "anchored",
    catalogue: Catalogue | None = None,
) -> RunResult:
    """Estimate every (query, method) pair against the cached oracle count.

    Estimator failures become failed rows, never aborts.  With sketch_k > 1
    the optimistic min/max heuristics and the bound run sketched; their
    unpartitioned plans read the run's catalogue too.  A given catalogue
    built from another graph or at another h, a walk budget below 1, or a
    sketch_k below 1 raises ConfigError before any row runs.  Per query, the
    methods share one QueryStats of the catalogue, and each optimistic graph
    kind is built once; its path summary serves the heuristics and its path
    list only the path oracle.
    """
    if sketch_k < 1:
        raise ConfigError(f"sketch K must be >= 1 (1: no sketch), got {sketch_k}")
    items = [w if isinstance(w, WorkloadItem) else WorkloadItem(f"q{i:04d}", "", w)
             for i, w in enumerate(workload)]
    if catalogue is None:
        cat = build_catalogue(g, [it.query for it in items], h,
                              walk_budget=walk_budget, seed=seed)
    else:
        catalogue.check_h(h)
        catalogue.check_graph(g)
        check_walk_budget(walk_budget)
        cat = catalogue
    records: list[QErrorRecord] = []
    for item in items:
        true_count = count_hom(g, item.query).value
        stats = QueryStats(item.query, cat)
        ceg_cache: dict = {}
        for spec in methods:
            start = time.perf_counter()
            estimate: Estimate | None = None
            error: str | None = None
            try:
                estimate = _run_method(item.query, g, stats, spec, h, seed, walk_budget,
                                       sketch_k, starts, true_count, ceg_cache)
            except CardestError as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            records.append(_make_record(item, spec, sketch_k, true_count,
                                        estimate, error, elapsed_ms))
    method_summaries: dict[str, QErrorSummary] = {}
    template_summaries: dict[tuple[str, str], QErrorSummary] = {}
    for spec in methods:
        mid = spec.method_id()
        rows = [r for r in records if r.method == mid]
        if any(not r.invalid and r.error is None and not r.zero_estimate for r in rows):
            method_summaries[mid] = summarize(rows)
        for template in sorted({r.template for r in rows}):
            trows = [r for r in rows if r.template == template]
            if any(not r.invalid and r.error is None and not r.zero_estimate for r in trows):
                template_summaries[(mid, template)] = summarize(trows)
    meta = {"h": h, "seed": seed, "sketchK": sketch_k, "walkBudget": walk_budget,
            "queries": len(items), "methods": [m.method_id() for m in methods]}
    return RunResult(records, method_summaries, template_summaries, meta)


def _run_method(query, g, stats, spec, h, seed, walk_budget, sketch_k, starts,
                true_count, ceg_cache) -> Estimate:
    if spec.name == "bound":
        if sketch_k > 1:
            return estimate_with_sketch(query, g, sketch_k, "molp", h=h, seed=seed,
                                        walk_budget=walk_budget, catalogue=stats)
        return estimate_molp(query, stats)
    if spec.name == "optimistic" and sketch_k > 1:
        # avg-aggr has no chosen path to partition; the row records the failure
        return estimate_with_sketch(query, g, sketch_k, "optimistic", h=h, seed=seed,
                                    walk_budget=walk_budget, choice=spec.choice,
                                    ceg_kind=spec.ceg_kind, starts=starts,
                                    catalogue=stats)
    kind = spec.ceg_kind
    ceg = ceg_cache.get(kind)
    if ceg is None:
        ceg = ceg_cache[kind] = optimistic_ceg(query, stats, kind, starts)
    if spec.name == "pstar":
        paths = ceg_cache.get(("paths", kind))
        if paths is None:
            paths = ceg_cache["paths", kind] = ceg_paths(ceg)
        return estimate_pstar(query, stats, kind, true_count, paths=paths)
    summary = ceg_cache.get(("summary", kind))
    if summary is None:
        summary = ceg_cache["summary", kind] = ceg_summary(ceg)
    return estimate_optimistic(query, stats, kind, spec.choice, summary=summary)


def _make_record(item, spec, sketch_k, true_count, estimate, error, elapsed_ms):
    mid = spec.method_id()
    hop = spec.choice.hop if spec.choice else ""
    aggr = spec.choice.aggr if spec.choice else ""
    if error is not None or estimate is None:
        return QErrorRecord(item.query_id, item.template, mid, spec.ceg_kind, hop,
                            aggr, sketch_k, true_count, None, None, None, None,
                            elapsed_ms, invalid=True, error=error)
    value = estimate.exact if estimate.exact is not None else estimate.value
    if true_count == 0:
        return QErrorRecord(item.query_id, item.template, mid, spec.ceg_kind, hop,
                            aggr, sketch_k, true_count, estimate.value,
                            estimate.exact, None, None, elapsed_ms, invalid=True,
                            error="zero true count")
    err, signed = qerror(true_count, value)
    zero = value == 0
    return QErrorRecord(item.query_id, item.template, mid, spec.ceg_kind, hop, aggr,
                        sketch_k, true_count, estimate.value, estimate.exact,
                        None if zero else Fraction(err) if isinstance(err, Fraction) else err,
                        signed, elapsed_ms, zero_estimate=zero)
