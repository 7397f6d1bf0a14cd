"""Cardinality estimators on top of estimation graphs.

The optimistic family picks paths by a hop filter (max-hop / min-hop /
all-hops) and aggregates their estimates (max-aggr / min-aggr / avg-aggr),
giving 9 heuristics per graph kind.  They read one `path_summary` of the
graph (per hop count: max, min, sum and count of the path estimates) rather
than a list of every path.  The path oracle picks the single most accurate
path given the true count, so it lists the paths, as does the geometric mean.
The pessimistic bound is the minimum-weight path of the max-degree graph,
found combinatorially after one pass over q's catalogue patterns reads
their degree tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalogue import Catalogue, QueryStats
from .errors import EstimationError
from .estgraph import (DEFAULT_PATH_CAP, Ceg, PathEstimate, PathSummary, build_maxdeg,
                       build_optimistic, enumerate_paths, min_weight_path,
                       path_summary)
from .querymodel import QueryGraph

HOP_CHOICES = ("max-hop", "min-hop", "all-hops")
AGGR_CHOICES = ("max-aggr", "min-aggr", "avg-aggr")

KIND_AVG = "avg-degree"
KIND_CLOSING = "closing-rate"
KIND_MAXDEG = "max-degree"

_NO_PATH = "no bottom-to-top path; closing rates or counts missing"


@dataclass(frozen=True)
class HeuristicChoice:
    hop: str
    aggr: str

    def __post_init__(self):
        if self.hop not in HOP_CHOICES:
            raise ValueError(f"hop must be one of {HOP_CHOICES}, got {self.hop!r}")
        if self.aggr not in AGGR_CHOICES:
            raise ValueError(f"aggr must be one of {AGGR_CHOICES}, got {self.aggr!r}")

    def __str__(self) -> str:
        return f"{self.hop}.{self.aggr}"


ALL_CHOICES = tuple(HeuristicChoice(h, a) for h in HOP_CHOICES for a in AGGR_CHOICES)


@dataclass
class Estimate:
    value: float
    exact: Fraction | None
    method: str
    ceg_kind: str
    considered_paths: int
    chosen_path: PathEstimate | None

    @staticmethod
    def from_exact(exact: Fraction, **kw) -> "Estimate":
        try:
            value = float(exact)
        except OverflowError:
            value = float("inf")
        return Estimate(value=value, exact=exact, **kw)


# ---------------------------------------------------------------------------
# Optimistic heuristics
# ---------------------------------------------------------------------------

def optimistic_ceg(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str = KIND_AVG,
                   starts: str = "anchored") -> Ceg:
    if ceg_kind not in (KIND_AVG, KIND_CLOSING):
        raise ValueError(f"optimistic graphs are {KIND_AVG!r} or {KIND_CLOSING!r}")
    return build_optimistic(q, cat, closing=(ceg_kind == KIND_CLOSING), starts=starts)


def ceg_paths(ceg: Ceg, cap: int = DEFAULT_PATH_CAP) -> list[PathEstimate]:
    """Every bottom-to-top path; PathOverflowError past `cap` paths."""
    paths = enumerate_paths(ceg, cap)
    if not paths:
        raise EstimationError(_NO_PATH)
    return paths


def ceg_summary(ceg: Ceg) -> PathSummary:
    """The graph's path summary; no cap, since no path is listed."""
    summary = path_summary(ceg)
    if not summary.hop_counts:
        raise EstimationError(_NO_PATH)
    return summary


def optimistic_paths(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str = KIND_AVG,
                     starts: str = "anchored",
                     cap: int = DEFAULT_PATH_CAP) -> tuple[Ceg, list[PathEstimate]]:
    ceg = optimistic_ceg(q, cat, ceg_kind, starts)
    return ceg, ceg_paths(ceg, cap)


def filter_paths(paths: list[PathEstimate], hop: str) -> list[PathEstimate]:
    if hop == "all-hops":
        return list(paths)
    target = max(p.hops for p in paths) if hop == "max-hop" else min(p.hops for p in paths)
    return [p for p in paths if p.hops == target]


def estimate_optimistic(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str,
                        choice: HeuristicChoice, average: str = "arithmetic",
                        starts: str = "anchored", cap: int = DEFAULT_PATH_CAP,
                        paths: list[PathEstimate] | None = None,
                        summary: PathSummary | None = None) -> Estimate:
    """One 3x3 heuristic on the optimistic graph of `ceg_kind`.

    Reads `summary` (built from the graph when not given) unless `paths` is
    given or the choice is avg-aggr with average="geometric"; those aggregate
    a path list, and only the list is capped: PathOverflowError past `cap`
    paths.  The chosen path is the first extreme one in `iter_paths` order
    either way.
    """
    method = f"optimistic:{choice}"
    geometric = choice.aggr == "avg-aggr" and average == "geometric"
    if paths is None and not geometric:
        if summary is None:
            summary = ceg_summary(optimistic_ceg(q, cat, ceg_kind, starts))
        return _from_summary(summary, choice, method, ceg_kind)
    if paths is None:
        _, paths = optimistic_paths(q, cat, ceg_kind, starts=starts, cap=cap)
    pool = filter_paths(paths, choice.hop)
    if choice.aggr == "avg-aggr":
        if geometric:  # the mean of the logs: the pool's product can overflow a float
            value = 0.0
            if all(p.estimate for p in pool):
                mean = math.fsum(math.log(p.estimate.numerator) - math.log(p.estimate.denominator)
                                 for p in pool) / len(pool)
                try:
                    value = math.exp(mean)
                except OverflowError:
                    value = float("inf")
            return Estimate(value=value, exact=None, method=method + ":geo",
                            ceg_kind=ceg_kind, considered_paths=len(pool), chosen_path=None)
        mean = sum((p.estimate for p in pool), Fraction(0)) / len(pool)
        return Estimate.from_exact(mean, method=method, ceg_kind=ceg_kind,
                                   considered_paths=len(pool), chosen_path=None)
    best = None
    for p in pool:  # first hit wins ties; enumeration order is deterministic
        if best is None:
            best = p
        elif choice.aggr == "max-aggr" and p.estimate > best.estimate:
            best = p
        elif choice.aggr == "min-aggr" and p.estimate < best.estimate:
            best = p
    return Estimate.from_exact(best.estimate, method=method, ceg_kind=ceg_kind,
                               considered_paths=len(pool), chosen_path=best)


def _from_summary(summary: PathSummary, choice: HeuristicChoice, method: str,
                  ceg_kind: str) -> Estimate:
    hops = None
    if choice.hop != "all-hops":
        counts = summary.hop_counts
        hops = counts[-1] if choice.hop == "max-hop" else counts[0]
    n = summary.count(hops)
    if choice.aggr == "avg-aggr":
        return Estimate.from_exact(summary.total(hops) / n, method=method, ceg_kind=ceg_kind,
                                   considered_paths=n, chosen_path=None)
    best = summary.extreme(choice.aggr == "max-aggr", hops)
    return Estimate.from_exact(best.estimate, method=method, ceg_kind=ceg_kind,
                               considered_paths=n, chosen_path=best)


def estimate_pstar(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str,
                   true_count: int, starts: str = "anchored", cap: int = DEFAULT_PATH_CAP,
                   paths: list[PathEstimate] | None = None) -> Estimate:
    """Oracle pick: the path whose estimate minimizes q-error vs the true count."""
    if paths is None:
        _, paths = optimistic_paths(q, cat, ceg_kind, starts=starts, cap=cap)

    def qerr(p: PathEstimate) -> Fraction | float:
        if p.estimate == 0:
            return float("inf") if true_count else Fraction(1)
        if true_count == 0:
            return float("inf")
        return max(Fraction(true_count) / p.estimate, p.estimate / Fraction(true_count))

    best = min(paths, key=lambda p: (qerr(p), p.estimate))
    return Estimate.from_exact(best.estimate, method="pstar", ceg_kind=ceg_kind,
                               considered_paths=len(paths), chosen_path=best)


# ---------------------------------------------------------------------------
# Pessimistic bound (minimum-weight path over max-degree statistics)
# ---------------------------------------------------------------------------

def estimate_molp(q: QueryGraph, cat: Catalogue | QueryStats) -> Estimate:
    """Upper bound on the true count: the min-weight path of the max-degree graph.

    The graph is searched straight off its degree-statistic move table, never
    materialized.  A move of degree 0 short-circuits to 0: deg(∅, vars(P)) is
    count(P) and every degree of a matched pattern is at least 1, so this
    happens exactly when a catalogue pattern of q is empty (and then so is q).
    """
    ceg = build_maxdeg(q, cat)
    if any(deg == 0 for _, _, deg, _ in ceg.moves):
        return Estimate.from_exact(Fraction(0), method="bound", ceg_kind=KIND_MAXDEG,
                                   considered_paths=0, chosen_path=None)
    path = min_weight_path(ceg)
    return Estimate.from_exact(path.estimate, method="bound", ceg_kind=KIND_MAXDEG,
                               considered_paths=1, chosen_path=path)


# ---------------------------------------------------------------------------
# Re-evaluating a fixed optimistic path against another catalogue
# ---------------------------------------------------------------------------

def evaluate_optimistic_path(path: PathEstimate, query: QueryGraph,
                             cat: Catalogue | QueryStats) -> Fraction:
    """Value of the formula behind `path` using `cat`'s statistics of `query`.

    Merged parallel provenances are disambiguated by the first (sorted) entry,
    so the same formula is applied to every statistics source.
    """
    stats = QueryStats.of(query, cat)
    prod = Fraction(1)
    for e in path.edges:
        prov = e.provenance[0]
        tag = prov[0]
        if tag == "count":
            prod *= stats.count(frozenset(prov[1]))
        elif tag == "ratio":
            c_ext = stats.count(frozenset(prov[1]))
            c_int = stats.count(frozenset(prov[2]))
            if c_int == 0:
                return Fraction(0)
            prod *= Fraction(c_ext, c_int)
        elif tag == "closing":
            cyc = frozenset(prov[2])
            missing = e.dst - e.src
            if len(missing) != 1:
                raise EstimationError("closing edge must add exactly one query edge")
            (close_idx,) = missing
            prod *= stats.closing_rate(cyc, close_idx)[0]
        else:
            raise EstimationError(f"cannot re-evaluate edge kind {e.kind!r}")
        if prod == 0:
            return Fraction(0)
    return prod

