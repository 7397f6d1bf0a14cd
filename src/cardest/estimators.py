"""Cardinality estimators on top of estimation graphs.

The optimistic family picks paths by a hop filter (max-hop / min-hop /
all-hops) and aggregates their estimates (max-aggr / min-aggr / avg-aggr),
giving 9 heuristics per graph kind, each read from one `path_summary` of
the anchored graph (per hop count: max, min, sum and count of the path
estimates).  The path oracle, which picks the single most accurate path
given the true count, reads the same summary's distinct path estimates.
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
from .estgraph import (Ceg, PathEstimate, PathSummary, build_maxdeg, build_optimistic,
                       min_weight_path, path_summary)
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
    exact: Fraction
    method: str
    ceg_kind: str
    considered_paths: int
    chosen_path: PathEstimate | None

    @property
    def value(self) -> float:
        return as_float(self.exact)


def as_float(x: Fraction | float) -> float:
    """float(x), or inf where x is past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Optimistic heuristics
# ---------------------------------------------------------------------------

def optimistic_ceg(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str = KIND_AVG) -> Ceg:
    if ceg_kind not in (KIND_AVG, KIND_CLOSING):
        raise ValueError(f"optimistic graphs are {KIND_AVG!r} or {KIND_CLOSING!r}")
    return build_optimistic(q, cat, closing=(ceg_kind == KIND_CLOSING))


def ceg_summary(ceg: Ceg) -> PathSummary:
    """The graph's path summary; no cap, since no path is listed."""
    summary = path_summary(ceg)
    if not summary.hop_counts:
        raise EstimationError(_NO_PATH)
    return summary


def estimate_optimistic(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str,
                        choice: HeuristicChoice,
                        summary: PathSummary | None = None) -> Estimate:
    """One 3x3 heuristic on the optimistic graph of `ceg_kind`.

    Reads `summary` (built from the graph when not given); the chosen path is
    the first extreme one in `iter_paths` order.  No path is listed, so no
    path count caps it.
    """
    method = f"optimistic:{choice}"
    if summary is None:
        summary = ceg_summary(optimistic_ceg(q, cat, ceg_kind))
    hops = None
    if choice.hop != "all-hops":
        hops = summary.hop_counts[-1 if choice.hop == "max-hop" else 0]
    n = summary.count(hops)
    if choice.aggr == "avg-aggr":
        return Estimate(summary.total(hops) / n, method=method, ceg_kind=ceg_kind,
                        considered_paths=n, chosen_path=None)
    best = summary.extreme(choice.aggr == "max-aggr", hops)
    return Estimate(best.estimate, method=method, ceg_kind=ceg_kind,
                    considered_paths=n, chosen_path=best)


def estimate_pstar(q: QueryGraph, cat: Catalogue | QueryStats, ceg_kind: str,
                   true_count: int, summary: PathSummary | None = None) -> Estimate:
    """Oracle pick: the first path in `iter_paths` order whose estimate minimizes
    (q-error vs the true count, estimate), read from `summary` (built from the
    graph when not given) without listing the paths."""
    if summary is None:
        summary = ceg_summary(optimistic_ceg(q, cat, ceg_kind))

    def qerr(estimate: Fraction) -> Fraction | float:
        if estimate == 0:
            return float("inf") if true_count else Fraction(1)
        if true_count == 0:
            return float("inf")
        return max(Fraction(true_count) / estimate, estimate / Fraction(true_count))

    best = summary.closest(lambda estimate: (qerr(estimate), estimate))
    return Estimate(best.estimate, method="pstar", ceg_kind=ceg_kind,
                    considered_paths=summary.count(), chosen_path=best)


# ---------------------------------------------------------------------------
# Pessimistic bound (minimum-weight path over max-degree statistics)
# ---------------------------------------------------------------------------

def estimate_molp(q: QueryGraph, cat: Catalogue | QueryStats) -> Estimate:
    """Upper bound on the true count: the min-weight path of the max-degree graph.

    The graph's shape is planned once per (q, h) and kept on q, so a call
    reads only the degree values of `cat`, each table checked for its 3^n
    keys.  The graph is searched straight off its degree-statistic move
    table, never materialized, and the search skips each popped vertex that
    a popped superset one variable larger beats (`min_weight_path`).  The
    bound is 0 exactly when a catalogue pattern P of q is empty (and then so
    is q): deg(∅, vars(P)) = count(P) = 0 and every degree of a matched
    pattern is at least 1.  The search's weight-0 rule then returns a
    weight-0 path, which is the chosen path as for any bound.
    """
    path = min_weight_path(build_maxdeg(q, cat))
    return Estimate(path.estimate, method="bound", ceg_kind=KIND_MAXDEG,
                    considered_paths=1, chosen_path=path)


# ---------------------------------------------------------------------------
# Re-evaluating a fixed optimistic path against another catalogue
# ---------------------------------------------------------------------------

def evaluate_optimistic_path(path: PathEstimate, stats: QueryStats) -> Fraction:
    """Value of the formula behind `path` using the statistics `stats` of its query.

    Merged parallel provenances are disambiguated by the first (sorted) entry,
    so the same formula is applied to every statistics source.
    """
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
            prod *= stats.closing_rate(cyc, close_idx)
        else:
            raise EstimationError(f"cannot re-evaluate edge kind {e.kind!r}")
        if prod == 0:
            return Fraction(0)
    return prod

